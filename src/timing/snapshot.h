// Snapshot isolation over the incremental timing session -- the
// concurrency model behind `awesim_serve`.
//
// A timing::Session is a single-writer object: mutators edit the design
// in place and analyze() walks that design.  A service multiplexing many
// clients over one loaded design needs more: readers must see a
// consistent state while a writer mutates, a failed mutation must leave
// nothing behind, and every client should profit from every other
// client's warm cache.  SnapshotStore provides exactly that with
// copy-on-write generations over one shared content-addressed
// StageCache:
//
//   * The store holds one immutable *current* Snapshot: a generation
//     number plus a frozen copy of the design and analysis options.
//     Readers pin it (shared_ptr) and keep using it for as long as they
//     like -- a pinned snapshot never changes, even as newer generations
//     are published, so two queries against the same pin are
//     bit-identical by construction.
//   * A writer mutates through mutate(): one writer at a time copies the
//     current design into a scratch Session, applies the edit closure,
//     and only then publishes generation N+1.  An edit that throws
//     (unknown net, bad index, injected fault) publishes nothing -- the
//     rollback is the absence of a commit, there is no partially-mutated
//     state anywhere a reader could see.
//   * All analysis -- snapshot reports, sweeps, path queries, and the
//     first analysis of every new generation -- runs through private
//     Sessions sharing the store's StageCache.  Content addressing makes
//     that safe (see Session's shared-cache constructor) and makes
//     every query warm: generation N+1 re-evaluates only the stages the
//     edit actually changed, and K readers of one snapshot pay for one
//     analysis (memoized) plus zero-lock reuse afterwards.
//
// Cancellation composes per request: a CancelToken passed to a snapshot
// query bounds *that* analysis only.  A cancelled analysis publishes
// no memo and leaves the shared cache valid (fully evaluated stages
// only), so the next reader simply retries -- warm.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "timing/session.h"

namespace awesim::core {
class CancelToken;
}

namespace awesim::timing {

/// One immutable published generation.  All methods are const and safe
/// to call from any number of threads; analysis results are memoized per
/// snapshot, so repeated queries of one pin cost one warm analysis
/// total.
class Snapshot {
 public:
  Snapshot(std::uint64_t generation, Design design, AnalysisOptions options,
           std::shared_ptr<detail::StageCache> cache);

  std::uint64_t generation() const { return generation_; }
  const Design& design() const { return design_; }
  const AnalysisOptions& options() const { return options_; }

  /// The snapshot's timing report (warm through the shared cache;
  /// memoized).  `cancel` bounds only an analysis this call actually
  /// performs; a memoized report returns immediately.  On cancellation
  /// the memo stays empty and the next caller retries.
  std::shared_ptr<const TimingReport> report(
      core::CancelToken* cancel = nullptr) const;

  /// Worst endpoint slack (from report()).
  double worst_slack(core::CancelToken* cancel = nullptr) const;

  /// Pin-level timing graph built from report().  NaN required_time
  /// falls back to the snapshot options' required_time.
  TimingGraph graph(double required_time,
                    core::CancelToken* cancel = nullptr) const;

  /// K-worst paths over graph(); query.cancel also bounds the
  /// enumeration itself (expansion granularity).
  PathsResult worst_paths(const PathQuery& query,
                          core::CancelToken* cancel = nullptr) const;

  /// What-if sweep against this snapshot.  Runs on a *private* scratch
  /// Session (the snapshot itself is never touched), warm through the
  /// shared cache; concurrent sweeps on one snapshot are independent.
  SweepResult sweep(const SweepParam& param,
                    const std::vector<double>& values,
                    core::CancelToken* cancel = nullptr) const;

 private:
  std::uint64_t generation_ = 0;
  Design design_;
  AnalysisOptions options_;
  std::shared_ptr<detail::StageCache> cache_;

  mutable std::mutex memo_mutex_;
  mutable std::shared_ptr<const TimingReport> memo_;
};

/// The generation-stamped store: one current snapshot, serialized
/// writers, shared warm cache.  Thread-safe throughout.
class SnapshotStore {
 public:
  /// `cache` is shared with other users (a reduce::HierSession over the
  /// same designs, another store) instead of owned; content addressing
  /// makes that safe, as for Session's shared-cache constructor.  A
  /// nullptr cache is replaced with a fresh private one.
  explicit SnapshotStore(Design design, AnalysisOptions options = {},
                         std::shared_ptr<detail::StageCache> cache = nullptr);

  /// Pin the current generation.  Never blocks on writers beyond the
  /// pointer swap.
  std::shared_ptr<const Snapshot> current() const;

  /// Apply `edit` to a scratch Session holding a copy of the current
  /// design, then publish the result as the next generation.  One
  /// writer at a time; readers keep their pins throughout.  If `edit`
  /// throws, nothing is published and the exception propagates -- a
  /// failed mutation rolls back by never existing.  Returns the new
  /// generation number.
  std::uint64_t mutate(const std::function<void(Session&)>& edit);

  /// Replace the served design entirely (the daemon's load_design).
  /// Starts a fresh generation lineage; the shared cache is kept, so a
  /// reload of a similar design stays warm.
  std::uint64_t reset(Design design);
  std::uint64_t reset(Design design, AnalysisOptions options);

  /// Cumulative shared-cache observability (all generations).
  Session::CacheStats cache_stats() const;

 private:
  std::uint64_t publish_locked(Design design, AnalysisOptions options);

  std::shared_ptr<detail::StageCache> cache_;

  // writer_mutex_ serializes mutate/reset end to end; current_mutex_
  // guards only the published-pointer swap that readers race with.
  std::mutex writer_mutex_;
  mutable std::mutex current_mutex_;
  std::shared_ptr<const Snapshot> current_;
  std::uint64_t next_generation_ = 0;
};

}  // namespace awesim::timing
