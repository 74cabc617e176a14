#include "timing/snapshot.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/cancel.h"
#include "timing/stage_cache.h"

namespace awesim::timing {

Snapshot::Snapshot(std::uint64_t generation, Design design,
                   AnalysisOptions options,
                   std::shared_ptr<detail::StageCache> cache)
    : generation_(generation),
      design_(std::move(design)),
      options_(options),
      cache_(std::move(cache)) {
  // A snapshot's identity is its design content; a caller-scoped token
  // must never leak into queries made by other clients.
  options_.cancel = nullptr;
}

std::shared_ptr<const TimingReport> Snapshot::report(
    core::CancelToken* cancel) const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  if (memo_ != nullptr) return memo_;
  AnalysisOptions options = options_;
  options.cancel = cancel;
  Session scratch(design_, options, cache_);
  // On a throw (deadline, budget, structural error) memo_ stays empty:
  // the *next* reader analyzes afresh -- warm, because every stage the
  // aborted walk completed is already in the shared cache.
  memo_ = std::make_shared<const TimingReport>(scratch.analyze());
  return memo_;
}

double Snapshot::worst_slack(core::CancelToken* cancel) const {
  return report(cancel)->worst_slack;
}

TimingGraph Snapshot::graph(double required_time,
                            core::CancelToken* cancel) const {
  const std::shared_ptr<const TimingReport> rep = report(cancel);
  GraphOptions gopt;
  gopt.required_time =
      std::isnan(required_time) ? options_.required_time : required_time;
  return TimingGraph::build(*rep, gopt);
}

PathsResult Snapshot::worst_paths(const PathQuery& query,
                                  core::CancelToken* cancel) const {
  const TimingGraph g =
      graph(std::numeric_limits<double>::quiet_NaN(), cancel);
  PathQuery q = query;
  if (q.cancel == nullptr) q.cancel = cancel;
  return k_worst_paths(g, q);
}

SweepResult Snapshot::sweep(const SweepParam& param,
                            const std::vector<double>& values,
                            core::CancelToken* cancel) const {
  AnalysisOptions options = options_;
  options.cancel = cancel;
  Session scratch(design_, options, cache_);
  return scratch.sweep(param, values);
}

SnapshotStore::SnapshotStore(Design design, AnalysisOptions options,
                             std::shared_ptr<detail::StageCache> cache)
    : cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<detail::StageCache>()) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  publish_locked(std::move(design), options);
}

std::shared_ptr<const Snapshot> SnapshotStore::current() const {
  std::lock_guard<std::mutex> lock(current_mutex_);
  return current_;
}

std::uint64_t SnapshotStore::publish_locked(Design design,
                                            AnalysisOptions options) {
  options.cancel = nullptr;
  auto next = std::make_shared<const Snapshot>(next_generation_,
                                               std::move(design), options,
                                               cache_);
  std::lock_guard<std::mutex> lock(current_mutex_);
  current_ = std::move(next);
  return next_generation_++;
}

std::uint64_t SnapshotStore::mutate(
    const std::function<void(Session&)>& edit) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  // The scratch session owns a private copy of the pinned design; the
  // edit closure sees full Session semantics (mutators, warm analyze,
  // sweeps) but nothing it does is visible until the publish below.
  const std::shared_ptr<const Snapshot> base = current();
  Session scratch(base->design(), base->options(), cache_);
  edit(scratch);
  return publish_locked(scratch.design(), base->options());
}

std::uint64_t SnapshotStore::reset(Design design) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const AnalysisOptions options = current()->options();
  return publish_locked(std::move(design), options);
}

std::uint64_t SnapshotStore::reset(Design design, AnalysisOptions options) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  return publish_locked(std::move(design), options);
}

Session::CacheStats SnapshotStore::cache_stats() const {
  return Session::cache_stats_of(*cache_);
}

}  // namespace awesim::timing
