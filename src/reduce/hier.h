// Hierarchical timing session: a timing::Session that analyzes the
// *reduced* view of a design while presenting the flat design's mutation
// surface.
//
// The stitch: HierSession keeps the flat design (the source of truth
// every mutator edits), a per-net reduction hint, and an inner
// timing::Session over the reduced design.  analyze() first refreshes
// any invalidated hints -- consulting the shared StageCache's
// content-addressed reduction store, so repeated cells reduce once
// process-wide and a re-reduction of unchanged content is a pointer
// lookup -- and rebuilds the inner session only when some net's
// reduction artifact actually changed.  The inner session shares the
// same StageCache, so stage results and lint reports survive a rebuild;
// only stages whose reduced content changed re-evaluate.
//
// Invalidation-on-mutation: editing a parasitic inside a collapsed
// region invalidates exactly that net's hint (content addressing does
// the rest -- the changed bytes miss, every other net's reduction
// pointer is untouched and the rebuild skips them).  Gate parameter
// edits (drive resistance, input cap, intrinsic delay) never enter the
// reduction key, so they forward straight to the inner session with no
// hint invalidated and no rebuild.
//
// Accuracy contract: tolerance-equal, not bit-equal.  A reduced
// analysis reproduces flat stage delays/slews within the macromodel's
// verified moment tolerance (<= ~1e-9 s absolute delay error on the
// bench RC fabrics); when every net refuses reduction the reduced
// design IS the flat design and reports are bit-identical.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reduce/reduce.h"
#include "timing/session.h"

namespace awesim::reduce {

class HierSession {
 public:
  explicit HierSession(timing::Design design,
                       timing::AnalysisOptions options = {},
                       ReduceOptions reduce_options = {},
                       std::shared_ptr<timing::detail::StageCache> cache =
                           nullptr);

  /// Refresh stale reductions, rebuild the inner session if any changed,
  /// analyze.  Reduction refusal/corruption diagnostics are appended to
  /// the report's diagnostics (element-stamped with the net name).
  timing::TimingReport analyze();

  /// Mutators, mirroring timing::Session (same validation, same
  /// exceptions).  Net edits invalidate exactly that net's reduction
  /// hint; gate edits touch no reduction at all.
  void set_value(const std::string& net, std::size_t element_index,
                 double value);
  void add_element(const std::string& net, timing::NetElement element);
  void remove_element(const std::string& net, std::size_t element_index);
  void set_drive_resistance(const std::string& gate, double value);
  void set_input_capacitance(const std::string& gate, double value);
  void set_intrinsic_delay(const std::string& gate, double value);

  /// The flat design (the mutation surface), not the reduced view.
  const timing::Design& design() const { return flat_.design(); }
  const ReduceOptions& reduce_options() const { return reduce_options_; }

  /// Cumulative reduction observability.
  struct Stats {
    std::size_t nets_total = 0;
    /// Nets currently analyzed through a macromodel.
    std::size_t nets_reduced = 0;
    /// Interior nodes eliminated across all currently reduced nets.
    std::size_t interior_eliminated = 0;
    /// Macro states retained across all currently reduced nets.
    std::size_t macro_states = 0;
    /// reduce_net executions performed by this session (lifetime).
    std::uint64_t reductions_performed = 0;
    /// Hint refreshes short-circuited by the structural eligibility
    /// precheck (net_eligibility != Eligible): no store lookup, no
    /// collapse attempt, no negative entry polluting the shared cache
    /// (lifetime).
    std::uint64_t eligibility_skips = 0;
    /// Hint refreshes served from the shared reduction store (lifetime).
    std::uint64_t reduction_cache_hits = 0;
    /// Inner-session rebuilds (lifetime; 1 after the first analyze).
    std::uint64_t rebuilds = 0;
  };
  Stats stats() const;

  timing::Session::CacheStats cache_stats() const;

  /// Drop every cached artifact and every reduction hint; the next
  /// analyze() runs fully cold (the bench's cold-rep reset).
  void clear_cache();

 private:
  struct NetHint {
    bool valid = false;
    std::shared_ptr<const timing::detail::CachedReduction> cached;
  };

  std::size_t net_index(const std::string& net) const;
  /// Refresh invalid hints; true when any net's reduction artifact
  /// changed (rebuild required).
  bool refresh_hints();
  void rebuild_inner();

  // The cache is declared (and so initialized) before the flat session,
  // which shares it.
  std::shared_ptr<timing::detail::StageCache> cache_;
  timing::Session flat_;  // owns the flat design + mutation validation
  timing::AnalysisOptions options_;
  ReduceOptions reduce_options_;
  std::vector<NetHint> hints_;
  std::optional<timing::Session> inner_;
  core::Diagnostics pending_diags_;
  Stats stats_;
};

}  // namespace awesim::reduce
