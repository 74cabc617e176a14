// Incremental what-if re-analysis: a persistent timing session.
//
// A Session owns a Design plus a content-addressed StageCache and serves
// the workload a production timing system actually sees -- thousands of
// nearly identical analyses (driver sizing, R/C tweaks, ECO loops), not
// one cold run.  Mutations edit the design in place; re-analysis
// recomputes only the stages whose content actually changed plus the
// downstream stages whose input slew changed, and serves everything else
// from cache.  There is no explicit dirty-marking: cache keys are the
// exact bytes of everything a stage depends on, so a mutation misses by
// construction and an untouched stage keeps hitting (see
// timing/stage_cache.h for the key scheme and the corruption defense).
//
// Contract: for the timing payload -- stage delays/slews/arrivals, the
// gate_arrival map, critical path and delay, degraded/failed flags, and
// diagnostics -- a warm Session::analyze() is bit-identical to a cold
// Design::analyze() of the mutated design after every edit, at every
// thread count.  There is no approximate warm path: a recomputed stage
// factors its G once, exactly as a cold run does, so it gives the bits a
// cold run gives.  The awe_stats cost counters, phase breakdown, and
// wall_seconds describe the work actually performed, so warm runs report
// one factorization per recomputed stage and nonzero cache_hits /
// stages_reused -- that asymmetry is the whole point, and it is how the
// sweep benches measure the speedup.
//
// Typical use:
//   timing::Session session(design);
//   auto cold = session.analyze();
//   session.set_value("net3", 2, 150.0);          // tweak one resistor
//   auto warm = session.analyze();                // touched stages only
//   auto sweep = session.sweep(
//       {timing::SweepParam::Kind::DriveResistance, "drv"},
//       {50.0, 100.0, 200.0, 400.0});
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "timing/analyzer.h"
#include "timing/paths.h"

namespace awesim::timing {

/// Empty: a Session has no policy knobs.  A leftover of the deleted
/// low-rank warm path (DESIGN.md §14), kept with the four-argument
/// Session constructor only because the end-to-end benchmark
/// (perfbench/src/sta.cpp), which may not change outside a benchmark
/// change, still passes `SessionOptions{}`.  Remove both together with
/// that call.
struct SessionOptions {};

/// What a sweep varies.  `name` selects a net (NetElementValue) or a
/// gate (the other kinds); `element_index` picks the parasitic within
/// the net's parasitics vector.
struct SweepParam {
  enum class Kind {
    NetElementValue,   // net parasitic R/C/L value
    DriveResistance,   // gate switching resistance
    InputCapacitance,  // gate input pin capacitance
    IntrinsicDelay,    // gate intrinsic delay
  };
  Kind kind = Kind::NetElementValue;
  std::string name;
  std::size_t element_index = 0;
};

struct SweepPoint {
  double value = 0.0;
  TimingReport report;
  /// Worst endpoint slack at this point (copy of report.worst_slack).
  double worst_slack = 0.0;
  /// worst_slack minus the pre-sweep baseline's worst_slack: the what-if
  /// answer ("this edit buys/costs that much margin").
  double slack_delta = 0.0;
  /// The critical path visits a different gate sequence than the
  /// baseline's -- the edit moved the dominant path, not just its delay.
  bool critical_path_changed = false;
};

struct SweepResult {
  /// One full report per swept value, in request order.
  std::vector<SweepPoint> points;
  /// The pre-sweep analysis at the original parameter value -- the
  /// reference every point's slack_delta / critical_path_changed is
  /// measured against.  Warm when the session analyzed before.
  TimingReport baseline;
  /// Stage-level reuse totals summed over all points (also available
  /// per point in report.awe_stats).  The baseline analysis is not a
  /// point and is not counted here.
  std::uint64_t stages_reused = 0;
  std::uint64_t stages_recomputed = 0;
};

class Session {
 public:
  /// Takes its own copy of the design; the session mutates that copy.
  explicit Session(Design design, AnalysisOptions options = {});

  /// Shares a StageCache with other sessions instead of owning one --
  /// the generation-stamped snapshot store (timing/snapshot.h) builds a
  /// private Session per snapshot/request over one process-wide cache,
  /// so every reader and every new generation stays warm.  Safe because
  /// cache keys are content-addressed (two sessions can never alias
  /// different circuits under one key) and every StageCache operation is
  /// internally locked; with *concurrent* analyses the hit/miss/eviction
  /// counters become schedule-dependent, but the timing payload is
  /// bit-identical regardless of who warmed which entry.  A nullptr
  /// cache is replaced with a fresh private one.
  Session(Design design, AnalysisOptions options,
          std::shared_ptr<detail::StageCache> cache);

  /// The shared-cache constructor plus an empty SessionOptions (see
  /// there: kept only for an existing caller).
  Session(Design design, AnalysisOptions options, SessionOptions,
          std::shared_ptr<detail::StageCache> cache = nullptr);
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Analyze the current state of the design, reusing cached stages.
  TimingReport analyze();

  /// Rebind the session's analysis options, then analyze.  Option
  /// changes that enter the cache key (thresholds, order, swing, input
  /// slew) miss naturally; `threads` is not part of any key and may be
  /// changed freely without losing reuse.
  TimingReport analyze(const AnalysisOptions& options);

  /// Mutators.  Each requires the named net/gate to exist (and the net
  /// name to be unambiguous -- a design may connect several nets under
  /// one name); throws std::invalid_argument otherwise.  No explicit
  /// invalidation happens here: the next analyze() misses on exactly
  /// the stages whose content these edits changed.
  void set_value(const std::string& net, std::size_t element_index,
                 double value);
  void add_element(const std::string& net, NetElement element);
  void remove_element(const std::string& net, std::size_t element_index);
  void set_drive_resistance(const std::string& gate, double value);
  void set_input_capacitance(const std::string& gate, double value);
  void set_intrinsic_delay(const std::string& gate, double value);

  /// Sweep one parameter over `values`: apply, analyze, restore the
  /// original value afterwards.  Warm by construction -- every point
  /// reuses all stages the previous points already computed.  Each point
  /// carries its slack delta against the pre-sweep baseline and whether
  /// the critical path moved (the what-if questions a sweep answers).
  SweepResult sweep(const SweepParam& param,
                    const std::vector<double>& values);

  /// Analyze (warm) and enumerate the K worst paths of the current
  /// design state over TimingReport::graph.  See timing/paths.h for
  /// query semantics; throws what k_worst_paths() throws on bad names.
  PathsResult worst_paths(const PathQuery& query = {});

  /// Analyze (warm) and return the worst endpoint slack.
  double worst_slack();

  const Design& design() const { return design_; }
  const AnalysisOptions& options() const { return options_; }

  /// Cumulative cache observability, for tests and tooling.
  struct CacheStats {
    std::size_t stage_entries = 0;
    std::size_t lint_entries = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t evictions = 0;
    /// Pre-flight lint lookups (content-keyed, counted apart from
    /// hits/misses; see StageCache::Counters).
    std::uint64_t lint_hits = 0;
    std::uint64_t lint_misses = 0;
    /// Net-reduction artifacts (src/reduce; populated only when a
    /// reduce::HierSession shares this session's cache).
    std::size_t reduction_entries = 0;
    std::uint64_t reduction_hits = 0;
    std::uint64_t reduction_misses = 0;
  };
  CacheStats cache_stats() const;
  /// The same counters for any StageCache -- the one conversion behind
  /// both Session::cache_stats and SnapshotStore::cache_stats.
  static CacheStats cache_stats_of(const detail::StageCache& cache);

  /// Drop every cached artifact; the next analyze() runs cold.
  void clear_cache();

 private:
  double current_value(const SweepParam& param);
  void apply_value(const SweepParam& param, double value);
  Net& net_ref(const std::string& net);
  Gate& gate_ref(const std::string& gate);

  /// Index of the (unique) net with this name in the design's net list;
  /// same validation as net_ref.
  std::size_t net_index(const std::string& net);
  /// Drop the net's memoized key.
  void invalidate_keys(std::size_t net_idx);
  /// Drop every memoized key (options rebind).
  void invalidate_all_keys();

  Design design_;
  AnalysisOptions options_;
  std::shared_ptr<detail::StageCache> cache_;
  std::vector<detail::StageHint> stage_hints_;
};

}  // namespace awesim::timing
