// Stage-based static timing analysis on top of AWE -- the application the
// paper positions itself inside (Section II: "A typical approach to timing
// analysis of MOS integrated circuits is to divide the design into stages,
// with each stage consisting of a gate output and the interconnect path
// which it drives", with MOSFETs modeled as approximate linear resistors
// and capacitors).
//
// The model:
//   * a Gate is a linear driver: switching resistance, input pin
//     capacitance, intrinsic delay;
//   * a Net is a named piece of linear interconnect (R/C/L elements over
//     local node names) with one driver hookup point and one hookup point
//     per sink;
//   * the Design wires gate outputs to nets and net sinks to gate inputs.
//
// Analysis levelizes the stage DAG into Kahn wavefronts: level 0 holds
// the primary-input gates, and every other gate sits one past its
// latest-level driver.  All stages of one wavefront are independent --
// their drivers' arrivals and slews are final -- so they are evaluated
// concurrently on a fixed-size thread pool, each stage building its own
// circuit -- driver resistance, interconnect, sink input capacitances --
// applying a finite-slew ramp at the driver (the slew propagated from
// the previous stage, Section 4.3's ramp handling), running one batch
// AWE solve over all of the net's sinks (Engine::approximate_all: one LU
// and moment set per net, one cheap match per sink), and extracting
// per-sink delay (threshold crossing) and output slew (20%-80%).
// Results land in per-stage slots and are reduced serially in a fixed
// order (gates by name within a level, nets in insertion order, sinks by
// name), so arrival times, the critical path, and the stage list are
// identical for every thread count.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "core/engine.h"
#include "core/stats.h"

namespace awesim::core {
class CancelToken;
}

namespace awesim::timing {

/// Linearized switching gate (the Section II MOSFET approximation).
struct Gate {
  std::string name;
  double drive_resistance = 1e3;   // ohms
  double input_capacitance = 5e-15;  // farads, per input pin
  double intrinsic_delay = 0.0;    // seconds, added at the gate output
};

/// One element of a net's parasitics, over net-local node names.
/// The reserved node name "DRV" is the driver hookup; sink hookups are
/// named by the sink pin they connect to.
struct NetElement {
  enum class Kind { Resistor, Capacitor, Inductor } kind;
  std::string node_a;
  std::string node_b;  // "0" for ground
  double value = 0.0;
};

/// A reduced boundary-block macromodel over net-local node names -- the
/// timing-layer mirror of circuit::MacroElement, produced by
/// reduce::reduce_net when a net's interior collapses into a
/// moment-matched equivalent.  Hand-built nets never carry these.
struct NetMacro {
  /// Net-local names of the boundary ports, in stamp order ("DRV", then
  /// the sink hookup nodes).  Ground is never a port: the reducer folds
  /// interior-to-ground contributions into the stamp diagonals and
  /// refuses any net whose sink hookup is the ground node.
  std::vector<std::string> ports;
  /// Reduced internal unknowns appended after the ports.
  std::size_t states = 0;
  /// Row-major (ports.size()+states)^2 symmetric G/C stamps.
  std::vector<double> g;
  std::vector<double> c;
  /// Sums over the collapsed elements, so the analytic Elmore fallback
  /// of a reduced stage reproduces the flat stage's bound arithmetic.
  double sum_resistance = 0.0;
  double sum_capacitance = 0.0;
};

struct Net {
  std::string name;
  std::vector<NetElement> parasitics;
  /// Boundary-block macromodels stamped alongside the parasitics (only
  /// present on reduced nets; see src/reduce).
  std::vector<NetMacro> macros;
  /// Net-local node name where each sink gate input attaches.
  std::map<std::string, std::string> sink_node;  // sink gate -> node name
};

/// Which delay kernel answers each stage (see timing/delay_model.h for
/// the model descriptions and the engine-backed vs arithmetic split).
enum class DelayModelKind {
  Awe = 0,      // full q-pole AWE with the degradation ladder (default)
  ElmoreBound,  // lumped first-order bound, no linear solve
  TwoPole,      // Penfield-Rubinstein-style fixed two-pole match
  TableLookup,  // characterized normalized-ratio lookup table
};

const char* to_string(DelayModelKind kind);

struct AnalysisOptions {
  /// Supply swing and measurement thresholds.
  double swing = 5.0;
  double delay_threshold_fraction = 0.5;  // 50% delay
  double slew_low_fraction = 0.2;
  double slew_high_fraction = 0.8;

  /// AWE order for every stage (auto-escalated if unstable).
  int order = 3;

  /// Slew of the primary-input transition.
  double input_slew = 0.1e-9;

  /// Worker threads for stage evaluation: 1 runs the serial walk inline,
  /// 0 uses one thread per hardware core.  The report is bit-identical
  /// for every value (levelized wavefronts, fixed reduction order).
  int threads = 0;

  /// Run the src/check static lint pipeline over every stage circuit
  /// before handing it to the AWE engine.  A stage whose lint finds
  /// Error-severity problems (a voltage-source/inductor loop, a current
  /// source with no DC return path, nonphysical element values) never
  /// enters the engine: it degrades straight to the analytic Elmore
  /// bound, and its StageFailed diagnostic plus the lint records name
  /// the offending elements instead of a bare singular-matrix error.
  /// Warnings never change the timing numbers; they are tallied into
  /// Stats::lint_warnings only.  Under a Session, lint reports are
  /// cached by circuit content alongside the LU factorizations.
  ///
  /// The documented escape hatch: set false to skip the pre-flight and
  /// feed stages to the engine raw (benches measuring bare evaluation
  /// cost, or deliberately pathological what-if experiments).
  bool preflight_lint = true;

  /// Run the graph-scope pre-flight audit when levelization fails: the
  /// thrown error is a typed core::DiagnosticError carrying a
  /// CombinationalCycle record with the full ordered loop path (gate ->
  /// gate -> ... -> gate), instead of a bare std::invalid_argument
  /// naming nothing.  Costs nothing on healthy designs -- the audit
  /// graph walk only runs after levelization has already failed.  The
  /// escape hatch mirrors preflight_lint: set false to restore the
  /// legacy untyped throw (callers written against the pre-audit
  /// exception contract).  The full audit pass -- conditioning oracle,
  /// fanout/reconvergence rules, repetition analysis -- lives in
  /// audit::audit_design and the awesim_audit CLI.
  bool preflight_audit = true;

  /// Which delay kernel evaluates each stage.  The default is the full
  /// AWE engine -- bit-identical to the pre-seam analyzer.  The kind is
  /// part of the stage-result cache key, so a Session can interleave
  /// models without cross-talk.  Arithmetic models (ElmoreBound,
  /// TableLookup) assemble no matrices and skip the pre-flight lint.
  DelayModelKind delay_model = DelayModelKind::Awe;

  /// Required arrival time at every endpoint, for the slack/RAT pass
  /// (timing/graph.h).  NaN (the default) floats the requirement to the
  /// latest endpoint arrival, so worst_slack == 0 and slacks rank
  /// criticality relative to the critical path.  Set a clock period to
  /// get real signed slacks (and meaningful what-if slack deltas).
  double required_time = std::numeric_limits<double>::quiet_NaN();

  /// Cooperative cancellation (core/cancel.h), consulted at wavefront
  /// and stage granularity: per-stage deadline checks before each
  /// evaluation, budget charges (one unit per stage actually evaluated,
  /// cache-served stages are free) in the serial pre-pass.  nullptr --
  /// the default -- runs unbounded.  A token that never trips leaves
  /// the report bit-identical to an un-tokened run; a tripped token
  /// aborts the analysis with a DeadlineExceeded/BudgetExceeded
  /// DiagnosticError and leaves any attached stage cache valid (only
  /// fully evaluated stages are ever published).  Deliberately absent
  /// from every cache key, like `threads`: the token describes the
  /// request, not the answer.  Non-owning; the caller keeps the token
  /// alive for the duration of the call.
  core::CancelToken* cancel = nullptr;
};

struct SinkTiming {
  std::string gate;         // receiving gate
  double stage_delay = 0.0;  // driver switch -> threshold at the sink
  double slew = 0.0;         // 20-80% rise time at the sink
  double arrival = 0.0;      // absolute arrival time at the sink input
};

struct StageTiming {
  std::string driver_gate;
  std::string net;
  double input_arrival = 0.0;
  std::vector<SinkTiming> sinks;
  int awe_order_used = 0;

  /// True when any sink of this stage was answered below full AWE
  /// quality (engine degradation ladder) or the whole stage fell back
  /// to the analytic Elmore bound after an evaluation failure.
  bool degraded = false;

  /// True when the full AWE evaluation of the stage threw and the
  /// analytic Elmore bound was substituted; the wavefront continued.
  bool failed = false;

  /// Everything that went wrong (or was gracefully recovered) while
  /// evaluating this stage, in deterministic order.
  core::Diagnostics diagnostics;
};

struct TimingReport {
  std::vector<StageTiming> stages;
  /// Arrival time at each gate input (max over fan-in).
  std::map<std::string, double> gate_arrival;
  /// Latest-arriving endpoint and the chain of gates leading to it.
  double critical_delay = 0.0;
  std::vector<std::string> critical_path;

  /// Gates whose stage inputs switch at t = 0 (declared primary inputs
  /// plus zero-fan-in gates) -- the wave-0 sources, name-sorted.  The
  /// timing graph pins these to arrival 0 when it re-propagates.
  std::vector<std::string> source_gates;

  /// Slack at each gate input pin, from the backward required-arrival
  /// pass over the timing graph (required per AnalysisOptions::
  /// required_time; NaN floats it to the latest endpoint arrival).
  std::map<std::string, double> gate_slack;

  /// Minimum slack over all endpoints, and the endpoint holding it.
  /// 0 by construction when required_time floats.
  double worst_slack = 0.0;
  std::string worst_slack_endpoint;

  /// Number of Kahn wavefronts the stage DAG levelized into.
  std::size_t levels = 0;

  /// Stages answered below full AWE quality (order step-down, Elmore
  /// fallback) but with a usable bound.
  std::size_t degraded_stages = 0;

  /// Stages whose AWE evaluation threw entirely; each carries the
  /// analytic Elmore bound and a StageFailed diagnostic instead of
  /// aborting the analysis.
  std::size_t failed_stages = 0;

  /// All stage diagnostics, concatenated in the deterministic stage
  /// order (identical for every thread count).
  core::Diagnostics diagnostics;

  /// AWE cost counters summed over all stages in deterministic stage
  /// order (factorizations, substitutions, matches, per-phase time).
  core::Stats awe_stats;

  /// End-to-end wall time of analyze().
  double wall_seconds = 0.0;
};

class Design;
class Session;

namespace detail {
class StageCache;

/// Per-net key memo a Session keeps between analyze() calls: the
/// serialized cache-key bytes (serializing a kilo-element net's key
/// dominates a fully warm lookup).  Owned by the Session, read and
/// refreshed by analyze_design's serial pre-pass; never touched by pool
/// threads.  Invalidated by every mutation of the net (or of anything
/// its keys depend on) and by an options rebind; the memo only
/// short-circuits serialization -- cache lookups still run, so
/// corruption checks and counters are unchanged.
struct StageHint {
  bool keys_valid = false;
  std::uint64_t in_slew_bits = 0;  // result keys depend on the input slew
  std::string result_key;
  std::string content_key;
};

/// The one analysis walk, shared by Design::analyze (cache == nullptr:
/// every stage evaluates fresh) and timing::Session (persistent
/// StageCache: stages whose result key hits are served from cache, in a
/// serial pre-pass; only misses run on the pool, adopting a cached LU
/// when the content key hits and factoring fresh otherwise).  The report
/// is bit-identical between the two paths -- for the timing values,
/// arrival maps, critical path, degraded/failed flags, and diagnostics;
/// the awe_stats cost counters, phase breakdown, and wall_seconds
/// reflect the work actually performed and naturally differ on warm
/// runs.
///
/// `hints` (Session-only, may be null) is the per-net key memo, indexed
/// like Design's net list.
TimingReport analyze_design(const Design& design,
                            const AnalysisOptions& options,
                            StageCache* cache,
                            std::vector<StageHint>* hints = nullptr);
}  // namespace detail

/// A gate-level design: gates plus nets connecting them.
class Design {
 public:
  /// Add a gate.  Throws std::invalid_argument on duplicate names.
  void add_gate(Gate gate);

  /// Connect `driver` gate's output through `net` to the sinks listed in
  /// net.sink_node.  Sinks that name no known gate are design outputs.
  void add_net(std::string driver, Net net);

  /// Mark a gate as driven by a primary input (its input arrival is 0).
  void set_primary_input(const std::string& gate);

  /// Run the full analysis.  Throws std::invalid_argument for structural
  /// problems (unknown gates, combinational cycles).
  TimingReport analyze(const AnalysisOptions& options = {}) const;

  /// Read access for design-level transforms (src/reduce walks every
  /// net, rewrites its parasitics into macromodels, and rebuilds an
  /// equivalent Design through the public mutators above).
  const std::map<std::string, Gate>& gates() const { return gates_; }
  std::size_t net_count() const { return nets_.size(); }
  const Net& net_at(std::size_t i) const { return nets_.at(i).net; }
  const std::string& net_driver(std::size_t i) const {
    return nets_.at(i).driver;
  }
  const std::vector<std::string>& primary_inputs() const {
    return primary_inputs_;
  }

 private:
  struct NetInstance {
    std::string driver;
    Net net;
  };

  // Session mutates element values / topology in place (content-addressed
  // cache keys make explicit invalidation unnecessary); analyze_design is
  // the shared walk behind analyze().
  friend class Session;
  friend TimingReport detail::analyze_design(const Design&,
                                             const AnalysisOptions&,
                                             detail::StageCache*,
                                             std::vector<detail::StageHint>*);

  std::map<std::string, Gate> gates_;
  std::vector<NetInstance> nets_;
  std::vector<std::string> primary_inputs_;
};

}  // namespace awesim::timing
