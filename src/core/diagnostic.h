// Typed diagnostics for the guarded approximation pipeline.
//
// AWE is numerically fragile by construction: moment matching can turn up
// right-half-plane poles (Section 3.3 of the paper), the Hankel system of
// eq. 24 goes ill-conditioned as the order grows, and real netlists arrive
// with floating nodes and malformed cards.  Production timing flows must
// never abort a whole report over one bad net -- they degrade to a coarser
// bound and flag the result.  Every layer of the pipeline therefore
// *accumulates* Diagnostic records (what went wrong, where, how it was
// handled) instead of throwing bare std::runtime_error strings; the few
// genuinely unrecoverable failures throw DiagnosticError, which still
// carries the structured record.
//
// This header lives in the bottom-most library (awesim_diag) so that la,
// mna, netlist, core, and timing can all share one taxonomy.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace awesim::core {

/// What went wrong (or which fallback engaged).  Codes are stable API:
/// the README troubleshooting table maps each to causes and remedies.
enum class DiagCode {
  // Linear algebra / MNA formulation.
  SingularPivot,    // LU met an exactly singular pivot
  IllConditioned,   // condition/pivot-growth estimate beyond threshold
  FloatingNodes,    // nodes with no conductive path to ground
  GminFallback,     // singular G resolved by the gmin-to-ground retry
  // Moment matching / degradation ladder.
  UnstablePoles,    // eq. 24 window produced right-half-plane poles
  WindowShifted,    // Section 3.3 shifted pole window engaged
  OrderReduced,     // order stepped down (rank/conditioning/stability)
  ElmoreFallback,   // degraded to the q=1 Elmore (Penfield-Rubinstein) bound
  NonFiniteValue,   // NaN/Inf met in moments, residues, or results
  // Netlist front end.
  ParseError,       // malformed card, token, or directive
  ValidationError,  // structurally invalid circuit (dup names, bad values)
  // Static circuit lint (src/check, pre-flight electrical rule checks).
  FloatingIsland,   // nodes with no element path to ground at all
  InductorLoop,     // loop of only voltage-defined branches (V/L/E/H)
  CapacitorCutset,  // I-source cut off from ground by capacitors only
  ValueOutOfRange,  // negative/zero/NaN/Inf R, C, or L value
  SuspiciousValue,  // element value wildly outside its usual unit scale
  DanglingControl,  // controlled source senses an otherwise-unused node
  ControlCycle,     // controlled sources forming a dependency cycle
  TopologyNote,     // Info: structural classification (RC tree/mesh/RLC)
  // Timing analysis.
  StageDegraded,    // a stage answered with a degraded (flagged) estimate
  StageFailed,      // a stage could not be approximated; bound substituted
  CacheInvalidated, // a session cache entry failed verification; recomputed
  // Hierarchical reduction (src/reduce).
  ReductionFallback,          // a net could not be reduced; analyzed flat
  ReductionToleranceExceeded, // macromodel failed moment verification; flat
  // Design-scope static audit (src/audit, graph/conditioning/repetition).
  CombinationalCycle, // gate loop; levelization impossible (full loop path)
  UndrivenEndpoint,   // gate input pin reachable from no primary input
  DeadLogic,          // gate driving no sink, no PO role: result unused
  FanoutExplosion,    // net fanout beyond the configured threshold
  ReconvergentFanout, // deep reconvergence; path-count blowup warning
  ConditioningHazard, // static oracle predicts AWE instability at high order
  RepeatedStructure,  // Info: nets sharing one reduction-store entry
  NearDuplicate,      // nets identical up to one value; missed sharing
  // Request lifecycle (timing-as-a-service; see src/serve and
  // core/cancel.h).  These describe the *request*, never the design:
  // a deadline-exceeded analysis left no partial results behind.
  DeadlineExceeded, // cooperative cancellation: wall-clock deadline hit
  BudgetExceeded,   // cooperative cancellation: work budget exhausted
  InvalidRequest,   // malformed/unknown service request or parameters
  ServerOverloaded, // admission queue full / in-flight limit; retry later
  InternalError,    // unexpected failure surfaced as a structured response
  // Test harness.
  InjectedFault,    // a FaultInjector rule fired here
};

enum class Severity {
  Info,     // a fallback engaged; the answer is still a matched model
  Warning,  // the answer is a coarser bound (Elmore / analytic)
  Error,    // this item failed; the surrounding analysis continued
  Fatal,    // nothing could be produced; thrown as DiagnosticError
};

const char* to_string(DiagCode code);
const char* to_string(Severity severity);

/// One structured diagnostic record.  Fields that do not apply stay at
/// their defaults (empty strings, zero line, negative condition).
struct Diagnostic {
  DiagCode code = DiagCode::SingularPivot;
  Severity severity = Severity::Info;

  /// Human-readable description of this specific occurrence.
  std::string message;

  /// Offending circuit element or net name, when known.
  std::string element;

  /// Offending node name(s), comma-separated, when known.
  std::string node;

  /// Source location for netlist-derived diagnostics (1-based; 0 = n/a).
  std::string file;
  std::size_t line = 0;
  std::size_t column = 0;

  /// Condition-number / pivot-growth estimate that triggered the
  /// diagnostic; negative when not applicable.
  double condition_estimate = -1.0;

  /// "severity code: message [element ...] [node(s) ...] [file:line:col]".
  std::string to_string() const;
};

using Diagnostics = std::vector<Diagnostic>;

/// Render a whole list, one record per line.
std::string to_string(const Diagnostics& diags);

/// Count records at or above a severity.
std::size_t count_at_least(const Diagnostics& diags, Severity severity);

/// An unrecoverable failure that still carries its structured record.
/// Thrown only when a layer has nothing at all to answer with; callers
/// higher up (the timing analyzer) catch it and substitute a bound.
class DiagnosticError : public std::runtime_error {
 public:
  explicit DiagnosticError(Diagnostic diag)
      : std::runtime_error(diag.to_string()), diag_(std::move(diag)) {}

  const Diagnostic& diagnostic() const { return diag_; }

 private:
  Diagnostic diag_;
};

}  // namespace awesim::core
