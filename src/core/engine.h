// The AWE engine: the public entry point of the library.
//
// Given a linear circuit with arbitrary initial conditions and
// step/ramp/PWL stimuli, produce a q-pole approximation of any node
// voltage, exactly as Sections III-V of the paper describe:
//
//   * the stimulus is decomposed into step+ramp "atoms" (Section 4.3's
//     superposition of ramps, generalized to arbitrary PWL inputs);
//   * each atom's particular (affine) solution is found by DC analysis,
//     the homogeneous remainder's moments are generated with one shared
//     LU factorization, and a q-pole model is matched to them;
//   * the accuracy of order q is estimated against order q+1 (eq. 39),
//     and in auto-order mode q is escalated until the estimate passes the
//     tolerance or poles stop being stable (Sections 3.3/3.4);
//   * when the eq. 24 window yields an unstable model (positive pole,
//     Section 3.3), the match is always retried with the pole window
//     shifted to pure moments (MatchOptions::pole_shift) before order
//     escalation or the degradation ladder.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/diagnostic.h"
#include "core/moments.h"
#include "core/pade.h"
#include "core/stats.h"
#include "mna/system.h"
#include "waveform/waveform.h"

namespace awesim::core {

struct EngineOptions {
  /// Approximation order q (number of poles per atom).
  int order = 2;

  /// If true, start at `order` and escalate until the error estimate is
  /// below `error_tolerance` (or `max_order` is reached).  Instability of
  /// any atom also forces escalation, per Section 3.3.
  bool auto_order = false;
  double error_tolerance = 0.02;
  int max_order = 8;

  /// eq. 47 frequency scaling (ablatable).
  bool frequency_scaling = true;

  /// Additionally match mu_{-2} (the t=0+ slope), Section 4.3.  Uses one
  /// moment window position lower; removes the initial-slope glitch of
  /// ramp responses at the cost of one high-order moment.
  bool match_initial_slope = false;

  /// Replace mu_{-1} with the sigma-limit consistent initial value when
  /// the response jumps at t=0+ (capacitively coupled outputs).  Atoms
  /// that cannot jump (Engine::atom_consistent) skip the sigma-limit.
  bool jump_consistent = true;

  /// Use the paper's Cauchy-inequality error bound instead of the exact
  /// closed-form eq. 39 evaluation.
  bool cauchy_error_bound = false;

  /// Compute the q-vs-(q+1) error estimate.  Disable to measure the bare
  /// approximation cost (the Fig. 19 / speedup benches); implies
  /// Result::error_estimate is NaN and auto_order is unavailable.
  bool estimate_error = true;

  /// Run the src/check static lint pipeline over the circuit before the
  /// first approximation this engine performs (memoized: one lint per
  /// Engine, whatever the number of approximate calls).  Error-severity
  /// findings -- voltage-source/inductor loops, current sources cut off
  /// by capacitors, islands driven by sources, nonphysical values --
  /// would otherwise surface as a SingularPivot deep inside the LU with
  /// nothing but matrix indices; with the pre-flight they throw
  /// DiagnosticError carrying the first lint record (element names,
  /// node names, netlist file:line:column).  Warnings never block; they
  /// are tallied into Stats::lint_warnings only.
  ///
  /// This is the documented escape hatch: set false when the caller has
  /// already linted the circuit (the timing analyzer pre-flights each
  /// stage itself and passes false here), or when deliberately feeding
  /// pathological circuits to study raw behavior (the Fig. 20/21
  /// instability benches).
  bool preflight_lint = true;

  /// Walk the degradation ladder instead of returning an unstable model:
  /// when the eq. 24 window and the Section 3.3 shifted window both fail
  /// (and auto-order escalation, if enabled, is exhausted), step the
  /// order down q-1, ..., 1 and finally fall back to the flagged Elmore
  /// bound.  Result::status records how far down the ladder the answer
  /// came from.  Disable to study raw instability (the Fig. 20/21
  /// benches).
  bool degrade = true;
};

/// How far down the degradation ladder a Result had to go.  Ordered by
/// increasing severity; a multi-atom result reports its worst rung.
enum class ApproxStatus {
  Ok = 0,          // matched at the requested (or auto-escalated) order
  WindowShifted,   // Section 3.3 shifted pole window engaged
  OrderReduced,    // stepped down below the requested order for stability
  ElmoreFallback,  // answered with the flagged single-pole Elmore bound
  Failed,          // no transient model at all; affine (DC) part only
};

const char* to_string(ApproxStatus status);

/// The q-pole response model of one stimulus atom starting at
/// `start_time`: for t >= start_time (local time T = t - start_time),
///   v(T) = affine_offset + affine_slope*T + sum terms(T).
struct AtomApproximation {
  double start_time = 0.0;
  double affine_offset = 0.0;
  double affine_slope = 0.0;
  std::vector<PoleResidueTerm> terms;
  MatchResult match;  // diagnostics of the moment match
};

/// A complete waveform approximation: the superposition of all atoms.
class Approximation {
 public:
  double value(double t) const;

  /// Final value (t -> inf); requires all atoms stable and no residual
  /// ramp.  Matches the exact DC answer by construction (m_0 matching).
  double final_value() const;

  bool stable() const;

  /// First crossing of `level` in [t0, t1], located by dense scan plus
  /// bisection; nullopt if never crossed.  Handles nonmonotone waveforms.
  std::optional<double> first_crossing(double level, double t0,
                                       double t1) const;

  /// first_crossing for several levels at once: one scan of the same
  /// grid serves every level, each refined by the same bisection, so
  /// result k is bitwise first_crossing(levels[k], t0, t1).  For term
  /// sets of real, stable, simple poles the scan skips grid points a
  /// bound proves cannot cross an open level (DESIGN.md §17); the
  /// answer is bitwise that of the full 4096-point scan.
  std::vector<std::optional<double>> first_crossings(
      std::span<const double> levels, double t0, double t1) const;

  /// Sample into a Waveform for plotting/comparison.
  waveform::Waveform sample(double t0, double t1, std::size_t count) const;

  const std::vector<AtomApproximation>& atoms() const { return atoms_; }
  std::vector<AtomApproximation>& atoms() { return atoms_; }

  /// A time scale for plotting: slowest |1/Re(pole)| over all atoms
  /// (0 if there are no terms).
  double dominant_time_constant() const;

  /// Exact closed-form integral  int_0^inf (v(t) - final_value()) dt.
  /// The homogeneous parts integrate to their matched mu_0 moments; the
  /// transient part of the affine superposition (nonzero only between
  /// stimulus breakpoints) integrates exactly as a piecewise-linear
  /// function.  For a unit step response this is minus the Elmore delay;
  /// for a victim noise bump (final value 0) it is the transferred
  /// charge's voltage-time area, exact by construction (Fig. 24).
  /// Requires a finite final value (no unbounded ramp) and stable atoms.
  double settling_area() const;

 private:
  std::vector<AtomApproximation> atoms_;
  friend class Engine;
};

struct Result {
  Approximation approximation;

  /// Largest order actually used across atoms.
  int order_used = 0;
  bool stable = true;

  /// Relative error estimate of order q vs order q+1 (eq. 39), maximized
  /// over atoms; NaN if not computable (unstable q+1 model).
  double error_estimate = 0.0;

  /// Moment sequence mu_{-1}..mu_{2q} of the first atom at the output
  /// (for tables and for the Elmore value mu_0).
  std::vector<double> output_moments;

  /// True if the gmin floating-node fallback engaged.
  bool used_gmin = false;

  /// Worst degradation-ladder rung over all atoms of this output.
  ApproxStatus status = ApproxStatus::Ok;

  /// Structured record of every fallback that fired for this output
  /// (window shifts, order step-downs, Elmore/gmin fallbacks, injected
  /// faults), in the order they were met.
  core::Diagnostics diagnostics;
};

/// The result of one approximate_all call: per-output approximations in
/// request order plus the shared cost diagnostics of the whole batch.
struct BatchResult {
  std::vector<Result> results;

  /// Engine-phase counters for this batch only (the circuit-level work
  /// -- LU factorization, particular solutions, moment vectors -- is
  /// done once and shared by every output).
  Stats stats;
};

class Engine {
 public:
  explicit Engine(const circuit::Circuit& ckt, mna::Options mna = {});

  /// Approximate the voltage at `output` (a non-ground node).
  Result approximate(circuit::NodeId output, const EngineOptions& options);

  /// Approximate several outputs of the same circuit at once.  The atom
  /// problems and full-state moment vectors are output-independent, so
  /// they are built exactly once (one LU factorization, one multi-RHS
  /// moment recursion); per output only the cheap Hankel/root/
  /// Vandermonde match runs.  Results are bitwise identical to calling
  /// approximate() per output, in request order.
  BatchResult approximate_all(std::span<const circuit::NodeId> outputs,
                              const EngineOptions& options);

  /// Cumulative cost counters over the life of this engine.
  const Stats& stats() const { return stats_; }

  /// The circuit's exact natural frequencies (dense eigenvalue solve;
  /// for Tables I/II style comparisons, not for the timing path).
  la::ComplexVector actual_poles() const;

  /// Elmore delay at a node: -mu_0 of the unit-step transient normalized
  /// by the step amplitude.  Defined for any circuit with a DC path; for
  /// RC trees equals the classic tree-walk value (eq. 50).
  double elmore_delay(circuit::NodeId output);

  const mna::MnaSystem& system() const { return mna_; }

  /// The stimulus atoms, in start-time order (built on first use).
  /// atom_consistent(i) is true when atom i's x_h0 is the consistent
  /// x_h(0+) by construction -- no value jump, no initial-condition
  /// deviation, index-1 structure (check::index_one_structure) -- so the
  /// sigma-limit jump test is skipped for it.  atom_moments exposes the
  /// atom's moment sequence, sigma-limit included, to prove that rule.
  ///
  /// atom_mirror(i) names the earlier atom whose x_b, x_a and x_h0 are
  /// the exact negation of atom i's, with the same consistency flag (a
  /// ramp's t_r atom mirrors its t = 0 atom: Section 4.3's superposition
  /// of one source response).  A mirror's moments are that atom's
  /// negated, so the engine never advances them: its match is the
  /// source's with residues negated.  atom_moments(i) still computes a
  /// mirror's sequence on demand, for tests to compare.
  std::size_t atom_count();
  bool atom_consistent(std::size_t atom);
  std::optional<std::size_t> atom_mirror(std::size_t atom);
  MomentSequence& atom_moments(std::size_t atom);

 private:
  struct AtomProblem {
    double start_time = 0.0;
    la::RealVector particular_offset;  // x_b
    la::RealVector particular_slope;   // x_a
    MomentSequence moments;
    bool consistent = false;  // see atom_consistent()
    std::optional<std::size_t> mirror_of;  // see atom_mirror()
  };

  struct LadderOutcome {
    MatchResult match;
    ApproxStatus status = ApproxStatus::Ok;
  };

  std::vector<AtomProblem>& atom_problems();
  const la::RealVector& equilibrium();
  void preflight(const EngineOptions& options);
  Result approximate_at(std::size_t out, const EngineOptions& options);
  MatchResult attempt_order(const std::vector<double>& mu, int j0, int qq,
                            const EngineOptions& options,
                            core::Diagnostics* diags);
  LadderOutcome match_with_ladder(const std::vector<double>& mu, int j0,
                                  int q, const EngineOptions& options,
                                  bool allow_degrade,
                                  const std::string& node_name,
                                  core::Diagnostics* diags);
  void sync_mna_stats();

  mna::MnaSystem mna_;
  std::vector<AtomProblem> atoms_;
  bool atoms_built_ = false;
  bool lint_done_ = false;
  std::optional<la::RealVector> x_eq_;
  Stats stats_;
};

}  // namespace awesim::core
