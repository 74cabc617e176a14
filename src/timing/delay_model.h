// The pluggable delay-model seam of the timing engine.
//
// The paper's pitch is AWE as *the* delay kernel inside a static timing
// analyzer, but a production analyzer never has exactly one kernel: fast
// bounds for pruning, table models for characterized cells, low-order
// analytic models for estimation, and the full moment-matching engine for
// signoff all answer the same question -- "given this driver, this net,
// and this input slew, when does each sink switch and how fast?".  This
// header makes that question a first-class interface so stages, graph
// arcs, paths, and reports are model-agnostic.
//
// Four built-in models:
//
//   * Awe        -- the paper's q-pole moment-matching engine
//                   (core::Engine batch solve, auto-order escalation,
//                   the full degradation ladder).  This is the model the
//                   legacy analyzer always used; its numbers are
//                   bit-identical to the pre-seam analyzer by
//                   construction (the code moved, it did not change).
//   * ElmoreBound-- the lumped first-order bound
//                   tau = (Rdrv + sum R) * (sum C): no linear solve,
//                   pessimistic by construction on RC trees.  The same
//                   arithmetic doubles as the analyzer's last-resort
//                   fallback when a stage evaluation throws.
//   * TwoPole    -- Penfield-Rubinstein-style two-pole moment match: the
//                   AWE machinery pinned at q = 2, no auto-order
//                   escalation.  The classic middle ground between the
//                   Elmore bound and full AWE.
//   * TableLookup-- characterized lookup table: delay and output slew
//                   interpolated from a precomputed grid over the
//                   normalized slew/tau ratio (the shape of an NLDM cell
//                   table, collapsed to its scale-free axis).  No matrix
//                   assembly at all.
//
// Engine-backed models (Awe, TwoPole) participate in the Session's
// content-addressed LU sharing and pre-flight lint caching; arithmetic
// models (ElmoreBound, TableLookup) never touch a matrix, so the
// analyzer skips that plumbing for them.  The model kind is part of the
// stage-result cache key (see stage_cache.cpp), so one Session can serve
// interleaved queries under different models without cross-talk.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/lint.h"
#include "core/diagnostic.h"
#include "core/stats.h"
#include "mna/system.h"
#include "timing/analyzer.h"

namespace awesim::timing {

namespace detail {
struct CachedFactorization;
}

/// Everything one stage evaluation depends on, by reference.  The
/// adopt/capture/lint_pre fields are the Session cache plumbing; they are
/// meaningful only for models where `uses_engine()` is true.
struct StageProblem {
  const Gate* driver = nullptr;
  const Net* net = nullptr;
  const std::map<std::string, Gate>* gates = nullptr;
  const AnalysisOptions* options = nullptr;
  double input_arrival = 0.0;
  double input_slew = 0.0;
  const detail::CachedFactorization* adopt = nullptr;
  bool capture_factorization = false;
  std::shared_ptr<const check::LintReport> lint_pre;
};

/// What a model hands back: the finished stage timing plus the cost
/// counters and (for engine-backed models under a Session) the
/// factorization/lint artifacts the serial post-pass may cache.
struct StageEvaluation {
  StageTiming timing;
  core::Stats stats;
  std::shared_ptr<const mna::Solver> solver;  // set when capturing
  bool used_gmin = false;
  core::Diagnostics factor_diags;
  std::shared_ptr<const check::LintReport> lint;
};

class DelayModel {
 public:
  virtual ~DelayModel() = default;

  virtual DelayModelKind kind() const = 0;

  /// Stable machine name ("awe", "elmore", "two_pole", "table").
  virtual const char* name() const = 0;

  /// True when the model assembles MNA matrices (and therefore wants the
  /// pre-flight lint, LU adoption, and factorization capture).
  virtual bool uses_engine() const = 0;

  /// Evaluate every sink of one stage.  Must be thread-compatible: the
  /// analyzer calls concurrently from the wavefront pool, one problem
  /// per call, no shared mutable state.  Anything thrown is caught by
  /// the analyzer and answered with the Elmore fallback.
  virtual StageEvaluation evaluate(const StageProblem& problem) const = 0;
};

/// The process-wide instance for a built-in kind.  Models are stateless
/// (the table model's grid is computed once, up front), so singletons
/// are safe to share across threads and sessions.
const DelayModel& delay_model(DelayModelKind kind);

namespace detail {

/// The lumped Elmore time constant tau = (Rdrv + sum |R|) * (sum |C| +
/// sum sink input caps) -- shared by the ElmoreBound model and the
/// analyzer's evaluation-failure fallback so the two are the same
/// arithmetic by construction.
double lumped_elmore_tau(const Gate& driver, const Net& net,
                         const std::map<std::string, Gate>& gates);

/// The analyzer's last-resort stage estimate when evaluation itself is
/// dead (singular MNA, injected fault, anything thrown): the lumped
/// Elmore bound, flagged degraded+failed with a StageFailed diagnostic.
StageEvaluation elmore_fallback_stage(const Gate& driver, const Net& net,
                                      const std::map<std::string, Gate>& gates,
                                      double input_arrival, double input_slew,
                                      const std::string& reason);

}  // namespace detail

}  // namespace awesim::timing
