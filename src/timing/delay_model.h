// The stage kernel of the timing engine and its Elmore fallback.
//
// The paper's pitch is AWE as *the* delay kernel inside a static timing
// analyzer: given this driver, this net, and this input slew, when does
// each sink switch and how fast?  evaluate_stage answers it the one way
// every workload runs -- the pre-flight lint, then one batch q-pole
// moment match over all of the net's sinks (core::Engine::approximate_all:
// one LU and 2q-1 substitutions per stage, auto-order escalation, the
// full degradation ladder), then threshold extraction.
//
// The only other answer is the single-pole Elmore estimate
// tau = (Rdrv + sum R) * (sum C): no linear solve, substituted when a
// stage cannot be evaluated (lint errors, a singular MNA, an injected
// fault, anything thrown), flagged degraded+failed with a StageFailed
// diagnostic so it never passes for a real answer.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "check/lint.h"
#include "core/diagnostic.h"
#include "core/stats.h"
#include "mna/system.h"
#include "timing/analyzer.h"

namespace awesim::timing {

/// What one stage evaluation hands back: the finished stage timing plus
/// the cost counters and (under a Session) the factorization/lint
/// artifacts the serial post-pass may cache.
struct StageEvaluation {
  StageTiming timing;
  core::Stats stats;
  std::shared_ptr<const mna::Solver> solver;  // set when capturing
  bool used_gmin = false;
  core::Diagnostics factor_diags;
  std::shared_ptr<const check::LintReport> lint;
};

namespace detail {

struct CachedFactorization;

/// Evaluate every sink of one stage with AWE at options.order.  Thread-
/// compatible: the analyzer calls it concurrently from the wavefront
/// pool, one stage per call, no shared mutable state.  The last three
/// parameters are the Session cache plumbing: `adopt` shares a cached
/// LU of a content-identical circuit, `capture` publishes this stage's
/// fresh LU and lint report in the result, and `lint_pre` replays a
/// cached lint report.  Anything thrown (including the `timing.stage`
/// fault probe) is the caller's to answer with elmore_fallback_stage.
StageEvaluation evaluate_stage(const Gate& driver, const Net& net,
                               const std::map<std::string, Gate>& gates,
                               const AnalysisOptions& options,
                               double input_arrival, double input_slew,
                               const CachedFactorization* adopt,
                               bool capture,
                               std::shared_ptr<const check::LintReport>
                                   lint_pre);

/// The lumped Elmore time constant tau = (Rdrv + sum |R|) * (sum |C| +
/// sum sink input caps) behind the fallback below.
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
