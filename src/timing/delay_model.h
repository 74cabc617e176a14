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
#include "timing/analyzer.h"

namespace awesim::timing {

/// What one stage evaluation hands back: the finished stage timing, the
/// cost counters, and the lint report this call computed (null when it
/// replayed a cached one), which a Session's serial post-pass caches.
struct StageEvaluation {
  StageTiming timing;
  core::Stats stats;
  std::shared_ptr<const check::LintReport> lint;
};

namespace detail {

/// Evaluate every sink of one stage with AWE at options.order.  Thread-
/// compatible: the analyzer calls it concurrently from the wavefront
/// pool, one stage per call, no shared mutable state.  Every call
/// factors the stage's G once; `lint_pre` (Session only) replays a
/// cached lint report instead of linting again.  Anything thrown
/// (including the `timing.stage` fault probe) is the caller's to answer
/// with elmore_fallback_stage.
StageEvaluation evaluate_stage(const Gate& driver, const Net& net,
                               const std::map<std::string, Gate>& gates,
                               const AnalysisOptions& options,
                               double input_arrival, double input_slew,
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
