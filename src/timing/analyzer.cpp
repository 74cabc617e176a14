#include "timing/analyzer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "check/lint.h"
#include "core/cancel.h"
#include "core/fault.h"
#include "core/parallel.h"
#include "obs/trace.h"
#include "timing/delay_model.h"
#include "timing/design_graph.h"
#include "timing/graph.h"
#include "timing/stage_cache.h"

namespace awesim::timing {

void Design::add_gate(Gate gate) {
  if (gate.name.empty()) {
    throw std::invalid_argument("Design: gate with empty name");
  }
  const auto [it, inserted] = gates_.try_emplace(gate.name);
  if (!inserted) {
    throw std::invalid_argument("Design: duplicate gate '" + gate.name +
                                "'");
  }
  it->second = std::move(gate);
}

void Design::add_net(std::string driver, Net net) {
  if (gates_.count(driver) == 0) {
    throw std::invalid_argument("Design: unknown driver gate '" + driver +
                                "'");
  }
  nets_.push_back({std::move(driver), std::move(net)});
}

void Design::set_primary_input(const std::string& gate) {
  if (gates_.count(gate) == 0) {
    throw std::invalid_argument("Design: unknown gate '" + gate + "'");
  }
  primary_inputs_.push_back(gate);
}

TimingReport Design::analyze(const AnalysisOptions& options) const {
  return detail::analyze_design(*this, options, nullptr, nullptr);
}

namespace detail {

TimingReport analyze_design(const Design& design,
                            const AnalysisOptions& options,
                            StageCache* cache,
                            std::vector<StageHint>* hints) {
  const auto t_start = std::chrono::steady_clock::now();
  if (options.cancel != nullptr) options.cancel->check("timing.analyze");
  // Phase breakdown window: everything this analysis records, process-wide.
  // Concurrent analyses would fold into each other's windows; the span
  // *counts* stay a pure function of the work this call performed only
  // when analyses do not overlap (the documented usage).
  const obs::PhaseBreakdown phases_before = obs::snapshot();

  const auto& gates = design.gates_;
  const auto& nets = design.nets_;

  // Levelize the gate graph into wavefronts (design_graph.h): wave 0
  // holds the sources -- declared primary inputs, pinned to t = 0 even
  // if something drives them, and gates with no fan-in (conservative
  // t = 0 default) -- and every other gate lands one wave past its last
  // driver, so when a wave is evaluated all of its drivers' arrivals and
  // slews are final.  Waves list ascending ids (= name order) for
  // deterministic reduction.
  const GateGraph graph = GateGraph::build(design);
  const Levelization levels = levelize(graph);
  if (levels.unleveled > 0) {
    // An unleveled gate sits on or behind a loop of non-source gates,
    // so the loop list is never empty here.
    const std::vector<CyclePath> cycles = find_cycles(graph);
    core::Diagnostic diag;
    diag.code = core::DiagCode::CombinationalCycle;
    diag.severity = core::Severity::Fatal;
    diag.element = cycles.front().gates.front();
    diag.message =
        "combinational cycle: " + format_loop(cycles.front()) +
        (cycles.size() > 1
             ? " (+" + std::to_string(cycles.size() - 1) + " more loop(s))"
             : "");
    throw core::DiagnosticError(std::move(diag));
  }
  const auto& waves = levels.waves;

  // Per-gate wavefront state, indexed by gate id.  has_arrival keeps
  // first-writer semantics exact (NaN arrivals included).
  const std::size_t n = graph.size();
  std::vector<double> arrival(n, 0.0);
  std::vector<double> slew(n, 0.0);
  std::vector<char> has_arrival(n, 0);
  std::vector<std::size_t> predecessor(n, GateGraph::npos);

  TimingReport report;
  report.levels = waves.size();
  // Wave-0 gates switch at t = 0 with the primary-input slew; they are
  // the report's (name-sorted) source set.
  if (!waves.empty()) {
    for (const std::size_t g : waves.front()) {
      slew[g] = options.input_slew;
      has_arrival[g] = 1;
      report.source_gates.push_back(graph.name(g));
    }
  }

  struct StageJob {
    std::size_t net = 0;  // index into the Design's net list
    const Gate* driver = nullptr;
    double t_in = 0.0;
    double in_slew = 0.0;
  };
  struct Endpoint {
    double arrival = 0.0;
    std::string sink;
    std::size_t driver = 0;
  };
  std::optional<Endpoint> best_endpoint;

  // Started the first time a wave has two misses to evaluate: a warm
  // edit that recomputes one stage per wave, and a deep one-stage-per-
  // wave design, never pay for its threads.
  std::optional<core::ThreadPool> pool;

  for (const auto& wave : waves) {
    if (options.cancel != nullptr) options.cancel->check("timing.wave");
    // Gather this wavefront's stages; all inputs are final.
    std::vector<StageJob> jobs;
    for (const std::size_t g : wave) {
      for (const std::size_t net : graph.drives[g]) {
        jobs.push_back({net, &graph.gates[g]->second, arrival[g], slew[g]});
      }
    }
    if (jobs.empty()) continue;

    std::vector<StageEvaluation> outcomes(jobs.size());
    std::vector<char> served(jobs.size(), 0);
    std::vector<std::shared_ptr<const check::LintReport>> lint_pre;
    std::vector<core::Diagnostics> invalidation_diags;

    if (cache != nullptr) {
      // Serial cache pre-pass, in job order: every lookup (the stage
      // result key, then the lint report's content key for the misses)
      // happens here, before any parallel work, so hit/miss counters,
      // invalidations, and the served set are pure functions of the job
      // sequence -- identical for every thread count.
      AWESIM_TRACE_SPAN("session.lookup");
      lint_pre.resize(jobs.size());
      invalidation_diags.resize(jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const StageJob& job = jobs[i];
        // Key memo: the Session's per-net StageHint holds the serialized
        // key bytes of the previous analyze and the store entry they last
        // reached.  Serializing a kilo-element net's key, then comparing
        // it against the store's index, dominates a fully warm lookup, so
        // an unchanged net reuses both; a rebuilt key starts without an
        // entry.  The lookup itself still runs unconditionally
        // (checksums, counters, fault probes included).
        const Net& net = nets[job.net].net;
        StageHint& hint = (*hints)[job.net];
        std::uint64_t slew_bits = 0;
        std::memcpy(&slew_bits, &job.in_slew, sizeof slew_bits);
        if (!hint.keys_valid || hint.in_slew_bits != slew_bits) {
          hint.key = stage_result_key(*job.driver, net, gates, options,
                                      job.in_slew, &hint.content_size);
          hint.in_slew_bits = slew_bits;
          hint.keys_valid = true;
          hint.entry.reset();
        }
        auto hit = cache->lookup_stage(hint, net.name,
                                       &invalidation_diags[i]);
        if (hit) {
          // Rehydrate the stage-relative record against this job's
          // input arrival.  Cold evaluation computes arrival as
          // t_in + stage_delay with the same two operands, so the
          // replayed values are bitwise identical.
          StageEvaluation o;
          o.timing = std::move(*hit);
          o.timing.input_arrival = job.t_in;
          for (auto& s : o.timing.sinks) {
            s.arrival = job.t_in + s.stage_delay;
          }
          o.stats.stages = 1;
          o.stats.stages_reused = 1;
          o.stats.cache_hits = 1;
          outcomes[i] = std::move(o);
          served[i] = 1;
        } else {
          lint_pre[i] = cache->lookup_lint(hint.content_key());
        }
      }
    }

    // The stages this wave evaluates, in job order.
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!served[i]) misses.push_back(i);
    }

    // Budget accounting happens serially, before any parallel work:
    // one unit per stage this wave will actually evaluate (cache-served
    // stages are free), so a BudgetExceeded trip is a deterministic
    // function of the work sequence and fires before the wave starts.
    if (options.cancel != nullptr && !misses.empty()) {
      options.cancel->charge("timing.stage", misses.size());
    }

    // Evaluate the misses concurrently into per-stage slots.  Each job
    // is its own fault domain: anything thrown (singular MNA, injected
    // fault) is caught here, the stage degrades to the analytic Elmore
    // bound, and the rest of the wavefront proceeds untouched.  The
    // injection and the fallback are pure functions of the stage itself,
    // so the report stays bit-identical across thread counts.  The
    // deadline check sits *outside* the fault domain: a cancelled stage
    // must abort the analysis with its DeadlineExceeded record, not
    // degrade to an Elmore bound that looks like an answer.
    const auto evaluate = [&](std::size_t m) {
      if (options.cancel != nullptr) options.cancel->check("timing.stage");
      AWESIM_TRACE_SPAN("parallel.job");
      const std::size_t i = misses[m];
      const StageJob& job = jobs[i];
      const Net& net = nets[job.net].net;
      try {
        if (core::fault_at("parallel.job", net.name)) {
          throw core::DiagnosticError(
              {core::DiagCode::InjectedFault, core::Severity::Error,
               "injected thread-pool job fault", net.name});
        }
        outcomes[i] = detail::evaluate_stage(
            *job.driver, net, gates, options, job.t_in, job.in_slew,
            cache != nullptr ? lint_pre[i] : nullptr);
      } catch (const std::exception& e) {
        outcomes[i] = detail::elmore_fallback_stage(
            *job.driver, net, gates, job.t_in, job.in_slew,
            e.what());
      }
    };
    if (misses.size() > 1 && !pool) {
      pool.emplace(static_cast<std::size_t>(std::max(0, options.threads)));
    }
    if (pool) {
      pool->parallel_for(misses.size(), evaluate);
    } else if (!misses.empty()) {
      evaluate(0);  // one miss runs inline, as parallel_for(1) would
    }

    // ... then reduce serially in job order, so arrivals, predecessor
    // choices, stats sums, and cache insertions are identical for every
    // thread count.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      StageEvaluation& outcome = outcomes[i];
      if (cache != nullptr && !served[i]) {
        outcome.stats.stages_recomputed += 1;
        outcome.stats.cache_misses += 1;  // the stage-result lookup
        StageHint& hint = (*hints)[jobs[i].net];
        // Evictions are counted from this analysis's own inserts, so
        // analyses that overlap on one shared cache never count each
        // other's.
        if (outcome.lint) {
          // A lint report is a pure function of the circuit content, so
          // it is cached even for stages that lint-failed: warm re-runs
          // of a broken stage skip straight to the Elmore fallback.
          outcome.stats.cache_evictions +=
              cache->insert_lint(hint.content_key(), outcome.lint);
        }
        if (!outcome.timing.failed) {
          // Store the pure evaluation result in stage-relative form
          // (before any invalidation diagnostics of *this* run are
          // attached -- those describe a cache event, not the stage).
          // Failed stages are never cached: the Elmore bound is a
          // per-run fallback, recomputed deterministically.
          StageTiming relative = outcome.timing;
          relative.input_arrival = 0.0;
          for (auto& s : relative.sinks) s.arrival = s.stage_delay;
          outcome.stats.cache_evictions +=
              cache->insert_stage(hint, std::move(relative));
        }
        if (!invalidation_diags[i].empty()) {
          outcome.timing.diagnostics.insert(
              outcome.timing.diagnostics.begin(),
              invalidation_diags[i].begin(), invalidation_diags[i].end());
        }
      }
      outcome.lint.reset();

      report.awe_stats += outcome.stats;
      StageTiming& st = outcome.timing;
      if (st.failed) {
        ++report.failed_stages;
      } else if (st.degraded) {
        ++report.degraded_stages;
      }
      for (const auto& d : st.diagnostics) {
        report.diagnostics.push_back(d);
      }
      // A stage evaluation (or its fallback) emits one sink record per
      // sink_node entry, in sink_node order, so sink k is the graph's
      // sink id k.  A sink update never touches a source: its arrival
      // stays pinned at 0.
      const std::vector<std::size_t>& sink_ids =
          graph.net_sinks[jobs[i].net];
      const std::size_t driver = graph.net_driver[jobs[i].net];
      for (std::size_t k = 0; k < st.sinks.size(); ++k) {
        const SinkTiming& sink_t = st.sinks[k];
        const std::size_t g = sink_ids[k];
        if (g == GateGraph::npos) {
          // Design output endpoint.
          if (!best_endpoint || sink_t.arrival > best_endpoint->arrival) {
            best_endpoint = Endpoint{sink_t.arrival, sink_t.gate, driver};
          }
        } else if (graph.is_edge(g) &&
                   (!has_arrival[g] || sink_t.arrival > arrival[g])) {
          arrival[g] = sink_t.arrival;
          slew[g] = sink_t.slew;
          has_arrival[g] = 1;
          predecessor[g] = driver;
        }
      }
      report.stages.push_back(std::move(st));
    }
  }

  for (std::size_t g = 0; g < n; ++g) {
    if (has_arrival[g]) {
      report.gate_arrival.emplace_hint(report.gate_arrival.end(),
                                       graph.name(g), arrival[g]);
    }
  }
  // Predecessors sit in strictly earlier waves, so the walk ends.
  auto trace_path = [&](std::size_t from) {
    for (std::size_t g = from; g != GateGraph::npos; g = predecessor[g]) {
      report.critical_path.push_back(graph.name(g));
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  };
  if (best_endpoint) {
    report.critical_delay = best_endpoint->arrival;
    report.critical_path.push_back(best_endpoint->sink);
    trace_path(best_endpoint->driver);
  } else {
    // No design-output endpoint: the critical path ends at the
    // latest-arriving gate input (the first in name order on ties).
    std::size_t worst = GateGraph::npos;
    for (std::size_t g = 0; g < n; ++g) {
      if (has_arrival[g] &&
          (worst == GateGraph::npos || arrival[worst] < arrival[g])) {
        worst = g;
      }
    }
    if (worst != GateGraph::npos) {
      report.critical_delay = arrival[worst];
      trace_path(worst);
    }
  }
  // awe_stats covers the stage work; graph.build falls outside it.
  report.awe_stats.phases = obs::since(phases_before);

  // Backward pass: build the pin-level graph from the finished report,
  // fold its slack view into the report and keep it there for path
  // queries.  The graph re-propagates arrivals from arc delays (it does
  // not copy the map above), so this doubles as a built-in self-check;
  // tests make it a bitwise one.
  {
    GraphOptions gopt;
    gopt.required_time = options.required_time;
    auto pins =
        std::make_shared<const TimingGraph>(TimingGraph::build(report, gopt));
    // Gate input pins come in gate_arrival (name) order, so each slack
    // appends at the map's end.
    for (const TimingNode& node : pins->nodes()) {
      if (node.kind == PinKind::GateInput) {
        report.gate_slack.emplace_hint(report.gate_slack.end(), node.owner,
                                       node.slack);
      }
    }
    report.worst_slack = pins->worst_slack();
    report.worst_slack_endpoint = pins->worst_endpoint();
    report.graph = std::move(pins);
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  return report;
}

}  // namespace detail

}  // namespace awesim::timing
