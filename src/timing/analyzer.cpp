#include "timing/analyzer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
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

namespace {

// One stage evaluated in isolation through the pluggable delay-model
// seam (timing/delay_model.h): everything model-side is thread-local,
// so stages of one wavefront can run concurrently.  The analyzer keeps
// only the cross-cutting concerns here -- the trace span and the
// deterministic fault probe -- and the selected model does the physics.
// When a Session cache is attached, engine-backed models also hand back
// the circuit's G factorization so the serial post-pass can publish it
// for content-identical re-analyses.
StageEvaluation evaluate_stage(
    const Gate& driver, const Net& net,
    const std::map<std::string, Gate>& gates,
    const AnalysisOptions& options, double t_in, double in_slew,
    const detail::CachedFactorization* adopt, bool capture_factorization,
    std::shared_ptr<const check::LintReport> lint_pre) {
  AWESIM_TRACE_SPAN("timing.stage");
  if (core::fault_at("timing.stage", net.name)) {
    throw core::DiagnosticError(
        {core::DiagCode::InjectedFault, core::Severity::Error,
         "injected stage evaluation fault", net.name});
  }
  StageProblem problem;
  problem.driver = &driver;
  problem.net = &net;
  problem.gates = &gates;
  problem.options = &options;
  problem.input_arrival = t_in;
  problem.input_slew = in_slew;
  problem.adopt = adopt;
  problem.capture_factorization = capture_factorization;
  problem.lint_pre = std::move(lint_pre);
  return delay_model(options.delay_model).evaluate(problem);
}

}  // namespace

TimingReport Design::analyze(const AnalysisOptions& options) const {
  return detail::analyze_design(*this, options, nullptr);
}

namespace detail {

TimingReport analyze_design(const Design& design,
                            const AnalysisOptions& options,
                            StageCache* cache,
                            std::vector<StageHint>* hints) {
  const auto t_start = std::chrono::steady_clock::now();
  if (options.cancel != nullptr) options.cancel->check("timing.analyze");
  // Eviction window: StageCache counters are cumulative over the cache's
  // lifetime; the report carries only the evictions this analysis caused.
  const std::uint64_t evictions_before =
      cache != nullptr ? cache->counters().evictions : 0;
  // Phase breakdown window: everything this analysis records, process-wide.
  // Concurrent analyses would fold into each other's windows; the span
  // *counts* stay a pure function of the work this call performed only
  // when analyses do not overlap (the documented usage).
  const obs::PhaseBreakdown phases_before = obs::snapshot();

  const auto& gates = design.gates_;
  const auto& nets = design.nets_;

  // Stage dependency bookkeeping: a net's sinks depend on its driver.
  std::map<std::string, std::vector<const Design::NetInstance*>> driven_by;
  std::map<std::string, int> fanin_count;
  for (const auto& [name, gate] : gates) fanin_count[name] = 0;
  for (const auto& ni : nets) {
    driven_by[ni.driver].push_back(&ni);
    for (const auto& [sink, node] : ni.net.sink_node) {
      if (gates.count(sink) > 0) ++fanin_count[sink];
    }
  }

  std::map<std::string, double> arrival;
  std::map<std::string, double> slew;
  std::map<std::string, std::string> predecessor;

  // Kahn levelization into wavefronts.  Wave 0 holds the sources:
  // declared primary inputs (whose stage inputs are pinned to t = 0 even
  // if something drives them) and gates with no fan-in (conservative
  // t = 0 default).  Every other gate lands one wave past its last
  // driver, so when a wave is evaluated all of its drivers' arrivals and
  // slews are final.  Waves are name-sorted for deterministic reduction.
  std::map<std::string, int> remaining = fanin_count;
  for (const auto& pi : design.primary_inputs_) remaining[pi] = 0;
  std::vector<std::vector<std::string>> waves;
  std::size_t leveled = 0;
  {
    std::vector<std::string> frontier;
    for (const auto& [name, count] : remaining) {
      if (count == 0) frontier.push_back(name);
    }
    while (!frontier.empty()) {
      leveled += frontier.size();
      std::set<std::string> next;
      for (const auto& gate_name : frontier) {
        const auto it = driven_by.find(gate_name);
        if (it == driven_by.end()) continue;
        for (const Design::NetInstance* ni : it->second) {
          for (const auto& [sink, node] : ni->net.sink_node) {
            if (gates.count(sink) > 0 && --remaining[sink] == 0) {
              next.insert(sink);
            }
          }
        }
      }
      waves.push_back(std::move(frontier));
      frontier.assign(next.begin(), next.end());
    }
  }
  if (leveled < gates.size()) {
    // Some gate never became ready: combinational cycle (or a sink whose
    // fan-in never resolves).  The pre-flight audit names the loop.
    if (options.preflight_audit) {
      const GraphFindings findings = audit_graph(design);
      core::Diagnostic diag;
      diag.code = core::DiagCode::CombinationalCycle;
      diag.severity = core::Severity::Fatal;
      if (!findings.cycles.empty()) {
        const CyclePath& cycle = findings.cycles.front();
        std::string path;
        for (const std::string& gate : cycle.gates) {
          if (!path.empty()) path += " -> ";
          path += gate;
        }
        path += " -> " + cycle.gates.front();
        diag.element = cycle.gates.front();
        diag.message = "combinational cycle: " + path +
                       (findings.cycles.size() > 1
                            ? " (+" +
                                  std::to_string(findings.cycles.size() - 1) +
                                  " more loop(s))"
                            : "");
      } else {
        diag.message =
            "unreachable gates detected (fan-in never resolves): " +
            std::to_string(gates.size() - leveled) + " gate(s) unleveled";
      }
      throw core::DiagnosticError(std::move(diag));
    }
    throw std::invalid_argument(
        "Design: combinational cycle or unreachable gates detected");
  }

  // Wave-0 gates switch at t = 0 with the primary-input slew.
  if (!waves.empty()) {
    for (const auto& name : waves.front()) {
      arrival[name] = 0.0;
      slew[name] = options.input_slew;
    }
  }

  TimingReport report;
  report.levels = waves.size();
  // Wave 0 is the graph's source set: these pins are pinned to t = 0
  // even if something feeds them (declared primary inputs).  Name-sorted
  // already -- the frontier came out of a sorted map.
  if (!waves.empty()) report.source_gates = waves.front();

  // Engine-backed models (AWE, two-pole) want the LU/lint content-cache
  // plumbing; arithmetic models (Elmore bound, table) never factor a
  // matrix, so that plumbing -- and its hit/miss accounting -- is
  // skipped for them.
  const bool engine_model = delay_model(options.delay_model).uses_engine();

  struct StageJob {
    const Design::NetInstance* net = nullptr;
    const Gate* driver = nullptr;
    double t_in = 0.0;
    double in_slew = 0.0;
  };
  struct Endpoint {
    double arrival = 0.0;
    std::string sink;
    std::string driver;
  };
  std::optional<Endpoint> best_endpoint;

  core::ThreadPool pool(
      static_cast<std::size_t>(std::max(0, options.threads)));

  for (const auto& wave : waves) {
    if (options.cancel != nullptr) options.cancel->check("timing.wave");
    // Gather this wavefront's stages; all inputs are final.
    std::vector<StageJob> jobs;
    for (const auto& gate_name : wave) {
      const auto it = driven_by.find(gate_name);
      if (it == driven_by.end()) continue;  // endpoint gate
      for (const Design::NetInstance* ni : it->second) {
        jobs.push_back({ni, &gates.at(gate_name), arrival.at(gate_name),
                        slew.at(gate_name)});
      }
    }
    if (jobs.empty()) continue;

    std::vector<StageEvaluation> outcomes(jobs.size());
    std::vector<char> served(jobs.size(), 0);
    std::vector<std::string> result_keys;
    std::vector<std::string> content_keys;
    std::vector<const std::string*> rkey;
    std::vector<const std::string*> ckey;
    std::vector<std::shared_ptr<const CachedFactorization>> adopt;
    std::vector<std::shared_ptr<const check::LintReport>> lint_pre;
    std::vector<core::Diagnostics> invalidation_diags;

    if (cache != nullptr) {
      // Serial cache pre-pass, in job order: every lookup (stage result
      // keys, then LU content keys for the misses) happens here, before
      // any parallel work, so hit/miss counters, invalidations, and the
      // served set are pure functions of the job sequence -- identical
      // for every thread count.
      result_keys.resize(jobs.size());
      content_keys.resize(jobs.size());
      rkey.resize(jobs.size(), nullptr);
      ckey.resize(jobs.size(), nullptr);
      adopt.resize(jobs.size());
      lint_pre.resize(jobs.size());
      invalidation_diags.resize(jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const StageJob& job = jobs[i];
        // Key memo: a Session hands per-net StageHint slots holding the
        // serialized key bytes of the previous analyze.  Serializing a
        // kilo-element net's key dominates a fully warm lookup, so an
        // unchanged net reuses the bytes; the lookups below still run
        // unconditionally (checksums, counters, fault probes included).
        StageHint* hint = nullptr;
        if (hints != nullptr) {
          const auto net_idx =
              static_cast<std::size_t>(job.net - nets.data());
          if (net_idx < hints->size()) hint = &(*hints)[net_idx];
        }
        if (hint != nullptr) {
          std::uint64_t slew_bits = 0;
          std::memcpy(&slew_bits, &job.in_slew, sizeof slew_bits);
          if (!hint->keys_valid || hint->in_slew_bits != slew_bits) {
            hint->result_key = stage_result_key(*job.driver, job.net->net,
                                                gates, options, job.in_slew);
            hint->content_key =
                stage_content_key(*job.driver, job.net->net, gates);
            hint->in_slew_bits = slew_bits;
            hint->keys_valid = true;
          }
          rkey[i] = &hint->result_key;
          ckey[i] = &hint->content_key;
        } else {
          result_keys[i] = stage_result_key(*job.driver, job.net->net,
                                            gates, options, job.in_slew);
          rkey[i] = &result_keys[i];
        }
        auto hit = cache->lookup_stage(*rkey[i], job.net->net.name,
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
        } else if (engine_model) {
          if (ckey[i] == nullptr) {
            content_keys[i] = stage_content_key(*job.driver, job.net->net,
                                                gates);
            ckey[i] = &content_keys[i];
          }
          adopt[i] = cache->lookup_factorization(*ckey[i]);
          if (options.preflight_lint) {
            lint_pre[i] = cache->lookup_lint(*ckey[i]);
          }
        }
      }
    }

    // Budget accounting happens serially, before any parallel work:
    // one unit per stage this wave will actually evaluate (cache-served
    // stages are free), so a BudgetExceeded trip is a deterministic
    // function of the work sequence and fires before the wave starts.
    if (options.cancel != nullptr) {
      std::uint64_t evals = 0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!served[i]) ++evals;
      }
      if (evals > 0) options.cancel->charge("timing.stage", evals);
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
    pool.parallel_for(jobs.size(), [&](std::size_t i) {
      if (served[i]) return;
      if (options.cancel != nullptr) options.cancel->check("timing.stage");
      AWESIM_TRACE_SPAN("parallel.job");
      const StageJob& job = jobs[i];
      try {
        if (core::fault_at("parallel.job", job.net->net.name)) {
          throw core::DiagnosticError(
              {core::DiagCode::InjectedFault, core::Severity::Error,
               "injected thread-pool job fault", job.net->net.name});
        }
        outcomes[i] = evaluate_stage(
            *job.driver, job.net->net, gates, options, job.t_in,
            job.in_slew, cache != nullptr ? adopt[i].get() : nullptr,
            cache != nullptr,
            cache != nullptr ? lint_pre[i] : nullptr);
      } catch (const std::exception& e) {
        outcomes[i] = detail::elmore_fallback_stage(
            *job.driver, job.net->net, gates, job.t_in, job.in_slew,
            e.what());
      }
    });

    // ... then reduce serially in job order, so arrivals, predecessor
    // choices, stats sums, and cache insertions are identical for every
    // thread count.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      StageEvaluation& outcome = outcomes[i];
      if (cache != nullptr && !served[i]) {
        outcome.stats.stages_recomputed += 1;
        outcome.stats.cache_misses += 1;  // the stage-result lookup
        if (engine_model) {
          if (adopt[i]) {
            outcome.stats.cache_hits += 1;  // the LU content-key lookup
          } else {
            outcome.stats.cache_misses += 1;
          }
        }
        if (outcome.lint) {
          // A lint report is a pure function of the circuit content, so
          // it is cached even for stages that lint-failed: warm re-runs
          // of a broken stage skip straight to the Elmore fallback.
          cache->insert_lint(*ckey[i], outcome.lint);
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
          cache->insert_stage(*rkey[i], std::move(relative));
          if (!adopt[i] && outcome.solver) {
            cache->insert_factorization(
                *ckey[i],
                {outcome.solver, outcome.used_gmin,
                 outcome.factor_diags});
          }
        }
        if (!invalidation_diags[i].empty()) {
          outcome.timing.diagnostics.insert(
              outcome.timing.diagnostics.begin(),
              invalidation_diags[i].begin(), invalidation_diags[i].end());
        }
      }
      outcome.solver.reset();
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
      for (const auto& sink_t : st.sinks) {
        if (gates.count(sink_t.gate) > 0) {
          const bool improves = arrival.count(sink_t.gate) == 0 ||
                                sink_t.arrival > arrival[sink_t.gate];
          if (improves) {
            arrival[sink_t.gate] = sink_t.arrival;
            slew[sink_t.gate] = sink_t.slew;
            predecessor[sink_t.gate] = st.driver_gate;
          }
        } else if (!best_endpoint ||
                   sink_t.arrival > best_endpoint->arrival) {
          // Design output endpoint.
          best_endpoint = Endpoint{sink_t.arrival, sink_t.gate,
                                   st.driver_gate};
        }
      }
      report.stages.push_back(std::move(st));
    }
  }

  report.gate_arrival = arrival;
  auto trace_path = [&](const std::string& from) {
    std::string back = from;
    while (true) {
      report.critical_path.push_back(back);
      const auto pit = predecessor.find(back);
      if (pit == predecessor.end()) break;
      back = pit->second;
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  };
  if (best_endpoint) {
    report.critical_delay = best_endpoint->arrival;
    report.critical_path.push_back(best_endpoint->sink);
    trace_path(best_endpoint->driver);
  } else if (!arrival.empty()) {
    // No design-output endpoint: the critical path ends at the
    // latest-arriving gate input.
    const auto worst = std::max_element(
        arrival.begin(), arrival.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    report.critical_delay = worst->second;
    trace_path(worst->first);
  }
  // Backward pass: build the pin-level graph from the finished report
  // and fold its slack view into the report.  The graph re-propagates
  // arrivals from arc delays (it does not copy the map above), so this
  // doubles as a built-in self-check; tests make it a bitwise one.
  {
    GraphOptions gopt;
    gopt.required_time = options.required_time;
    const TimingGraph graph = TimingGraph::build(report, gopt);
    for (const auto& [gate, t] : report.gate_arrival) {
      report.gate_slack[gate] = graph.slack_at(gate);
    }
    report.worst_slack = graph.worst_slack();
    report.worst_slack_endpoint = graph.worst_endpoint();
  }

  if (cache != nullptr) {
    report.awe_stats.cache_evictions =
        cache->counters().evictions - evictions_before;
  }
  report.awe_stats.phases = obs::since(phases_before);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  return report;
}

}  // namespace detail

}  // namespace awesim::timing
