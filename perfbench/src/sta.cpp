// The two cold sign-off workloads: parse -> audit -> [reduce] -> analyze
// -> timing graph -> K worst paths, repeated on one generated design.
//
//   sta_wide_tree  a binary gate tree of distinct RC-tree nets: engine
//                  work and the parallel wavefront dominate, nothing is
//                  shared, reduction refuses nothing worth collapsing.
//   sta_deep_mesh  a gate chain of kilo-node mesh nets drawn from a few
//                  dozen cells: reduction (with its dedup store) does most
//                  of the work, and every wavefront holds one stage.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "audit/audit.h"
#include "audit/design_netlist.h"
#include "common.h"
#include "gen.h"
#include "obs/trace.h"
#include "reduce/reduce.h"
#include "sim/transient.h"
#include "timing/graph.h"
#include "timing/paths.h"
#include "timing/session.h"
#include "timing/stage_cache.h"

namespace perfbench {

namespace {

constexpr int kThreads = 4;
constexpr std::size_t kWorstPaths = 1000;

struct StaSpec {
  DesignSpec design;
  bool reduce = false;
};

StaSpec wide_tree_spec(bool smoke) {
  StaSpec s;
  s.design.topology = DesignSpec::Topology::BinaryTree;
  s.design.gates_per_root = smoke ? 63 : 2047;
  s.design.shape = DesignSpec::NetShape::RcTree;
  s.design.nodes_lo = 50;
  s.design.nodes_hi = 70;
  return s;
}

StaSpec deep_mesh_spec(bool smoke) {
  StaSpec s;
  s.design.topology = DesignSpec::Topology::Chain;
  s.design.gates_per_root = smoke ? 40 : 400;
  s.design.shape = DesignSpec::NetShape::Mesh;
  s.design.nodes_lo = smoke ? 100 : 900;
  s.design.nodes_hi = smoke ? 140 : 1100;
  s.design.variants = smoke ? 6 : 24;
  s.reduce = true;
  return s;
}

timing::AnalysisOptions analysis_options(int threads) {
  timing::AnalysisOptions options;
  options.threads = threads;
  return options;
}

/// Everything one sign-off produced that the checks and counters read.
/// The parse result stays alive here so that freeing it happens between
/// sign-offs, outside both the timed iteration and the spans.
struct SignOff {
  audit::DesignParse parse;
  /// The session that analyzed the reduced design (deep mesh only).
  std::optional<timing::Session> reduced;
  /// The design analyzed: the reduced one for deep mesh.
  const timing::Design& design() const {
    return reduced ? reduced->design() : *parse.design;
  }
  timing::TimingReport report;
  timing::PathsResult paths;
  double max_arrival = 0.0;
  std::size_t endpoints = 0;
  bool audit_ok = false;
  std::size_t nets_total = 0;
  std::size_t nets_reduced = 0;
  std::size_t reduction_hits = 0;
};

std::string first_error(const core::Diagnostics& diags) {
  for (const core::Diagnostic& d : diags) {
    if (d.severity >= core::Severity::Error) return d.to_string();
  }
  return "unknown error";
}

/// Analyzes `design` the way reduce::HierSession does: through a Session
/// over the store that holds the reductions.
timing::TimingReport analyze_reduced(
    std::optional<timing::Session>& session, timing::Design design,
    int threads, std::shared_ptr<timing::detail::StageCache> store) {
  session.emplace(std::move(design), analysis_options(threads),
                  timing::SessionOptions{}, std::move(store));
  return session->analyze();
}

/// One cold sign-off through the public API.  Spans (when given) time
/// each public call; the store is fresh, so nothing carries over between
/// sign-offs.  With `reduce`, this is the work of HierSession::analyze
/// split at its public calls: reduce_design into a store, then a Session
/// over the reduced design sharing that store (stage, LU and lint caches
/// included), so reduce and analyze time separately.
SignOff sign_off(const std::string& text, bool reduce, Spans* spans) {
  SignOff out;
  out.parse = timed(spans, "audit.parse_ms", [&] {
    return audit::parse_design(text, "perfbench.design");
  });
  if (!out.parse.design) {
    throw std::runtime_error("generated design does not parse: " +
                             first_error(out.parse.diagnostics));
  }
  const timing::Design& parsed = *out.parse.design;
  out.audit_ok = timed(spans, "audit.audit_ms", [&] {
                   return audit::audit_design(parsed, {}, &out.parse.sources);
                 }).ok();
  if (reduce) {
    auto store = std::make_shared<timing::detail::StageCache>();
    reduce::DesignReduction red = timed(spans, "reduce.reduce_ms", [&] {
      return reduce::reduce_design(parsed, {}, store.get());
    });
    out.nets_total = red.nets_total;
    out.nets_reduced = red.nets_reduced;
    out.reduction_hits = red.cache_hits;
    out.report = timed(spans, "timing.analyze_ms", [&] {
      return analyze_reduced(out.reduced, std::move(red.design), kThreads,
                             std::move(store));
    });
  } else {
    out.report = timed(spans, "timing.analyze_ms", [&] {
      return parsed.analyze(analysis_options(kThreads));
    });
  }
  const timing::TimingGraph graph = timed(spans, "timing.graph_ms", [&] {
    return timing::TimingGraph::build(out.report);
  });
  timing::PathQuery query;
  query.k = kWorstPaths;
  out.paths = timed(spans, "timing.paths_ms",
                    [&] { return timing::k_worst_paths(graph, query); });
  out.max_arrival = graph.max_arrival();
  out.endpoints = graph.endpoints().size();
  return out;
}

std::string bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Every timing value of a report, bit-exact, in report order.
std::string fingerprint(const timing::TimingReport& r) {
  std::string s;
  for (const timing::StageTiming& st : r.stages) {
    s += st.driver_gate + "/" + st.net + " " + bits(st.input_arrival) + "\n";
    for (const timing::SinkTiming& k : st.sinks) {
      s += " " + k.gate + " " + bits(k.stage_delay) + " " + bits(k.slew) +
           " " + bits(k.arrival) + "\n";
    }
  }
  for (const auto& [gate, t] : r.gate_arrival) s += gate + bits(t) + "\n";
  for (const std::string& g : r.critical_path) s += g + ">";
  s += bits(r.critical_delay) + bits(r.worst_slack) +
       std::to_string(r.levels);
  return s;
}

/// Largest |delay difference| between two reports of the same design
/// (same stage and sink order); +inf when their shapes differ.
double max_delay_diff(const timing::TimingReport& a,
                      const timing::TimingReport& b) {
  if (a.stages.size() != b.stages.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const auto& sa = a.stages[i].sinks;
    const auto& sb = b.stages[i].sinks;
    if (sa.size() != sb.size()) return INFINITY;
    for (std::size_t k = 0; k < sa.size(); ++k) {
      worst = std::max(worst, std::fabs(sa[k].stage_delay - sb[k].stage_delay));
    }
  }
  return worst;
}

/// 50% delay of one stage sink from the reference transient simulator,
/// on the stage circuit the analyzer builds (ramp source, driver
/// resistance, parasitics, sink pin caps) with the report's input slew.
double simulated_delay(const timing::Design& design, std::size_t net_index,
                       const std::string& sink, double in_slew,
                       double awe_delay) {
  const timing::Net& net = design.net_at(net_index);
  const timing::Gate& driver = design.gates().at(design.net_driver(net_index));
  const double swing = timing::AnalysisOptions().swing;
  circuit::Circuit ckt;
  const circuit::NodeId in = ckt.node("__in");
  ckt.add_vsource("Vdrv", in, circuit::kGround,
                  circuit::Stimulus::ramp_step(0.0, swing, in_slew));
  ckt.add_resistor("__Rdrv", in, ckt.node("DRV"), driver.drive_resistance);
  std::size_t counter = 0;
  for (const timing::NetElement& e : net.parasitics) {
    const std::string name = "p" + std::to_string(counter++);
    const circuit::NodeId a = ckt.node(e.node_a);
    const circuit::NodeId b = ckt.node(e.node_b);
    if (e.kind == timing::NetElement::Kind::Resistor) {
      ckt.add_resistor(name, a, b, e.value);
    } else {
      ckt.add_capacitor(name, a, b, e.value);
    }
  }
  for (const auto& [gate, node_name] : net.sink_node) {
    const auto it = design.gates().find(gate);
    if (it != design.gates().end()) {
      ckt.add_capacitor("cin_" + gate, ckt.node(node_name), circuit::kGround,
                        it->second.input_capacitance);
    }
  }
  const sim::TransientSimulator simulator(ckt);
  const double t_stop =
      4.0 * (awe_delay - driver.intrinsic_delay) + 2.0 * in_slew;
  sim::TransientOptions options;
  options.timestep = t_stop / 4000.0;
  const waveform::Waveform wave = simulator.run(
      {ckt.node(net.sink_node.at(sink))}, t_stop, options);
  const std::optional<double> t50 = wave.first_crossing(0.5 * swing);
  return driver.intrinsic_delay + t50.value_or(INFINITY);
}

/// Largest |AWE - simulated| 50% delay over a seeded sample of stages.
double awe_vs_simulation(const SignOff& s, std::uint64_t seed,
                         std::size_t samples) {
  std::map<std::string, double> input_slew;
  for (const timing::StageTiming& st : s.report.stages) {
    for (const timing::SinkTiming& k : st.sinks) input_slew[k.gate] = k.slew;
  }
  std::map<std::string, std::size_t> net_index;
  for (std::size_t i = 0; i < s.design().net_count(); ++i) {
    net_index[s.design().net_at(i).name] = i;
  }
  Rng rng(seed ^ 0x5eedULL);
  double worst = 0.0;
  for (std::size_t n = 0; n < samples; ++n) {
    const timing::StageTiming& st =
        s.report.stages[rng.below(s.report.stages.size())];
    const auto slew = input_slew.find(st.driver_gate);
    const double in_slew = slew != input_slew.end()
                               ? slew->second
                               : timing::AnalysisOptions().input_slew;
    for (const timing::SinkTiming& k : st.sinks) {
      const double ref = simulated_delay(s.design(), net_index.at(st.net),
                                         k.gate, in_slew, k.stage_delay);
      worst = std::max(worst, std::fabs(k.stage_delay - ref));
    }
  }
  return worst;
}

/// The sign-offs of one run.  In the traced run, iterations alternate
/// between tracing off and on, so both halves see the same machine
/// state and the overhead ratio compares like with like.
struct Pass {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double traced_wall = 0.0;
  std::uint64_t stages = 0;
  std::uint64_t failed = 0;
  std::optional<SignOff> last;  // the last untraced sign-off
  std::optional<SignOff> last_traced;
  Spans untraced_spans;
  Spans traced_spans;
};

Pass run_pass(const std::string& text, bool reduce, const Args& args) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_going(args, i, 4, start); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    std::optional<SignOff>& slot = traced ? pass.last_traced : pass.last;
    slot.reset();
    obs::set_tracing(traced);
    const Clock::time_point t0 = Clock::now();
    SignOff s = sign_off(text, reduce,
                         traced ? &pass.traced_spans : &pass.untraced_spans);
    const double took = seconds_since(t0);
    obs::set_tracing(false);
    (traced ? pass.traced_s : pass.untraced_s).push_back(took);
    if (traced) pass.traced_wall += took;
    pass.stages += s.report.stages.size();
    pass.failed += s.report.failed_stages;
    slot = std::move(s);
  }
  return pass;
}

std::uint64_t phase_count(const obs::PhaseBreakdown& phases,
                          const std::string& name) {
  for (const obs::NamedPhaseStats& p : phases) {
    if (p.name == name) return p.stats.count;
  }
  return 0;
}

Outcome run_sta(const Args& args, const StaSpec& spec) {
  Outcome out;
  double setup_s = 0.0;
  const auto text = repeated_setup(&setup_s, [&] {
    return std::make_unique<std::string>(design_text(spec.design, args.seed));
  });

  obs::reset_phases();
  Pass pass = run_pass(*text, spec.reduce, args);
  const obs::PhaseBreakdown phases = obs::snapshot();
  const double rss_mb = peak_rss_mb();  // before the checks' own memory
  out.attempted = pass.stages;
  out.failed = pass.failed;
  const double stages = static_cast<double>(stage_count(spec.design));
  const double signoff_s = median(pass.untraced_s);

  // Correctness, outside every timed window.
  pass.last_traced.reset();
  const SignOff& s = *pass.last;
  out.check(s.audit_ok, "audit found errors in the generated design");
  out.check(s.report.stages.size() == stage_count(spec.design),
            "report is missing stages");
  out.check(s.report.failed_stages == 0, "stages failed");
  const std::size_t want_paths = std::min(kWorstPaths, s.endpoints);
  out.check(s.paths.paths.size() == want_paths && !s.paths.truncated,
            "k_worst_paths returned the wrong number of paths");
  bool ordered = !s.paths.paths.empty() &&
                 s.paths.paths.front().arrival == s.max_arrival &&
                 s.max_arrival == s.report.critical_delay;
  for (std::size_t i = 1; i < s.paths.paths.size(); ++i) {
    ordered = ordered &&
              s.paths.paths[i].arrival <= s.paths.paths[i - 1].arrival;
  }
  out.check(ordered, "worst paths are not ordered from the critical path");

  double delay_err = 0.0;
  // threads=1 analyses, timed for the thread speedup (traced run) and,
  // on the wide tree, compared bit for bit with the threads=4 report.
  // On the deep mesh each threads=1 analysis gets a fresh store, as the
  // threads=4 one did (the reductions it held play no part in analysis).
  std::vector<double> serial_s;
  std::optional<timing::TimingReport> serial;
  for (int i = 0; i < (args.trace ? 3 : spec.reduce ? 0 : 1); ++i) {
    std::optional<timing::Design> copy;
    if (spec.reduce) copy = s.design();
    std::optional<timing::Session> session;  // freed after the timer
    const Clock::time_point t0 = Clock::now();
    if (spec.reduce) {
      serial = analyze_reduced(session, std::move(*copy), 1,
                               std::make_shared<timing::detail::StageCache>());
    } else {
      serial = s.design().analyze(analysis_options(1));
    }
    serial_s.push_back(seconds_since(t0));
  }
  if (spec.reduce) {
    const timing::TimingReport flat_report =
        s.parse.design->analyze(analysis_options(kThreads));
    delay_err = max_delay_diff(s.report, flat_report);
    out.check(delay_err <= 1e-9, "reduced delays differ from flat by " +
                                     std::to_string(delay_err) + " s");
    out.check(2 * s.nets_reduced >= s.nets_total,
              "fewer than half of the nets reduced");
  } else {
    out.check(fingerprint(*serial) == fingerprint(s.report),
              "threads=1 and threads=4 reports differ");
    delay_err = awe_vs_simulation(s, args.seed, args.smoke ? 4 : 24);
    out.check(delay_err <= 2e-12,
              "AWE delay differs from simulation by " +
                  std::to_string(delay_err) + " s");
  }

  if (!args.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("throughput_per_s", stages / signoff_s, "1/s");
    out.metric("latency_ms.p50", signoff_s * 1e3, "ms");
    out.metric("latency_ms.p90", percentile(pass.untraced_s, 0.9) * 1e3,
               "ms");
    return out;
  }

  const Spans& spans = pass.traced_spans;
  const timing::TimingReport& r = s.report;
  const double per_stage = 1.0 / static_cast<double>(r.stages.size());
  const double traced_stages =
      stages * static_cast<double>(pass.traced_s.size());
  out.metric("audit.parse_ms", spans.median_ms("audit.parse_ms"), "ms");
  out.metric("audit.audit_ms", spans.median_ms("audit.audit_ms"), "ms");
  out.metric("timing.analyze_ms", spans.median_ms("timing.analyze_ms"), "ms");
  out.metric("timing.graph_ms", spans.median_ms("timing.graph_ms"), "ms");
  out.metric("timing.paths_ms", spans.median_ms("timing.paths_ms"), "ms");
  out.metric("reduce.reduce_ms", spans.median_ms("reduce.reduce_ms"), "ms");
  out.metric("core.factorizations_per_stage",
             static_cast<double>(r.awe_stats.factorizations) * per_stage,
             "count");
  out.metric("core.substitutions_per_stage",
             static_cast<double>(r.awe_stats.substitutions) * per_stage,
             "count");
  out.metric("core.matches_per_stage",
             static_cast<double>(r.awe_stats.matches) * per_stage, "count");
  out.metric("core.hankel_per_stage",
             static_cast<double>(phase_count(phases, "pade.hankel")) /
                 traced_stages,
             "count");
  out.metric("timing.levels", static_cast<double>(r.levels), "count");
  out.metric("timing.stages_per_level",
             static_cast<double>(r.stages.size()) /
                 static_cast<double>(r.levels),
             "count");
  // Both sides untraced medians.
  out.metric("timing.thread_speedup",
             median(serial_s) /
                 (pass.untraced_spans.median_ms("timing.analyze_ms") / 1e3),
             "ratio");
  if (spec.reduce) {
    out.metric("reduce.reduced_ratio",
               static_cast<double>(s.nets_reduced) /
                   static_cast<double>(s.nets_total),
               "ratio");
    out.metric("reduce.dedup_hit_ratio",
               static_cast<double>(s.reduction_hits) /
                   static_cast<double>(s.nets_total),
               "ratio");
  }
  out.metric("accuracy.delay_err_max_s", delay_err, "s");
  out.metric("obs.trace_overhead_ratio",
             median(pass.traced_s) / signoff_s - 1.0, "ratio");
  out.metric("bench.span_coverage", spans.total() / pass.traced_wall,
             "ratio");
  return out;
}

}  // namespace

Outcome run_sta_wide_tree(const Args& args) {
  return run_sta(args, wide_tree_spec(args.smoke));
}

Outcome run_sta_deep_mesh(const Args& args) {
  return run_sta(args, deep_mesh_spec(args.smoke));
}

}  // namespace perfbench
