// Full-flow timing analysis: a small gate-level design (two pipeline-ish
// paths reconverging) with per-net parasitics, analyzed with the
// AWE-backed stage timing engine.  Prints the per-stage timing report,
// arrival times, and the critical path.
//
// With --json, emits the whole report as one machine-readable JSON
// document instead (report + AWE cost counters + phase-time breakdown;
// tracing is force-enabled so the breakdown is populated).
//
// Slack and path queries (the timing/graph.h + timing/paths.h layer):
//   --required=T     required arrival time in seconds at every endpoint
//                    (default: floats to the latest arrival, slack >= 0)
//   --paths=K        also report the K worst paths, worst first
//   --through=NAME   keep only paths visiting gate/port NAME (repeatable)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "timing/analyzer.h"
#include "timing/graph.h"
#include "timing/paths.h"

using namespace awesim;
using timing::Design;
using timing::Gate;
using timing::Net;
using timing::NetElement;

namespace {

NetElement r(const std::string& a, const std::string& b, double v) {
  return {NetElement::Kind::Resistor, a, b, v};
}
NetElement c(const std::string& a, double v) {
  return {NetElement::Kind::Capacitor, a, "0", v};
}

obs::json::Value paths_json(const timing::PathsResult& result) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("truncated", result.truncated);
  doc.set("expansions", static_cast<double>(result.expansions));
  Value paths = Value::array();
  for (const auto& p : result.paths) {
    Value v = Value::object();
    v.set("source", p.source);
    v.set("endpoint", p.endpoint);
    v.set("arrival", p.arrival);
    v.set("slack", p.slack);
    v.set("degraded", p.degraded);
    v.set("failed", p.failed);
    Value points = Value::array();
    for (const auto& pt : p.points) {
      Value q = Value::object();
      q.set("pin", pt.pin);
      q.set("arrival", pt.arrival);
      q.set("delay", pt.delay);
      if (!pt.net.empty()) q.set("net", pt.net);
      points.push_back(std::move(q));
    }
    v.set("points", std::move(points));
    paths.push_back(std::move(v));
  }
  doc.set("paths", std::move(paths));
  return doc;
}

obs::json::Value report_json(const timing::TimingReport& report) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("schema", "awesim-timing-report");
  doc.set("schema_version", 3);
  doc.set("critical_delay", report.critical_delay);
  Value path = Value::array();
  for (const auto& g : report.critical_path) path.push_back(g);
  doc.set("critical_path", std::move(path));
  doc.set("levels", static_cast<double>(report.levels));
  doc.set("degraded_stages", static_cast<double>(report.degraded_stages));
  doc.set("failed_stages", static_cast<double>(report.failed_stages));
  doc.set("worst_slack", report.worst_slack);
  doc.set("worst_slack_endpoint", report.worst_slack_endpoint);

  Value arrivals = Value::object();
  for (const auto& [gate, t] : report.gate_arrival) arrivals.set(gate, t);
  doc.set("gate_arrival", std::move(arrivals));

  Value slacks = Value::object();
  for (const auto& [gate, s] : report.gate_slack) slacks.set(gate, s);
  doc.set("gate_slack", std::move(slacks));

  Value sources = Value::array();
  for (const auto& g : report.source_gates) sources.push_back(g);
  doc.set("source_gates", std::move(sources));

  Value stages = Value::array();
  for (const auto& st : report.stages) {
    Value s = Value::object();
    s.set("driver", st.driver_gate);
    s.set("net", st.net);
    s.set("input_arrival", st.input_arrival);
    s.set("awe_order_used", st.awe_order_used);
    s.set("degraded", st.degraded);
    s.set("failed", st.failed);
    Value sinks = Value::array();
    for (const auto& sk : st.sinks) {
      Value v = Value::object();
      v.set("gate", sk.gate);
      v.set("stage_delay", sk.stage_delay);
      v.set("slew", sk.slew);
      v.set("arrival", sk.arrival);
      sinks.push_back(std::move(v));
    }
    s.set("sinks", std::move(sinks));
    stages.push_back(std::move(s));
  }
  doc.set("stages", std::move(stages));

  const core::Stats& st = report.awe_stats;
  Value stats = Value::object();
  stats.set("factorizations", static_cast<double>(st.factorizations));
  stats.set("substitutions", static_cast<double>(st.substitutions));
  stats.set("matches", static_cast<double>(st.matches));
  stats.set("outputs", static_cast<double>(st.outputs));
  stats.set("stages", static_cast<double>(st.stages));
  stats.set("window_shifts", static_cast<double>(st.window_shifts));
  stats.set("order_stepdowns", static_cast<double>(st.order_stepdowns));
  stats.set("elmore_fallbacks", static_cast<double>(st.elmore_fallbacks));
  stats.set("degradations", static_cast<double>(st.degradations));
  stats.set("failures", static_cast<double>(st.failures));
  stats.set("seconds_setup", st.seconds_setup);
  stats.set("seconds_moments", st.seconds_moments);
  stats.set("seconds_match", st.seconds_match);
  doc.set("stats", std::move(stats));

  Value phases = Value::array();
  for (const auto& p : st.phases) {
    Value ph = Value::object();
    ph.set("name", p.name);
    ph.set("count", static_cast<double>(p.stats.count));
    ph.set("total_seconds", p.stats.total_seconds);
    ph.set("min_seconds", p.stats.min_seconds);
    ph.set("max_seconds", p.stats.max_seconds);
    phases.push_back(std::move(ph));
  }
  doc.set("phases", std::move(phases));
  doc.set("wall_seconds", report.wall_seconds);
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  std::size_t k_paths = 0;
  timing::AnalysisOptions opt;
  timing::PathQuery query;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      emit_json = true;
    } else if (arg.rfind("--paths=", 0) == 0) {
      k_paths = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 8, nullptr, 10));
    } else if (arg.rfind("--required=", 0) == 0) {
      opt.required_time = std::strtod(arg.c_str() + 11, nullptr);
    } else if (arg.rfind("--through=", 0) == 0) {
      query.through.push_back(arg.substr(10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--paths=K] [--required=T]"
                   " [--through=NAME]...\n",
                   argv[0]);
      return 2;
    }
  }
  if (emit_json) obs::set_tracing(true);

  Design d;
  // Gates: name, drive resistance, input cap, intrinsic delay.
  d.add_gate({"in_buf", 800.0, 3e-15, 15e-12});
  d.add_gate({"nand_a", 1.2e3, 5e-15, 22e-12});
  d.add_gate({"nand_b", 1.2e3, 5e-15, 22e-12});
  d.add_gate({"long_wire_buf", 600.0, 4e-15, 18e-12});
  d.add_gate({"out_or", 1.5e3, 6e-15, 30e-12});

  // in_buf fans out to both nands over a forked net.
  {
    Net net;
    net.name = "fanout2";
    net.parasitics = {r("DRV", "f", 150.0),  c("f", 12e-15),
                      r("f", "pa", 250.0),   c("pa", 18e-15),
                      r("f", "pb", 400.0),   c("pb", 25e-15)};
    net.sink_node["nand_a"] = "pa";
    net.sink_node["nand_b"] = "pb";
    d.add_net("in_buf", net);
  }
  // nand_a -> out_or over a short net.
  {
    Net net;
    net.name = "short";
    net.parasitics = {r("DRV", "w", 200.0), c("w", 15e-15)};
    net.sink_node["out_or"] = "w";
    d.add_net("nand_a", net);
  }
  // nand_b -> long_wire_buf -> out_or over a long resistive route.
  {
    Net net;
    net.name = "to_buf";
    net.parasitics = {r("DRV", "w", 300.0), c("w", 20e-15)};
    net.sink_node["long_wire_buf"] = "w";
    d.add_net("nand_b", net);
  }
  {
    Net net;
    net.name = "long_route";
    net.parasitics = {r("DRV", "s1", 700.0), c("s1", 60e-15),
                      r("s1", "s2", 700.0),  c("s2", 60e-15),
                      r("s2", "s3", 700.0),  c("s3", 60e-15)};
    net.sink_node["out_or"] = "s3";
    d.add_net("long_wire_buf", net);
  }
  d.set_primary_input("in_buf");

  opt.swing = 5.0;
  opt.input_slew = 0.08e-9;
  const auto report = d.analyze(opt);

  timing::PathsResult paths;
  if (k_paths > 0) {
    query.k = k_paths;
    paths = timing::k_worst_paths(*report.graph, query);
  }

  if (emit_json) {
    // Pure JSON on stdout: pipeable straight into jq or a dashboard.
    obs::json::Value doc = report_json(report);
    if (k_paths > 0) doc.set("worst_paths", paths_json(paths));
    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
  }

  std::printf("Stage timing report (AWE-backed delay calculation)\n\n");
  std::printf("%-14s %-11s %12s %12s %12s %12s %4s\n", "driver", "net",
              "in arrival", "sink", "stage delay", "sink slew", "q");
  for (const auto& st : report.stages) {
    for (const auto& s : st.sinks) {
      std::printf("%-14s %-11s %12.4e %12s %12.4e %12.4e %4d\n",
                  st.driver_gate.c_str(), st.net.c_str(),
                  st.input_arrival, s.gate.c_str(), s.stage_delay, s.slew,
                  st.awe_order_used);
    }
  }

  std::printf("\narrival times:\n");
  for (const auto& [gate, t] : report.gate_arrival) {
    std::printf("  %-16s %12.4e s\n", gate.c_str(), t);
  }

  std::printf("\ncritical delay: %.4e s\ncritical path:  ",
              report.critical_delay);
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    std::printf("%s%s", i ? " -> " : "", report.critical_path[i].c_str());
  }
  std::printf("\n");

  std::printf("\nslack (worst %.4e s at %s):\n", report.worst_slack,
              report.worst_slack_endpoint.c_str());
  for (const auto& [gate, s] : report.gate_slack) {
    std::printf("  %-16s %12.4e s\n", gate.c_str(), s);
  }

  if (k_paths > 0) {
    std::printf("\n%zu worst path%s%s:\n", paths.paths.size(),
                paths.paths.size() == 1 ? "" : "s",
                paths.truncated ? " (truncated by expansion cap)" : "");
    for (std::size_t i = 0; i < paths.paths.size(); ++i) {
      const timing::Path& p = paths.paths[i];
      std::printf("  #%zu  slack %12.4e s  arrival %12.4e s%s\n", i + 1,
                  p.slack, p.arrival,
                  p.degraded ? "  [degraded]" : "");
      std::printf("      ");
      for (std::size_t j = 0; j < p.points.size(); ++j) {
        std::printf("%s%s", j ? " -> " : "", p.points[j].pin.c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
