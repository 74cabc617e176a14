// Differential tests: the explicit TimingGraph against the levelized
// wavefront.  The graph re-propagates arrival times from arc
// delays -- it does not copy the analyzer's map -- so agreement here is
// a real second opinion, and the contract is *bitwise* equality: same
// arrivals at 1/2/8 threads, warm or cold, and slack == RAT - AT at
// every pin by construction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/diagnostic.h"
#include "core/fault.h"
#include "obs/trace.h"
#include "timing/design_graph.h"
#include "timing/graph.h"
#include "timing/paths.h"
#include "timing/session.h"
#include "timing/snapshot.h"
#include "util/random_circuits.h"

namespace awesim::timing {

namespace {

NetElement r(const std::string& a, const std::string& b, double v) {
  return {NetElement::Kind::Resistor, a, b, v};
}
NetElement c(const std::string& a, double v) {
  return {NetElement::Kind::Capacitor, a, "0", v};
}

// Two parallel chains of different speed reconverging on one sink gate
// that drives a design-output port: multiple waves, real fanin max at
// "join", and a Port endpoint.
Design reconvergent_design() {
  Design d;
  d.add_gate({"src", 600.0, 4e-15, 0.0});
  d.set_primary_input("src");
  Net fan;
  fan.name = "fan";
  fan.parasitics = {r("DRV", "h", 150.0), c("h", 20e-15)};
  fan.sink_node["fast0"] = "h";
  fan.sink_node["slow0"] = "h";
  d.add_net("src", fan);
  const struct {
    const char* prefix;
    double wire_r;
    double wire_c;
  } chains[] = {{"fast", 200.0, 25e-15}, {"slow", 900.0, 90e-15}};
  for (const auto& ch : chains) {
    for (int s = 0; s < 2; ++s) {
      d.add_gate({ch.prefix + std::to_string(s), 800.0, 5e-15, 3e-12});
    }
    Net hop;
    hop.name = std::string(ch.prefix) + "_hop";
    hop.parasitics = {r("DRV", "w", ch.wire_r), c("w", ch.wire_c)};
    hop.sink_node[ch.prefix + std::to_string(1)] = "w";
    d.add_net(ch.prefix + std::to_string(0), hop);
    Net into_join;
    into_join.name = std::string(ch.prefix) + "_join";
    into_join.parasitics = {r("DRV", "w", ch.wire_r), c("w", ch.wire_c)};
    into_join.sink_node["join"] = "w";
    d.add_net(ch.prefix + std::to_string(1), into_join);
  }
  d.add_gate({"join", 1e3, 6e-15, 5e-12});
  Net out;
  out.name = "out";
  out.parasitics = {r("DRV", "w", 300.0), c("w", 40e-15)};
  out.sink_node["OUT"] = "w";  // no such gate: a design-output port
  d.add_net("join", out);
  return d;
}

}  // namespace

TEST(GraphSta, ArrivalsMatchLegacyWavefrontBitwiseAcrossThreads) {
  const Design d = reconvergent_design();
  std::vector<TimingReport> reports;
  for (int threads : {1, 2, 8}) {
    AnalysisOptions opt;
    opt.threads = threads;
    reports.push_back(d.analyze(opt));
  }
  for (const TimingReport& report : reports) {
    const TimingGraph graph = TimingGraph::build(report);
    // Re-propagated arrivals equal the wavefront's map exactly -- not
    // approximately: the graph performs the same `arrival + delay` sums
    // and its max over fanin selects among the same operands.
    for (const auto& [gate, at] : report.gate_arrival) {
      EXPECT_EQ(graph.arrival_at(gate), at) << gate;
    }
    // The port endpoint sees the critical delay.
    const std::size_t out = graph.find("OUT");
    ASSERT_NE(out, TimingGraph::npos);
    EXPECT_EQ(graph.nodes()[out].arrival, report.critical_delay);
    EXPECT_EQ(graph.max_arrival(), report.critical_delay);
  }
  // And the graphs of different thread counts are bitwise the same
  // graph: node-for-node, arc-for-arc.
  const TimingGraph ref = TimingGraph::build(reports.front());
  for (std::size_t i = 1; i < reports.size(); ++i) {
    const TimingGraph g = TimingGraph::build(reports[i]);
    ASSERT_EQ(ref.nodes().size(), g.nodes().size());
    ASSERT_EQ(ref.arcs().size(), g.arcs().size());
    for (std::size_t n = 0; n < ref.nodes().size(); ++n) {
      EXPECT_EQ(ref.nodes()[n].name, g.nodes()[n].name);
      EXPECT_EQ(ref.nodes()[n].arrival, g.nodes()[n].arrival);
      EXPECT_EQ(ref.nodes()[n].required, g.nodes()[n].required);
      EXPECT_EQ(ref.nodes()[n].slack, g.nodes()[n].slack);
    }
    for (std::size_t a = 0; a < ref.arcs().size(); ++a) {
      EXPECT_EQ(ref.arcs()[a].from, g.arcs()[a].from);
      EXPECT_EQ(ref.arcs()[a].to, g.arcs()[a].to);
      EXPECT_EQ(ref.arcs()[a].delay, g.arcs()[a].delay);
      EXPECT_EQ(ref.arcs()[a].slack, g.arcs()[a].slack);
    }
  }
}

TEST(GraphSta, SlackIsRequiredMinusArrivalEverywhere) {
  const Design d = reconvergent_design();
  const TimingReport report = d.analyze();
  GraphOptions gopt;
  gopt.required_time = 2e-9;
  const TimingGraph graph = TimingGraph::build(report, gopt);
  for (const TimingNode& node : graph.nodes()) {
    if (std::isinf(node.required)) continue;  // untimed pin
    EXPECT_EQ(node.slack, node.required - node.arrival) << node.name;
  }
  // Endpoints carry the pinned requirement; the worst endpoint's slack
  // is the graph-wide minimum.
  for (const std::size_t id : graph.endpoints()) {
    EXPECT_EQ(graph.nodes()[id].required, 2e-9);
    EXPECT_GE(graph.nodes()[id].slack, graph.worst_slack());
  }
  // On a single-required-time graph the worst endpoint is the latest
  // arrival, so worst_slack = required - critical delay.
  EXPECT_EQ(graph.worst_slack(), 2e-9 - graph.max_arrival());
}

TEST(GraphSta, FloatingRequiredPinsWorstSlackToZero) {
  const Design d = reconvergent_design();
  const TimingReport report = d.analyze();
  const TimingGraph graph = TimingGraph::build(report);  // NaN: floats
  EXPECT_EQ(graph.worst_slack(), 0.0);
  const std::size_t worst = graph.find(graph.worst_endpoint());
  ASSERT_NE(worst, TimingGraph::npos);
  EXPECT_EQ(graph.nodes()[worst].arrival, graph.max_arrival());
  // Endpoint slacks are exact (required is pinned to max_arrival, so
  // the critical endpoint cancels to 0.0 bitwise).  Interior pins see
  // the backward pass's right-associated subtractions against the
  // forward pass's left-associated sums, so their slack may round one
  // ulp below zero -- allow that, and only that.
  for (const std::size_t id : graph.endpoints()) {
    EXPECT_GE(graph.nodes()[id].slack, 0.0) << graph.nodes()[id].name;
  }
  for (const TimingNode& node : graph.nodes()) {
    if (std::isinf(node.slack)) continue;
    EXPECT_GE(node.slack, -1e-20) << node.name;
  }
}

TEST(GraphSta, ReportSlackFieldsComeFromTheGraph) {
  const Design d = reconvergent_design();
  AnalysisOptions opt;
  opt.required_time = 2e-9;
  const TimingReport report = d.analyze(opt);
  GraphOptions gopt;
  gopt.required_time = 2e-9;
  const TimingGraph graph = TimingGraph::build(report, gopt);
  ASSERT_EQ(report.gate_slack.size(), report.gate_arrival.size());
  for (const auto& [gate, slack] : report.gate_slack) {
    EXPECT_EQ(slack, graph.slack_at(gate)) << gate;
  }
  EXPECT_EQ(report.worst_slack, graph.worst_slack());
  EXPECT_EQ(report.worst_slack_endpoint, graph.worst_endpoint());
}

TEST(GraphSta, WarmSessionGraphIsBitwiseColdGraph) {
  const Design d = reconvergent_design();
  AnalysisOptions opt;
  opt.required_time = 1.5e-9;
  Session session(d, opt);
  const TimingReport cold_report = session.analyze();
  const TimingGraph cold = TimingGraph::build(cold_report);
  const TimingReport warm_report = session.analyze();
  const TimingGraph& warm = *warm_report.graph;
  ASSERT_EQ(cold.nodes().size(), warm.nodes().size());
  for (std::size_t n = 0; n < cold.nodes().size(); ++n) {
    EXPECT_EQ(cold.nodes()[n].arrival, warm.nodes()[n].arrival);
  }
  // Slack queries through the Session agree with the standalone path.
  EXPECT_EQ(session.worst_slack(), d.analyze(opt).worst_slack);
  // And the K-worst-path query is served identically warm.
  PathQuery q;
  q.k = 4;
  const PathsResult warm_paths = session.worst_paths(q);
  const PathsResult cold_paths =
      k_worst_paths(*session.analyze().graph, q);
  ASSERT_EQ(warm_paths.paths.size(), cold_paths.paths.size());
  for (std::size_t i = 0; i < warm_paths.paths.size(); ++i) {
    EXPECT_EQ(warm_paths.paths[i].arrival, cold_paths.paths[i].arrival);
    EXPECT_EQ(warm_paths.paths[i].arcs, cold_paths.paths[i].arcs);
  }
}

TEST(GraphSta, SweepReportsSlackDeltasAndCriticalPathChanges) {
  AnalysisOptions opt;
  opt.threads = 1;
  opt.required_time = 2e-9;
  Session session(reconvergent_design(), opt);
  // Fatten the slow chain's wire: arrivals grow, slack deltas go
  // negative and shrink monotonically with the value.
  const SweepParam param{SweepParam::Kind::NetElementValue, "slow_join", 0};
  const SweepResult sweep = session.sweep(param, {1200.0, 2400.0});
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.baseline.worst_slack,
            session.analyze().worst_slack);  // design restored
  for (const SweepPoint& p : sweep.points) {
    EXPECT_EQ(p.worst_slack, p.report.worst_slack);
    EXPECT_EQ(p.slack_delta, p.worst_slack - sweep.baseline.worst_slack);
    EXPECT_LT(p.slack_delta, 0.0);
  }
  EXPECT_LT(sweep.points[1].slack_delta, sweep.points[0].slack_delta);
  // The slow chain already dominates: slowing it further does not move
  // the critical path.
  EXPECT_FALSE(sweep.points[0].critical_path_changed);

  // Fatten the *fast* chain until it dominates: the critical path moves.
  const SweepParam flip{SweepParam::Kind::NetElementValue, "fast_join", 0};
  const SweepResult flipped = session.sweep(flip, {200.0, 50e3});
  ASSERT_EQ(flipped.points.size(), 2u);
  EXPECT_FALSE(flipped.points[0].critical_path_changed);
  EXPECT_TRUE(flipped.points[1].critical_path_changed);
}

// Satellite fix under test: a stage that dies promotes its
// degraded/failed flags onto every arc it produced, and any path using
// such an arc carries Path::degraded / Path::failed.
TEST(GraphSta, FailedStageTaintsArcsAndPaths) {
  const Design d = reconvergent_design();
  TimingReport report;
  {
    core::ScopedFaultInjection inject({{"timing.stage", "slow_join", -1}});
    report = d.analyze();
  }
  ASSERT_EQ(report.failed_stages, 1u);

  const TimingGraph graph = TimingGraph::build(report);
  std::size_t tainted_arcs = 0;
  for (const TimingArc& arc : graph.arcs()) {
    if (arc.net == "slow_join") {
      EXPECT_TRUE(arc.degraded);
      EXPECT_TRUE(arc.failed);
      ++tainted_arcs;
    } else {
      EXPECT_FALSE(arc.failed) << arc.net;
    }
  }
  EXPECT_EQ(tainted_arcs, 1u);

  // Enumerate enough paths to see both chains: the path through the
  // injected net is tainted, the others are clean.
  PathQuery q;
  q.k = 8;
  const PathsResult paths = k_worst_paths(graph, q);
  bool saw_tainted = false;
  bool saw_clean = false;
  for (const Path& p : paths.paths) {
    bool uses_injected = false;
    for (const PathPoint& pt : p.points) {
      if (pt.net == "slow_join") uses_injected = true;
    }
    EXPECT_EQ(p.degraded, uses_injected);
    EXPECT_EQ(p.failed, uses_injected);
    saw_tainted |= uses_injected;
    saw_clean |= !uses_injected;
  }
  EXPECT_TRUE(saw_tainted);
  EXPECT_TRUE(saw_clean);
}

TEST(GraphSta, MalformedReportIsRejected) {
  TimingReport report;
  StageTiming st;
  st.driver_gate = "ghost";  // not in gate_arrival
  st.net = "n";
  SinkTiming s;
  s.gate = "OUT";
  s.stage_delay = 1e-12;
  st.sinks.push_back(s);
  report.stages.push_back(st);
  EXPECT_THROW(TimingGraph::build(report), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Arcs into a source gate.  A declared primary input is pinned at t = 0
// whatever drives it: the wavefront, the pin graph and the path search
// all ignore arcs into it, so a loop through one is not a cycle.

namespace {

/// One-hop RC wire to the listed sinks (gate names or design outputs).
Net hop(const std::string& name, const std::vector<std::string>& sinks) {
  Net net;
  net.name = name;
  net.parasitics = {r("DRV", "w", 250.0), c("w", 15e-15)};
  for (const std::string& sink : sinks) net.sink_node[sink] = "w";
  return net;
}

/// a -> b -> a with `.input a`, optionally with a design output on b.
Design primary_input_feedback(bool output_on_b) {
  Design d;
  d.add_gate({"a", 700.0, 4e-15, 2e-12});
  d.add_gate({"b", 900.0, 5e-15, 3e-12});
  d.set_primary_input("a");
  d.add_net("a", hop("nab", {"b"}));
  d.add_net("b", output_on_b ? hop("nba", {"a", "OUT"}) : hop("nba", {"a"}));
  return d;
}

/// g1 -> p with `.input p`: acyclic, but p is driven.
Design driven_primary_input() {
  Design d;
  d.add_gate({"g1", 800.0, 4e-15, 2e-12});
  d.add_gate({"p", 800.0, 4e-15, 2e-12});
  d.set_primary_input("p");
  d.add_net("g1", hop("n1", {"p"}));
  return d;
}

std::uint64_t bits(double x) {
  std::uint64_t out = 0;
  std::memcpy(&out, &x, sizeof out);
  return out;
}

}  // namespace

TEST(GraphSta, ArcsIntoPrimaryInputsLeaveThemPinnedAtZero) {
  const struct {
    const char* label;
    Design design;
    const char* pi;
  } cases[] = {
      {"feedback", primary_input_feedback(false), "a"},
      {"feedback+output", primary_input_feedback(true), "a"},
      {"driven input", driven_primary_input(), "p"},
  };
  for (const auto& tc : cases) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(tc.label) + " threads " +
                   std::to_string(threads));
      AnalysisOptions opt;
      opt.threads = threads;
      const TimingReport report = tc.design.analyze(opt);
      ASSERT_EQ(report.gate_arrival.size(), tc.design.gates().size());
      EXPECT_EQ(bits(report.gate_arrival.at(tc.pi)), bits(0.0));
      const TimingGraph graph = TimingGraph::build(report);
      for (const auto& [gate, at] : report.gate_arrival) {
        EXPECT_EQ(bits(graph.arrival_at(gate)), bits(at)) << gate;
      }
      const std::set<std::string> distinct(report.critical_path.begin(),
                                           report.critical_path.end());
      EXPECT_EQ(distinct.size(), report.critical_path.size());
      EXPECT_FALSE(report.critical_path.empty());
    }
  }
}

// A design output named like a gate pin ("b:in") is a port of its own:
// it neither feeds gate b's input pin nor disappears from the endpoints.
TEST(GraphSta, PortNamedLikeAGatePinIsItsOwnEndpoint) {
  Design d;
  d.add_gate({"a", 500.0, 4e-15, 1e-12});
  d.add_gate({"b", 700.0, 5e-15, 2e-12});
  d.set_primary_input("a");
  Net n;
  n.name = "n";
  n.parasitics = {r("DRV", "x", 100.0), c("x", 10e-15),
                  r("x", "far", 2e3), c("far", 80e-15)};
  n.sink_node["b"] = "x";
  n.sink_node["b:in"] = "far";  // no such gate: a design output
  d.add_net("a", n);
  const TimingReport report = d.analyze();
  const TimingGraph graph = TimingGraph::build(report);
  for (const auto& [gate, at] : report.gate_arrival) {
    EXPECT_EQ(bits(graph.arrival_at(gate)), bits(at)) << gate;
  }
  ASSERT_EQ(graph.endpoints().size(), 2u);
  std::size_t port = TimingGraph::npos;
  for (const std::size_t id : graph.endpoints()) {
    if (graph.nodes()[id].kind == PinKind::Port) port = id;
  }
  ASSERT_NE(port, TimingGraph::npos);
  EXPECT_EQ(graph.nodes()[port].name, "b:in");
  EXPECT_EQ(graph.nodes()[port].fanin.size(), 1u);
  EXPECT_GT(graph.nodes()[port].arrival, graph.arrival_at("b"));
  // find() resolves the shared name to the gate pin.
  EXPECT_EQ(graph.nodes()[graph.find("b:in")].kind, PinKind::GateInput);
}

// Pin lookups go by gate ordinal (gate k owns nodes 2k and 2k+1, the
// name-sorted ports follow), and a pin name splits at its last ':', so
// a gate whose own name holds a ':' resolves too.
TEST(GraphSta, PinLookupsByOrdinal) {
  TimingReport report;
  report.gate_arrival = {{"a", 0.0}, {"a:in", 0.0}, {"b", 1e-12}};
  report.source_gates = {"a", "a:in"};
  StageTiming from_a;
  from_a.driver_gate = "a";
  from_a.net = "na";
  from_a.sinks = {{"b", 1e-12, 1e-12, 1e-12}, {"z", 2e-12, 1e-12, 2e-12}};
  StageTiming from_colon;
  from_colon.driver_gate = "a:in";
  from_colon.net = "nc";
  from_colon.sinks = {{"b:out", 3e-12, 1e-12, 3e-12},
                      {"m", 1e-12, 1e-12, 1e-12}};
  report.stages = {from_a, from_colon};
  const TimingGraph graph = TimingGraph::build(report);

  ASSERT_EQ(graph.nodes().size(), 9u);  // 3 gates x 2 pins + 3 ports
  const char* const names[] = {"a:in",   "a:out", "a:in:in", "a:in:out",
                               "b:in",   "b:out", "b:out",   "m",
                               "z"};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(graph.nodes()[i].name, names[i]) << i;
  }
  EXPECT_EQ(graph.find("a:in"), 0u);
  EXPECT_EQ(graph.find("a:out"), 1u);
  EXPECT_EQ(graph.find("a:in:in"), 2u);
  EXPECT_EQ(graph.find("a:in:out"), 3u);
  EXPECT_EQ(graph.find("b:out"), 5u);  // the gate pin shadows the port
  EXPECT_EQ(graph.find("m"), 7u);
  EXPECT_EQ(graph.find("z"), 8u);
  for (const char* ghost : {"a", "b", "a:", "c:in", "a:in:x", ""}) {
    EXPECT_EQ(graph.find(ghost), TimingGraph::npos) << ghost;
  }
  EXPECT_TRUE(graph.has_owner("a:in"));
  EXPECT_TRUE(graph.has_owner("b:out"));  // the port
  EXPECT_TRUE(graph.has_owner("z"));
  EXPECT_FALSE(graph.has_owner("b:in"));
  EXPECT_FALSE(graph.has_owner("c"));
  EXPECT_EQ(graph.arrival_at("b"), 1e-12);
  EXPECT_EQ(graph.nodes()[graph.find("z")].arrival, 2e-12);
  EXPECT_EQ(graph.nodes()[graph.find("m")].arrival, 1e-12);
  EXPECT_THROW(graph.slack_at("z"), std::invalid_argument);
  EXPECT_THROW(graph.arrival_at("a:in:in"), std::invalid_argument);
  EXPECT_TRUE(graph.nodes()[graph.find("a:in:in")].is_source);
}

// ---------------------------------------------------------------------
// Audit-analyzer agreement: on seeded random gate designs (forward
// arcs, some back arcs, random primary inputs, some design outputs) the
// audit reports a cycle exactly when analyze() throws one, the thrown
// loop is the audit's first, and every design that analyzes does so
// bit-identically at 1 and 4 threads.

namespace {

Design random_gate_design(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> size(2, 9);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const int n = size(rng);
  Design d;
  for (int i = 0; i < n; ++i) {
    d.add_gate({testutil::gate_name(i), 500.0 + 100.0 * i, 4e-15, 1e-12});
  }
  for (int i = 0; i < n; ++i) {
    if (u(rng) < 0.25) d.set_primary_input(testutil::gate_name(i));
  }
  for (int i = 0; i < n; ++i) {
    const int nets = u(rng) < 0.2 ? 2 : 1;
    for (int k = 0; k < nets; ++k) {
      std::vector<std::string> sinks;
      for (int j = 0; j < n; ++j) {
        const double p = j > i ? 0.4 : 0.08;  // forward vs back/self arc
        if (u(rng) < p) sinks.push_back(testutil::gate_name(j));
      }
      if (u(rng) < 0.2) sinks.push_back("OUT" + std::to_string(i));
      d.add_net(testutil::gate_name(i),
                hop("n" + std::to_string(i) + "_" + std::to_string(k),
                    sinks));
    }
  }
  return d;
}

}  // namespace

TEST(GraphSta, AuditCyclesAgreeWithAnalyzerOnRandomDesigns) {
  std::size_t cyclic = 0;
  std::size_t acyclic = 0;
  for (std::uint32_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Design d = random_gate_design(seed);
    const GraphFindings findings = audit_graph(d);
    AnalysisOptions serial;
    serial.threads = 1;
    try {
      const TimingReport one = d.analyze(serial);
      EXPECT_TRUE(findings.cycles.empty());
      ++acyclic;
      AnalysisOptions parallel;
      parallel.threads = 4;
      const TimingReport four = d.analyze(parallel);
      testutil::expect_same_payload(one, four);
      EXPECT_EQ(one.source_gates, four.source_gates);
      EXPECT_EQ(one.gate_slack, four.gate_slack);
      EXPECT_EQ(one.worst_slack, four.worst_slack);
      EXPECT_EQ(one.worst_slack_endpoint, four.worst_slack_endpoint);
    } catch (const core::DiagnosticError& e) {
      ASSERT_EQ(e.diagnostic().code, core::DiagCode::CombinationalCycle);
      ASSERT_FALSE(findings.cycles.empty());
      ++cyclic;
      const CyclePath& loop = findings.cycles.front();
      std::string expected = "combinational cycle: " + format_loop(loop);
      if (findings.cycles.size() > 1) {
        expected += " (+" + std::to_string(findings.cycles.size() - 1) +
                    " more loop(s))";
      }
      EXPECT_EQ(e.diagnostic().message, expected);
      EXPECT_EQ(e.diagnostic().element, loop.gates.front());
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(cyclic, 10u);
  EXPECT_GT(acyclic, 10u);
}

// ---------------------------------------------------------------------
// One pin DAG per analysis: the graph a report carries is, bit for bit,
// the graph a fresh TimingGraph::build of that report gives, and every
// path reader (Snapshot, Session) answers from it exactly as a search
// over a fresh build does.

namespace {

void expect_same_graph(const TimingGraph& kept, const TimingGraph& fresh) {
  ASSERT_EQ(kept.nodes().size(), fresh.nodes().size());
  ASSERT_EQ(kept.arcs().size(), fresh.arcs().size());
  for (std::size_t n = 0; n < kept.nodes().size(); ++n) {
    const TimingNode& k = kept.nodes()[n];
    const TimingNode& f = fresh.nodes()[n];
    EXPECT_EQ(k.name, f.name);
    EXPECT_EQ(bits(k.arrival), bits(f.arrival)) << k.name;
    EXPECT_EQ(bits(k.required), bits(f.required)) << k.name;
    EXPECT_EQ(bits(k.slack), bits(f.slack)) << k.name;
  }
  for (std::size_t a = 0; a < kept.arcs().size(); ++a) {
    EXPECT_EQ(kept.arcs()[a].from, fresh.arcs()[a].from);
    EXPECT_EQ(kept.arcs()[a].to, fresh.arcs()[a].to);
    EXPECT_EQ(bits(kept.arcs()[a].slack), bits(fresh.arcs()[a].slack));
  }
  EXPECT_EQ(bits(kept.worst_slack()), bits(fresh.worst_slack()));
  EXPECT_EQ(kept.worst_endpoint(), fresh.worst_endpoint());
}

void expect_same_paths(const PathsResult& got, const PathsResult& want) {
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.expansions, want.expansions);
  ASSERT_EQ(got.paths.size(), want.paths.size());
  for (std::size_t i = 0; i < got.paths.size(); ++i) {
    const Path& g = got.paths[i];
    const Path& w = want.paths[i];
    EXPECT_EQ(g.arcs, w.arcs) << "path " << i;
    EXPECT_EQ(bits(g.arrival), bits(w.arrival)) << "path " << i;
    EXPECT_EQ(bits(g.slack), bits(w.slack)) << "path " << i;
    EXPECT_EQ(g.source, w.source);
    EXPECT_EQ(g.endpoint, w.endpoint);
    ASSERT_EQ(g.points.size(), w.points.size());
    for (std::size_t p = 0; p < g.points.size(); ++p) {
      EXPECT_EQ(g.points[p].pin, w.points[p].pin);
      EXPECT_EQ(bits(g.points[p].arrival), bits(w.points[p].arrival));
    }
  }
}

constexpr double kFloating = std::numeric_limits<double>::quiet_NaN();

}  // namespace

TEST(GraphSta, KeptGraphIsBitwiseAFreshBuild) {
  std::vector<Design> designs = {reconvergent_design(),
                                 driven_primary_input(),
                                 primary_input_feedback(true)};
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    designs.push_back(random_gate_design(seed));
  }
  std::size_t checked = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (const int threads : {1, 4}) {
      for (const double required : {kFloating, 1.5e-9}) {
        SCOPED_TRACE("design " + std::to_string(i) + ", threads " +
                     std::to_string(threads) + ", required " +
                     std::to_string(required));
        AnalysisOptions opt;
        opt.threads = threads;
        opt.required_time = required;
        TimingReport report;
        try {
          report = designs[i].analyze(opt);
        } catch (const core::DiagnosticError&) {
          continue;  // a cyclic random design: no report, no graph
        }
        ASSERT_NE(report.graph, nullptr);
        GraphOptions gopt;
        gopt.required_time = required;
        expect_same_graph(*report.graph, TimingGraph::build(report, gopt));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 40u);
}

TEST(GraphSta, PathReadersMatchSearchOverAFreshBuild) {
  const Design d = reconvergent_design();
  std::vector<PathQuery> queries(7);
  queries[0].k = 8;
  queries[1].from = "src";
  queries[2].to = "OUT";
  queries[3].k = 3;
  queries[3].through = {"slow0", "slow1"};
  queries[4].k = 4;
  queries[4].through = {"slow1"};
  queries[5].through = {"fast0", "join"};
  queries[6].from = "src";
  queries[6].to = "OUT";
  queries[6].through = {"fast1"};
  for (const double required : {kFloating, 1.5e-9}) {
    AnalysisOptions opt;
    opt.threads = 1;
    opt.required_time = required;
    const TimingReport report = d.analyze(opt);
    GraphOptions gopt;
    gopt.required_time = required;
    const TimingGraph fresh = TimingGraph::build(report, gopt);
    SnapshotStore store(d, opt);
    const std::shared_ptr<const Snapshot> snap = store.current();
    Session session(d, opt);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i) + ", required " +
                   std::to_string(required));
      const PathsResult want = k_worst_paths(fresh, queries[i]);
      ASSERT_FALSE(want.paths.empty());
      expect_same_paths(snap->worst_paths(queries[i]), want);
      expect_same_paths(session.worst_paths(queries[i]), want);
    }
  }
}

TEST(GraphSta, SnapshotPathQueriesSearchTheAnalysisGraph) {
  if (!obs::tracing_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  struct TracingOn {
    bool was = obs::tracing_enabled();
    TracingOn() { obs::set_tracing(true); }
    ~TracingOn() { obs::set_tracing(was); }
  } tracing_on;
  AnalysisOptions opt;
  opt.threads = 1;
  SnapshotStore store(reconvergent_design(), opt);
  const std::shared_ptr<const Snapshot> snap = store.current();
  const obs::PhaseBreakdown before = obs::snapshot();
  constexpr std::uint64_t kQueries = 5;
  PathQuery q;
  q.k = 2;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    EXPECT_FALSE(snap->worst_paths(q).paths.empty());
  }
  const obs::PhaseBreakdown delta = obs::since(before);
  auto count = [&delta](const std::string& name) {
    for (const auto& p : delta) {
      if (p.name == name) return p.stats.count;
    }
    return std::uint64_t{0};
  };
  // The memoized analysis builds the one graph; each query only
  // searches it.
  EXPECT_EQ(count("graph.build"), 1u);
  EXPECT_EQ(count("paths.search"), kQueries);
}

}  // namespace awesim::timing
