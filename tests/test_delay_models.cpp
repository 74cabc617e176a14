// The stage kernel: AWE with the lumped Elmore fallback.
//
// The AWE report has the paper tree's structure (same stages, sinks, and
// gate/arc sets as the design), stays bit-identical across thread counts
// and warm/cold Session runs, and a Session rebinding its options never
// serves an entry cached under other options.  The Elmore fallback --
// what a stage answers when it cannot be evaluated -- upper-bounds AWE
// on distributed RC trees.  Golden slack values for the paper's
// interconnect tree (the Fig. 16 MOS net, the circuit behind the
// Fig. 19 timing-analysis argument) are locked down under tests/golden/.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "obs/json.h"
#include "timing/session.h"

#ifndef AWESIM_GOLDEN_DIR
#define AWESIM_GOLDEN_DIR "."
#endif

namespace awesim::timing {

namespace {

NetElement r(const std::string& a, const std::string& b, double v) {
  return {NetElement::Kind::Resistor, a, b, v};
}
NetElement c(const std::string& a, double v) {
  return {NetElement::Kind::Capacitor, a, "0", v};
}

// The paper's Fig. 16 MOS interconnect tree as a timing stage: the
// driver's R1 = 150 ohm becomes the gate drive resistance, the trunk
// n1..n7 plus the n8/n9 and n10 branches become the net, and loads hang
// off n7/n9/n10.  A second wave of small nets gives the design ports.
Design paper_tree_design() {
  Design d;
  d.add_gate({"drv", 150.0, 4e-15, 10e-12});
  d.set_primary_input("drv");
  d.add_gate({"load7", 1e3, 8e-15, 5e-12});
  d.add_gate({"load9", 1.2e3, 6e-15, 5e-12});
  d.add_gate({"load10", 900.0, 7e-15, 5e-12});
  Net tree;
  tree.name = "fig16";
  tree.parasitics = {
      c("DRV", 60e-15),        r("DRV", "n2", 300.0), c("n2", 120e-15),
      r("n2", "n3", 200.0),    c("n3", 30e-15),       r("n3", "n4", 400.0),
      c("n4", 250e-15),        r("n4", "n5", 150.0),  c("n5", 50e-15),
      r("n5", "n6", 500.0),    c("n6", 180e-15),      r("n6", "n7", 300.0),
      c("n7", 120e-15),        r("n3", "n8", 50.0),   c("n8", 5e-15),
      r("n8", "n9", 1.5e3),    c("n9", 25e-15),       r("n5", "n10", 2.5e3),
      c("n10", 90e-15)};
  tree.sink_node["load7"] = "n7";
  tree.sink_node["load9"] = "n9";
  tree.sink_node["load10"] = "n10";
  d.add_net("drv", tree);
  for (const char* load : {"load7", "load9", "load10"}) {
    Net out;
    out.name = std::string(load) + "_out";
    out.parasitics = {r("DRV", "w", 250.0), c("w", 40e-15)};
    out.sink_node[std::string("PO_") + load] = "w";
    d.add_net(load, out);
  }
  return d;
}

// One multi-section fork net: distributed RC, two sinks.
Design fork_design() {
  Design d;
  d.add_gate({"g1", 1e3, 4e-15, 0.0});
  d.add_gate({"near", 1e3, 5e-15, 0.0});
  d.add_gate({"far", 1e3, 5e-15, 0.0});
  Net net;
  net.name = "fork";
  net.parasitics = {r("DRV", "a", 200.0), c("a", 20e-15),
                    r("a", "b", 1e3),     c("b", 60e-15)};
  net.sink_node["near"] = "a";
  net.sink_node["far"] = "b";
  d.add_net("g1", net);
  d.set_primary_input("g1");
  return d;
}

void expect_same_payload(const TimingReport& a, const TimingReport& b) {
  EXPECT_EQ(a.gate_arrival, b.gate_arrival);
  EXPECT_EQ(a.gate_slack, b.gate_slack);
  EXPECT_EQ(a.critical_delay, b.critical_delay);
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.worst_slack, b.worst_slack);
  EXPECT_EQ(a.worst_slack_endpoint, b.worst_slack_endpoint);
  EXPECT_EQ(a.source_gates, b.source_gates);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].driver_gate, b.stages[s].driver_gate);
    EXPECT_EQ(a.stages[s].net, b.stages[s].net);
    EXPECT_EQ(a.stages[s].degraded, b.stages[s].degraded);
    EXPECT_EQ(a.stages[s].failed, b.stages[s].failed);
    ASSERT_EQ(a.stages[s].sinks.size(), b.stages[s].sinks.size());
    for (std::size_t k = 0; k < a.stages[s].sinks.size(); ++k) {
      EXPECT_EQ(a.stages[s].sinks[k].gate, b.stages[s].sinks[k].gate);
      EXPECT_EQ(a.stages[s].sinks[k].stage_delay,
                b.stages[s].sinks[k].stage_delay);
      EXPECT_EQ(a.stages[s].sinks[k].slew, b.stages[s].sinks[k].slew);
      EXPECT_EQ(a.stages[s].sinks[k].arrival,
                b.stages[s].sinks[k].arrival);
    }
  }
}

}  // namespace

TEST(DelayModels, ReportStructureMatchesTheDesign) {
  const Design d = paper_tree_design();
  const TimingReport report = d.analyze();

  EXPECT_EQ(report.levels, 2u);
  EXPECT_EQ(report.source_gates, std::vector<std::string>{"drv"});
  EXPECT_EQ(report.failed_stages, 0u);
  // Wave 0 drives the tree; wave 1 holds the loads, gates by name.
  const std::vector<std::pair<std::string, std::string>> stages = {
      {"drv", "fig16"},
      {"load10", "load10_out"},
      {"load7", "load7_out"},
      {"load9", "load9_out"}};
  ASSERT_EQ(report.stages.size(), stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    EXPECT_EQ(report.stages[s].driver_gate, stages[s].first);
    EXPECT_EQ(report.stages[s].net, stages[s].second);
    std::size_t i = 0;
    while (d.net_at(i).name != stages[s].second) ++i;
    const Net& net = d.net_at(i);
    ASSERT_EQ(report.stages[s].sinks.size(), net.sink_node.size());
    auto sink = net.sink_node.begin();
    for (const SinkTiming& t : report.stages[s].sinks) {
      EXPECT_EQ(t.gate, (sink++)->first);
      EXPECT_GT(t.stage_delay, 0.0);
      EXPECT_TRUE(std::isfinite(t.stage_delay));
      EXPECT_TRUE(std::isfinite(t.slew));
    }
  }
  // Every gate has an arrival and a slack.
  ASSERT_EQ(report.gate_arrival.size(), d.gates().size());
  for (const auto& [gate, g] : d.gates()) {
    EXPECT_EQ(report.gate_arrival.count(gate), 1u) << gate;
    EXPECT_EQ(report.gate_slack.count(gate), 1u) << gate;
  }
  EXPECT_FALSE(report.worst_slack_endpoint.empty());
}

TEST(DelayModels, BitIdenticalAcrossThreadCounts) {
  const Design d = paper_tree_design();
  AnalysisOptions opt1;
  opt1.threads = 1;
  AnalysisOptions opt8 = opt1;
  opt8.threads = 8;
  expect_same_payload(d.analyze(opt1), d.analyze(opt8));
}

TEST(DelayModels, WarmSessionIsBitIdenticalToCold) {
  AnalysisOptions opt;
  opt.required_time = 2.5e-9;
  Session session(paper_tree_design(), opt);
  const TimingReport cold = session.analyze();
  const TimingReport warm = session.analyze();
  expect_same_payload(cold, warm);
  EXPECT_EQ(warm.awe_stats.stages_reused, warm.stages.size());
  EXPECT_EQ(warm.awe_stats.stages_recomputed, 0u);
}

TEST(DelayModels, SessionRebindsOptionsWithoutCacheCrossTalk) {
  // The delay threshold enters the stage-result key: a rebind to 0.6
  // misses, and the rebind back to 0.5 is served wholly from the
  // entries cached under 0.5 -- each report bitwise what a cold
  // analysis under the same options computes.
  const Design d = paper_tree_design();
  AnalysisOptions half;
  half.threads = 1;
  AnalysisOptions sixty = half;
  sixty.delay_threshold_fraction = 0.6;
  Session session(d, half);

  const TimingReport first = session.analyze(half);
  expect_same_payload(first, d.analyze(half));
  const TimingReport second = session.analyze(sixty);
  expect_same_payload(second, d.analyze(sixty));
  EXPECT_GT(second.critical_delay, first.critical_delay);
  const TimingReport third = session.analyze(half);
  expect_same_payload(third, d.analyze(half));
  EXPECT_EQ(third.awe_stats.stages_reused, third.stages.size());
  EXPECT_EQ(third.awe_stats.stages_recomputed, 0u);
}

TEST(DelayModels, ElmoreUpperBoundsAweOnDistributedRcTrees) {
  // Every stage fails on purpose, so each takes the Elmore fallback with
  // the slews the fallback itself propagated.
  for (const Design& d : {paper_tree_design(), fork_design()}) {
    const TimingReport awe = d.analyze();
    TimingReport elmore;
    {
      core::ScopedFaultInjection inject({{"timing.stage", "*", -1}});
      elmore = d.analyze();
    }
    ASSERT_EQ(elmore.failed_stages, elmore.stages.size());
    ASSERT_EQ(awe.stages.size(), elmore.stages.size());
    for (std::size_t s = 0; s < awe.stages.size(); ++s) {
      ASSERT_EQ(awe.stages[s].sinks.size(), elmore.stages[s].sinks.size());
      for (std::size_t k = 0; k < awe.stages[s].sinks.size(); ++k) {
        EXPECT_GE(elmore.stages[s].sinks[k].stage_delay,
                  awe.stages[s].sinks[k].stage_delay)
            << awe.stages[s].net << " sink "
            << awe.stages[s].sinks[k].gate;
      }
    }
    EXPECT_GE(elmore.critical_delay, awe.critical_delay);
  }
}

// Golden slack regression for the paper-tree design.  Regenerate
// deliberately with:
//   AWESIM_REGEN_GOLDEN=1 ./test_delay_models
//       --gtest_filter='*GoldenPaperTreeSlacks*'
TEST(DelayModels, GoldenPaperTreeSlacks) {
  const std::string path =
      std::string(AWESIM_GOLDEN_DIR) + "/fig19_slack.json";
  AnalysisOptions opt;
  opt.threads = 1;
  opt.required_time = 2.5e-9;
  const TimingReport report = paper_tree_design().analyze(opt);

  if (std::getenv("AWESIM_REGEN_GOLDEN") != nullptr) {
    obs::json::Value root = obs::json::Value::object();
    root.set("schema", "awesim-golden-slack");
    root.set("version", 1);
    root.set("circuit", "fig16 interconnect (Fig. 19 timing scenario)");
    root.set("required_time", opt.required_time);
    root.set("worst_slack", report.worst_slack);
    root.set("worst_slack_endpoint", report.worst_slack_endpoint);
    root.set("critical_delay", report.critical_delay);
    obs::json::Value slack = obs::json::Value::object();
    for (const auto& [gate, s] : report.gate_slack) slack.set(gate, s);
    root.set("gate_slack", std::move(slack));
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << root.dump(2) << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::json::Value golden = obs::json::parse(buffer.str());

  // rel 1e-9: admits benign FP noise (about 1e-13 relative) with margin,
  // catches any real numeric change; same policy as the golden
  // waveforms.
  auto expect_close = [](double got, double want, const char* what) {
    EXPECT_NEAR(got, want, 1e-9 * std::abs(want) + 1e-21) << what;
  };
  expect_close(report.worst_slack,
               golden.find("worst_slack")->as_number(), "worst_slack");
  expect_close(report.critical_delay,
               golden.find("critical_delay")->as_number(),
               "critical_delay");
  EXPECT_EQ(report.worst_slack_endpoint,
            golden.find("worst_slack_endpoint")->as_string());
  const obs::json::Value* slack = golden.find("gate_slack");
  ASSERT_NE(slack, nullptr);
  ASSERT_EQ(slack->items().size(), report.gate_slack.size());
  for (const auto& [gate, want] : slack->items()) {
    ASSERT_EQ(report.gate_slack.count(gate), 1u) << gate;
    expect_close(report.gate_slack.at(gate), want.as_number(),
                 gate.c_str());
  }
}

}  // namespace awesim::timing
