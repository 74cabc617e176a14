// Stage-based timing analyzer on top of AWE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "obs/trace.h"
#include "timing/analyzer.h"

namespace awesim::timing {

namespace {

NetElement r(const std::string& a, const std::string& b, double v) {
  return {NetElement::Kind::Resistor, a, b, v};
}
NetElement c(const std::string& a, double v) {
  return {NetElement::Kind::Capacitor, a, "0", v};
}
NetElement l(const std::string& a, const std::string& b, double v) {
  return {NetElement::Kind::Inductor, a, b, v};
}

// One stage: driver g1 through a 2-section wire to sink g2.
Design two_gate_design(double wire_r = 500.0, double wire_c = 50e-15) {
  Design d;
  d.add_gate({"g1", 1e3, 4e-15, 0.0});
  d.add_gate({"g2", 1.5e3, 6e-15, 0.0});
  Net net;
  net.name = "n1";
  net.parasitics = {r("DRV", "w1", wire_r), c("w1", wire_c),
                    r("w1", "w2", wire_r), c("w2", wire_c)};
  net.sink_node["g2"] = "w2";
  d.add_net("g1", net);
  d.set_primary_input("g1");
  return d;
}

}  // namespace

TEST(Timing, SingleStageDelayIsPlausible) {
  Design d = two_gate_design();
  const auto report = d.analyze();
  ASSERT_EQ(report.stages.size(), 1u);
  ASSERT_EQ(report.stages[0].sinks.size(), 1u);
  const auto& sink = report.stages[0].sinks[0];
  EXPECT_EQ(sink.gate, "g2");
  // Elmore scale: Rdrv*(C_total) + wire contributions ~ 1e3 * 106fF plus
  // wire ~ hundreds of ps; 50% delay below that.
  EXPECT_GT(sink.stage_delay, 2e-11);
  EXPECT_LT(sink.stage_delay, 1e-9);
  EXPECT_GT(sink.slew, 0.0);
  EXPECT_EQ(report.gate_arrival.at("g2"), sink.arrival);
}

TEST(Timing, DelayGrowsWithLoad) {
  const auto d_small = two_gate_design(200.0, 20e-15).analyze();
  const auto d_large = two_gate_design(2000.0, 200e-15).analyze();
  EXPECT_GT(d_large.stages[0].sinks[0].stage_delay,
            d_small.stages[0].sinks[0].stage_delay * 2.0);
}

TEST(Timing, ChainAccumulatesArrivals) {
  Design d;
  d.add_gate({"g1", 1e3, 4e-15, 10e-12});
  d.add_gate({"g2", 1e3, 4e-15, 10e-12});
  d.add_gate({"g3", 1e3, 4e-15, 10e-12});
  for (int i = 1; i <= 2; ++i) {
    Net net;
    net.name = "n" + std::to_string(i);
    net.parasitics = {r("DRV", "w", 300.0), c("w", 30e-15)};
    net.sink_node["g" + std::to_string(i + 1)] = "w";
    d.add_net("g" + std::to_string(i), net);
  }
  d.set_primary_input("g1");
  const auto report = d.analyze();
  const double a2 = report.gate_arrival.at("g2");
  const double a3 = report.gate_arrival.at("g3");
  EXPECT_GT(a2, 0.0);
  // Stage 2 is identical to stage 1 (same load), so arrival roughly
  // doubles (slew differences keep it from being exact).
  EXPECT_GT(a3, 1.6 * a2);
  EXPECT_LT(a3, 2.6 * a2);
  // Critical path is the chain.
  ASSERT_GE(report.critical_path.size(), 3u);
  EXPECT_EQ(report.critical_path.front(), "g1");
  EXPECT_EQ(report.critical_path.back(), "g3");
}

TEST(Timing, FanoutPicksWorstArrival) {
  // g1 and g2 both feed g3; g2's net is much slower and must define g3's
  // arrival and the critical path.
  Design d;
  d.add_gate({"g1", 500.0, 4e-15, 0.0});
  d.add_gate({"g2", 500.0, 4e-15, 0.0});
  d.add_gate({"g3", 1e3, 5e-15, 0.0});
  Net fast;
  fast.name = "fast";
  fast.parasitics = {r("DRV", "w", 100.0), c("w", 10e-15)};
  fast.sink_node["g3"] = "w";
  d.add_net("g1", fast);
  Net slow;
  slow.name = "slow";
  slow.parasitics = {r("DRV", "w", 3e3), c("w", 300e-15)};
  slow.sink_node["g3"] = "w";
  d.add_net("g2", slow);
  d.set_primary_input("g1");
  d.set_primary_input("g2");
  const auto report = d.analyze();
  double slow_delay = 0.0;
  for (const auto& st : report.stages) {
    if (st.net == "slow") slow_delay = st.sinks[0].arrival;
  }
  EXPECT_EQ(report.gate_arrival.at("g3"), slow_delay);
  ASSERT_GE(report.critical_path.size(), 2u);
  EXPECT_EQ(report.critical_path.front(), "g2");
}

TEST(Timing, MultiSinkNetTimesEachSink) {
  Design d;
  d.add_gate({"g1", 1e3, 4e-15, 0.0});
  d.add_gate({"near", 1e3, 5e-15, 0.0});
  d.add_gate({"far", 1e3, 5e-15, 0.0});
  Net net;
  net.name = "fork";
  net.parasitics = {r("DRV", "a", 200.0), c("a", 20e-15),
                    r("a", "b", 1e3),    c("b", 60e-15)};
  net.sink_node["near"] = "a";
  net.sink_node["far"] = "b";
  d.add_net("g1", net);
  d.set_primary_input("g1");
  const auto report = d.analyze();
  ASSERT_EQ(report.stages.size(), 1u);
  double d_near = 0.0;
  double d_far = 0.0;
  for (const auto& s : report.stages[0].sinks) {
    if (s.gate == "near") d_near = s.stage_delay;
    if (s.gate == "far") d_far = s.stage_delay;
  }
  EXPECT_GT(d_far, d_near);
}

namespace {

// A PCB-ish net with inductance.
Design inductive_design() {
  Design d;
  d.add_gate({"drv", 25.0, 0.0, 0.0});
  d.add_gate({"rx", 1e6, 2e-12, 0.0});
  Net net;
  net.name = "trace";
  net.parasitics = {l("DRV", "m1", 4e-9), r("m1", "t1", 0.5),
                    c("t1", 1.5e-12),     l("t1", "m2", 4e-9),
                    r("m2", "t2", 0.5),   c("t2", 1.5e-12)};
  net.sink_node["rx"] = "t2";
  d.add_net("drv", net);
  d.set_primary_input("drv");
  return d;
}

}  // namespace

TEST(Timing, InductiveNetEscalatesOrder) {
  // AWE must escalate beyond 2 poles.
  const Design d = inductive_design();
  AnalysisOptions opt;
  opt.swing = 3.3;
  opt.input_slew = 0.05e-9;
  const auto report = d.analyze(opt);
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_GE(report.stages[0].awe_order_used, 3);
  EXPECT_GT(report.stages[0].sinks[0].stage_delay, 0.0);
}

TEST(Timing, IntrinsicDelayAdds) {
  Design plain = two_gate_design();
  Design with_intrinsic;
  with_intrinsic.add_gate({"g1", 1e3, 4e-15, 50e-12});
  with_intrinsic.add_gate({"g2", 1.5e3, 6e-15, 0.0});
  Net net;
  net.name = "n1";
  net.parasitics = {r("DRV", "w1", 500.0), c("w1", 50e-15),
                    r("w1", "w2", 500.0), c("w2", 50e-15)};
  net.sink_node["g2"] = "w2";
  with_intrinsic.add_net("g1", net);
  with_intrinsic.set_primary_input("g1");
  const double d0 = plain.analyze().stages[0].sinks[0].stage_delay;
  const double d1 =
      with_intrinsic.analyze().stages[0].sinks[0].stage_delay;
  EXPECT_NEAR(d1 - d0, 50e-12, 1e-12);
}

TEST(Timing, StructuralErrors) {
  Design d;
  EXPECT_THROW(d.add_net("nosuch", Net{}), std::invalid_argument);
  d.add_gate({"g1", 1e3, 1e-15, 0.0});
  EXPECT_THROW(d.add_gate({"g1", 1.0, 1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(d.set_primary_input("nosuch"), std::invalid_argument);
}

TEST(Timing, CycleDetected) {
  Design d;
  d.add_gate({"a", 1e3, 1e-15, 0.0});
  d.add_gate({"b", 1e3, 1e-15, 0.0});
  Net ab;
  ab.name = "ab";
  ab.parasitics = {r("DRV", "w", 100.0), c("w", 1e-15)};
  ab.sink_node["b"] = "w";
  d.add_net("a", ab);
  Net ba = ab;
  ba.name = "ba";
  ba.sink_node.clear();
  ba.sink_node["a"] = "w";
  d.add_net("b", ba);
  // Neither gate is a primary input with zero fan-in: cycle.  The
  // analyzer throws a typed record naming the loop.
  try {
    d.analyze();
    FAIL() << "cycle not detected";
  } catch (const core::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().code, core::DiagCode::CombinationalCycle);
    EXPECT_NE(e.diagnostic().message.find("a -> b -> a"),
              std::string::npos)
        << e.diagnostic().message;
  }
}

namespace {

// A wide multi-wave design so every wavefront past the first holds
// several independent stages -- the shape that exercises the pool.
Design wide_multiwave_design(std::size_t chains) {
  Design d;
  d.add_gate({"root", 600.0, 4e-15, 0.0});
  d.set_primary_input("root");
  Net fan;
  fan.name = "fanout";
  fan.parasitics = {r("DRV", "h", 180.0), c("h", 25e-15)};
  for (std::size_t ch = 0; ch < chains; ++ch) {
    fan.sink_node["g" + std::to_string(ch) + "_0"] = "h";
  }
  for (std::size_t ch = 0; ch < chains; ++ch) {
    for (int s = 0; s < 3; ++s) {
      const std::string name =
          "g" + std::to_string(ch) + "_" + std::to_string(s);
      d.add_gate({name, 900.0 + 70.0 * static_cast<double>(ch), 5e-15,
                  4e-12});
      if (s > 0) {
        Net net;
        net.name = name + "_in";
        net.parasitics = {
            r("DRV", "w", 280.0 + 30.0 * static_cast<double>(s)),
            c("w", 35e-15)};
        net.sink_node[name] = "w";
        d.add_net("g" + std::to_string(ch) + "_" + std::to_string(s - 1),
                  net);
      }
    }
  }
  d.add_net("root", fan);
  return d;
}

}  // namespace

// Tracing + the parallel wavefront together: the mutexed span
// accumulators must be race-free under TSan, and the report plus the
// span *counts* must be bit-identical across 1/2/8 threads (the seconds
// fields are wall-clock and are exempt by contract).
TEST(Timing, ColdRampDesignFactorsOncePerStage) {
  // Every stage is driven by a finite-slew ramp, so no stage atom jumps
  // at t = 0 and none walks the sigma-limit: the paper's one LU of G per
  // stage, RC and RLC alike, at any thread count.
  for (const Design& d :
       {two_gate_design(), wide_multiwave_design(8), inductive_design()}) {
    for (int threads : {1, 4}) {
      AnalysisOptions opt;
      opt.threads = threads;
      const TimingReport report = d.analyze(opt);
      EXPECT_GT(report.awe_stats.stages, 0u);
      EXPECT_EQ(report.awe_stats.factorizations, report.awe_stats.stages);
    }
  }
}

TEST(Timing, TracedParallelAnalysisIsRaceFreeAndDeterministic) {
  const bool was_enabled = obs::tracing_enabled();
  obs::set_tracing(true);
  const Design d = wide_multiwave_design(8);

  std::vector<TimingReport> reports;
  for (int threads : {1, 2, 8}) {
    AnalysisOptions opt;
    opt.threads = threads;
    obs::reset_phases();
    reports.push_back(d.analyze(opt));
  }
  obs::set_tracing(was_enabled);
  obs::reset_phases();

  const TimingReport& ref = reports.front();
  for (std::size_t i = 1; i < reports.size(); ++i) {
    const TimingReport& rep = reports[i];
    EXPECT_EQ(ref.critical_delay, rep.critical_delay);
    EXPECT_EQ(ref.critical_path, rep.critical_path);
    EXPECT_EQ(ref.gate_arrival, rep.gate_arrival);
    EXPECT_EQ(ref.levels, rep.levels);
    EXPECT_EQ(ref.awe_stats.factorizations, rep.awe_stats.factorizations);
    EXPECT_EQ(ref.awe_stats.substitutions, rep.awe_stats.substitutions);
    EXPECT_EQ(ref.awe_stats.matches, rep.awe_stats.matches);
    EXPECT_EQ(ref.awe_stats.stages, rep.awe_stats.stages);
    ASSERT_EQ(ref.stages.size(), rep.stages.size());
    for (std::size_t s = 0; s < ref.stages.size(); ++s) {
      EXPECT_EQ(ref.stages[s].driver_gate, rep.stages[s].driver_gate);
      EXPECT_EQ(ref.stages[s].net, rep.stages[s].net);
      ASSERT_EQ(ref.stages[s].sinks.size(), rep.stages[s].sinks.size());
      for (std::size_t k = 0; k < ref.stages[s].sinks.size(); ++k) {
        EXPECT_EQ(ref.stages[s].sinks[k].arrival,
                  rep.stages[s].sinks[k].arrival);
        EXPECT_EQ(ref.stages[s].sinks[k].slew,
                  rep.stages[s].sinks[k].slew);
      }
    }
    // Phase breakdown: identical names and span counts per thread count.
    if (obs::tracing_compiled_in()) {
      ASSERT_EQ(ref.awe_stats.phases.size(), rep.awe_stats.phases.size());
      for (std::size_t p = 0; p < ref.awe_stats.phases.size(); ++p) {
        EXPECT_EQ(ref.awe_stats.phases[p].name,
                  rep.awe_stats.phases[p].name);
        EXPECT_EQ(ref.awe_stats.phases[p].stats.count,
                  rep.awe_stats.phases[p].stats.count);
      }
    }
  }
  if (obs::tracing_compiled_in()) {
    // The taxonomy's timing-layer phases must be present and counted
    // exactly: one timing.stage and one parallel.job per evaluated
    // stage, one stage.crossings per sink.
    std::uint64_t sinks = 0;
    for (const StageTiming& st : ref.stages) sinks += st.sinks.size();
    bool saw_stage = false;
    bool saw_job = false;
    bool saw_crossings = false;
    for (const auto& p : ref.awe_stats.phases) {
      if (p.name == "stage.crossings") {
        saw_crossings = true;
        EXPECT_EQ(p.stats.count, sinks);
      }
      if (p.name == "timing.stage") {
        saw_stage = true;
        EXPECT_EQ(p.stats.count, ref.awe_stats.stages);
      }
      if (p.name == "parallel.job") {
        saw_job = true;
        EXPECT_EQ(p.stats.count, ref.awe_stats.stages);
      }
    }
    EXPECT_TRUE(saw_stage);
    EXPECT_TRUE(saw_job);
    EXPECT_TRUE(saw_crossings);
  }
}

TEST(ThreadPoolOnePerThread, EachJobRunsOnAThreadOfItsOwn) {
  core::ThreadPool pool(4);
  for (const std::size_t count : {4u, 3u, 1u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::thread::id> ran_on(count);
      pool.parallel_for_one_per_thread(count, [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
      });
      EXPECT_EQ(std::set<std::thread::id>(ran_on.begin(), ran_on.end()).size(),
                count);
    }
  }
  EXPECT_THROW(pool.parallel_for_one_per_thread(5, [](std::size_t) {}),
               std::invalid_argument);
  // The pool still runs ordinary batches afterwards.
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 64);
}

}  // namespace awesim::timing
