// Determinism and equivalence of the batch multi-output engine and the
// parallel timing wavefront:
//
//   * Engine::approximate_all must return results bitwise identical to
//     per-output Engine::approximate calls (the batch path shares the
//     LU, particular solutions, and moment vectors but runs the exact
//     same per-output arithmetic);
//   * Design::analyze must produce the exact same report for every
//     thread count (levelized wavefronts + fixed reduction order).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "timing/analyzer.h"

namespace awesim {

namespace {

// Exact (bitwise) equality of two results, NaN == NaN allowed for the
// error estimate.
void expect_identical(const core::Result& a, const core::Result& b) {
  EXPECT_EQ(a.order_used, b.order_used);
  EXPECT_EQ(a.stable, b.stable);
  if (std::isnan(a.error_estimate)) {
    EXPECT_TRUE(std::isnan(b.error_estimate));
  } else {
    EXPECT_EQ(a.error_estimate, b.error_estimate);
  }
  EXPECT_EQ(a.output_moments, b.output_moments);
  ASSERT_EQ(a.approximation.atoms().size(), b.approximation.atoms().size());
  for (std::size_t i = 0; i < a.approximation.atoms().size(); ++i) {
    const auto& atom_a = a.approximation.atoms()[i];
    const auto& atom_b = b.approximation.atoms()[i];
    EXPECT_EQ(atom_a.start_time, atom_b.start_time);
    EXPECT_EQ(atom_a.affine_offset, atom_b.affine_offset);
    EXPECT_EQ(atom_a.affine_slope, atom_b.affine_slope);
    ASSERT_EQ(atom_a.terms.size(), atom_b.terms.size());
    for (std::size_t k = 0; k < atom_a.terms.size(); ++k) {
      EXPECT_EQ(atom_a.terms[k].pole, atom_b.terms[k].pole);
      EXPECT_EQ(atom_a.terms[k].residue, atom_b.terms[k].residue);
      EXPECT_EQ(atom_a.terms[k].power, atom_b.terms[k].power);
    }
  }
}

// A multi-sink tree: spine with taps, outputs at each tap.
circuit::Circuit tap_tree(std::vector<circuit::NodeId>& outs,
                          std::size_t taps) {
  circuit::Circuit ckt;
  const auto vin = ckt.node("in");
  ckt.add_vsource("Vin", vin, circuit::kGround,
                  circuit::Stimulus::ramp_step(0.0, 5.0, 0.2e-9));
  auto spine = ckt.node("s0");
  ckt.add_resistor("R0", vin, spine, 150.0);
  for (std::size_t i = 0; i < taps; ++i) {
    const std::string tag = std::to_string(i);
    const auto next = ckt.node("s" + std::to_string(i + 1));
    ckt.add_resistor("Rs" + tag, spine, next, 60.0);
    ckt.add_capacitor("Cs" + tag, next, circuit::kGround, 10e-15);
    const auto tap = ckt.node("t" + tag);
    ckt.add_resistor("Rt" + tag, next, tap, 200.0);
    ckt.add_capacitor("Ct" + tag, tap, circuit::kGround, 15e-15);
    outs.push_back(tap);
    spine = next;
  }
  return ckt;
}

// A design with fan-out, reconvergence, and multiple levels so the
// wavefront scheduler has real work: root fans out to `width` chains of
// `depth` gates, all reconverging into one tail gate.
timing::Design lattice_design(std::size_t width, int depth) {
  timing::Design d;
  using K = timing::NetElement::Kind;
  d.add_gate({"root", 400.0, 4e-15, 0.0});
  d.set_primary_input("root");
  d.add_gate({"tail", 900.0, 6e-15, 0.0});
  timing::Net fan;
  fan.name = "fan";
  fan.parasitics = {{K::Resistor, "DRV", "h", 120.0},
                    {K::Capacitor, "h", "0", 15e-15}};
  timing::Net join;
  join.name = "join";
  join.parasitics = {{K::Resistor, "DRV", "j", 250.0},
                     {K::Capacitor, "j", "0", 25e-15}};
  for (std::size_t w = 0; w < width; ++w) {
    std::string prev;
    for (int s = 0; s < depth; ++s) {
      const std::string name =
          "g" + std::to_string(w) + "_" + std::to_string(s);
      d.add_gate({name, 600.0 + 100.0 * static_cast<double>(w), 5e-15,
                  2e-12});
      if (s == 0) {
        fan.sink_node[name] = "h";
      } else {
        timing::Net net;
        net.name = name + "_in";
        net.parasitics = {
            {K::Resistor, "DRV", "w", 200.0 + 30.0 * s},
            {K::Capacitor, "w", "0", 20e-15}};
        net.sink_node[name] = "w";
        d.add_net(prev, net);
      }
      prev = name;
    }
    timing::Net last;
    last.name = "last" + std::to_string(w);
    last.parasitics = {{K::Resistor, "DRV", "v", 180.0},
                       {K::Capacitor, "v", "0", 18e-15}};
    last.sink_node["tail"] = "v";
    d.add_net(prev, last);
  }
  d.add_net("root", fan);
  // Design output from the tail gate.
  timing::Net out;
  out.name = "out";
  out.parasitics = {{K::Resistor, "DRV", "o", 100.0},
                    {K::Capacitor, "o", "0", 30e-15}};
  out.sink_node["OUT"] = "o";
  d.add_net("tail", out);
  return d;
}

void expect_same_report(const timing::TimingReport& a,
                        const timing::TimingReport& b) {
  EXPECT_EQ(a.critical_delay, b.critical_delay);
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.gate_arrival, b.gate_arrival);
  EXPECT_EQ(a.levels, b.levels);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const auto& sa = a.stages[i];
    const auto& sb = b.stages[i];
    EXPECT_EQ(sa.driver_gate, sb.driver_gate);
    EXPECT_EQ(sa.net, sb.net);
    EXPECT_EQ(sa.input_arrival, sb.input_arrival);
    EXPECT_EQ(sa.awe_order_used, sb.awe_order_used);
    ASSERT_EQ(sa.sinks.size(), sb.sinks.size());
    for (std::size_t k = 0; k < sa.sinks.size(); ++k) {
      EXPECT_EQ(sa.sinks[k].gate, sb.sinks[k].gate);
      EXPECT_EQ(sa.sinks[k].stage_delay, sb.sinks[k].stage_delay);
      EXPECT_EQ(sa.sinks[k].slew, sb.sinks[k].slew);
      EXPECT_EQ(sa.sinks[k].arrival, sb.sinks[k].arrival);
    }
  }
  // Integer work counters are part of the determinism contract; phase
  // wall times legitimately differ run to run.
  EXPECT_EQ(a.awe_stats.factorizations, b.awe_stats.factorizations);
  EXPECT_EQ(a.awe_stats.substitutions, b.awe_stats.substitutions);
  EXPECT_EQ(a.awe_stats.matches, b.awe_stats.matches);
  EXPECT_EQ(a.awe_stats.outputs, b.awe_stats.outputs);
  EXPECT_EQ(a.awe_stats.stages, b.awe_stats.stages);
}

}  // namespace

TEST(BatchEngine, MatchesPerOutputApproximateBitwise) {
  std::vector<circuit::NodeId> outs;
  auto ckt = tap_tree(outs, 12);

  core::EngineOptions options;
  options.order = 3;

  core::Engine batch_engine(ckt);
  const auto batch = batch_engine.approximate_all(outs, options);
  ASSERT_EQ(batch.results.size(), outs.size());

  // Reference: a completely independent engine, one approximate() per
  // output.
  core::Engine ref_engine(ckt);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const auto ref = ref_engine.approximate(outs[i], options);
    expect_identical(batch.results[i], ref);
  }
}

TEST(BatchEngine, MatchesPerOutputWithAutoOrderAndSlope) {
  std::vector<circuit::NodeId> outs;
  auto ckt = tap_tree(outs, 6);

  core::EngineOptions options;
  options.order = 2;
  options.auto_order = true;
  options.error_tolerance = 0.005;
  options.match_initial_slope = true;

  core::Engine batch_engine(ckt);
  const auto batch = batch_engine.approximate_all(outs, options);
  core::Engine ref_engine(ckt);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    expect_identical(batch.results[i],
                     ref_engine.approximate(outs[i], options));
  }
}

TEST(BatchEngine, SharesCircuitLevelWork) {
  std::vector<circuit::NodeId> outs;
  auto ckt = tap_tree(outs, 16);
  core::EngineOptions options;
  options.order = 3;

  core::Engine engine(ckt);
  const auto batch = engine.approximate_all(outs, options);
  // The circuit-level factorizations (one LU of G plus a handful of
  // sigma-limit shifts for the jump check) are independent of the output
  // count: far fewer than one per sink.
  EXPECT_GE(batch.stats.factorizations, 1u);
  EXPECT_LT(batch.stats.factorizations, outs.size());
  EXPECT_EQ(batch.stats.outputs, outs.size());
  EXPECT_GE(batch.stats.matches, 2 * outs.size());

  // A second batch on the same engine reuses everything: no new
  // factorizations or substitutions, only matches.
  const auto again = engine.approximate_all(outs, options);
  EXPECT_EQ(again.stats.factorizations, 0u);
  EXPECT_EQ(again.stats.substitutions, 0u);
  EXPECT_EQ(again.stats.outputs, outs.size());
}

TEST(BatchEngine, EmptyOutputsAndErrors) {
  std::vector<circuit::NodeId> outs;
  auto ckt = tap_tree(outs, 2);
  core::Engine engine(ckt);
  core::EngineOptions options;

  const auto batch =
      engine.approximate_all(std::span<const circuit::NodeId>{}, options);
  EXPECT_TRUE(batch.results.empty());

  options.order = 0;
  EXPECT_THROW(engine.approximate_all(outs, options),
               std::invalid_argument);
  options.order = 2;
  const circuit::NodeId ground[] = {circuit::kGround};
  EXPECT_THROW(engine.approximate_all(ground, options),
               std::invalid_argument);
}

TEST(ParallelAnalyzer, ReportIdenticalAcrossThreadCounts) {
  timing::Design design = lattice_design(5, 3);
  timing::AnalysisOptions base;
  base.threads = 1;
  const auto serial = design.analyze(base);

  // The lattice levelizes into root / chain stages / tail / output.
  EXPECT_GE(serial.levels, 4u);
  EXPECT_GT(serial.critical_delay, 0.0);
  ASSERT_FALSE(serial.critical_path.empty());
  EXPECT_EQ(serial.critical_path.front(), "root");
  EXPECT_EQ(serial.critical_path.back(), "OUT");

  for (int threads : {2, 8}) {
    timing::AnalysisOptions opt = base;
    opt.threads = threads;
    const auto parallel = design.analyze(opt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_report(serial, parallel);
  }
}

TEST(ParallelAnalyzer, MultiSinkNetUsesOneBatch) {
  timing::Design d;
  using K = timing::NetElement::Kind;
  d.add_gate({"drv", 1e3, 4e-15, 0.0});
  timing::Net net;
  net.name = "fork";
  net.parasitics = {{K::Resistor, "DRV", "a", 200.0},
                    {K::Capacitor, "a", "0", 20e-15},
                    {K::Resistor, "a", "b", 1e3},
                    {K::Capacitor, "b", "0", 60e-15}};
  net.sink_node["near"] = "a";
  net.sink_node["far"] = "b";
  d.add_gate({"near", 1e3, 5e-15, 0.0});
  d.add_gate({"far", 1e3, 5e-15, 0.0});
  d.add_net("drv", net);
  d.set_primary_input("drv");

  const auto report = d.analyze();
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.awe_stats.stages, 1u);
  EXPECT_EQ(report.awe_stats.outputs, 2u);
  // The whole two-sink stage runs on one factored system (the sigma
  // shifts for jump detection add a few, but nothing scales per sink).
  EXPECT_LE(report.awe_stats.factorizations, 12u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(ParallelAnalyzer, CycleStillDetectedAndErrorsPropagate) {
  timing::Design d;
  using K = timing::NetElement::Kind;
  d.add_gate({"a", 1e3, 1e-15, 0.0});
  d.add_gate({"b", 1e3, 1e-15, 0.0});
  timing::Net ab;
  ab.name = "ab";
  ab.parasitics = {{K::Resistor, "DRV", "w", 100.0},
                   {K::Capacitor, "w", "0", 1e-15}};
  ab.sink_node["b"] = "w";
  d.add_net("a", ab);
  timing::Net ba = ab;
  ba.name = "ba";
  ba.sink_node.clear();
  ba.sink_node["a"] = "w";
  d.add_net("b", ba);
  for (int threads : {1, 4}) {
    timing::AnalysisOptions opt;
    opt.threads = threads;
    // The analyzer throws a typed record with the loop path.
    EXPECT_THROW(d.analyze(opt), core::DiagnosticError);
  }
}

}  // namespace awesim
