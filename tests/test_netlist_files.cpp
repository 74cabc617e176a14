// The shipped netlist files in netlists/: they must parse, match the
// programmatic paper circuits, and analyze end to end.  Also exercises the
// writer round-trip at the whole-circuit level.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "netlist/parser.h"

#ifndef AWESIM_NETLIST_DIR
#define AWESIM_NETLIST_DIR "netlists"
#endif

namespace awesim {

namespace {

std::string netlist_path(const std::string& name) {
  return std::string(AWESIM_NETLIST_DIR) + "/" + name;
}

/// Parse a shipped file through the error-collecting API, asserting it
/// is clean.
circuit::Circuit parse_file_ok(const std::string& path) {
  netlist::ParseResult result = netlist::parse_file_collect(path);
  EXPECT_TRUE(result.ok()) << core::to_string(result.diagnostics);
  return std::move(result.circuit.value());
}

circuit::Circuit parse_ok(const std::string& text) {
  netlist::ParseResult result = netlist::parse_collect(text);
  EXPECT_TRUE(result.ok()) << core::to_string(result.diagnostics);
  return std::move(result.circuit.value());
}

}  // namespace

TEST(NetlistFiles, Fig4MatchesProgrammaticCircuit) {
  const auto file_ckt = parse_file_ok(netlist_path("fig4_rc_tree.sp"));
  auto code_ckt = circuits::fig4_rc_tree();
  core::Engine from_file(file_ckt);
  core::Engine from_code(code_ckt);
  EXPECT_NEAR(from_file.elmore_delay(file_ckt.find_node("n4")),
              from_code.elmore_delay(code_ckt.find_node("n4")), 1e-12);
  core::EngineOptions opt;
  opt.order = 2;
  const auto a = from_file.approximate(file_ckt.find_node("n4"), opt);
  const auto b = from_code.approximate(code_ckt.find_node("n4"), opt);
  for (double t : {0.1e-3, 0.5e-3, 2e-3}) {
    EXPECT_NEAR(a.approximation.value(t), b.approximation.value(t), 1e-9);
  }
}

TEST(NetlistFiles, Fig25MatchesProgrammaticPoles) {
  const auto file_ckt =
      parse_file_ok(netlist_path("fig25_rlc_ladder.sp"));
  auto code_ckt = circuits::fig25_rlc_ladder();
  core::Engine from_file(file_ckt);
  core::Engine from_code(code_ckt);
  const auto pa = from_file.actual_poles();
  const auto pb = from_code.actual_poles();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(std::abs(pa[i] - pb[i]), 0.0, 1e-3 * std::abs(pb[i]))
        << "pole " << i;
  }
}

TEST(NetlistFiles, CoupledBusAnalyzesEndToEnd) {
  const auto ckt = parse_file_ok(netlist_path("coupled_bus.sp"));
  // Subcircuit expansion happened: the wire segments exist.
  ASSERT_NE(ckt.find_element("X1.Rw"), nullptr);
  core::Engine engine(ckt);
  core::EngineOptions opt;
  opt.order = 3;
  // Victim far end: starts and ends quiet, bumps in between.
  const auto victim = engine.approximate(ckt.find_node("v2"), opt);
  EXPECT_TRUE(victim.stable);
  EXPECT_NEAR(victim.approximation.final_value(), 0.0, 1e-9);
  double peak = 0.0;
  for (int i = 0; i <= 2000; ++i) {
    peak = std::max(peak,
                    std::abs(victim.approximation.value(10e-9 * i / 2000.0)));
  }
  EXPECT_GT(peak, 0.01);  // visible coupled noise
  EXPECT_LT(peak, 2.5);   // but bounded well under the swing
}

TEST(NetlistFiles, WriterRoundTripsTheFig25File) {
  const auto original =
      parse_file_ok(netlist_path("fig25_rlc_ladder.sp"));
  const auto reparsed = parse_ok(netlist::write(original));
  core::Engine a(original);
  core::Engine b(reparsed);
  const auto pa = a.actual_poles();
  const auto pb = b.actual_poles();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(std::abs(pa[i] - pb[i]), 0.0, 1e-6 * std::abs(pb[i]));
  }
}

}  // namespace awesim
