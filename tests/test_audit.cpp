// The design-scope static audit (src/audit): the seeded-defect corpus
// under netlists/bad/audit/ must each trip exactly its rule at the
// exact file:line:column; every shipping netlist must audit with zero
// Errors (the false-positive sweep); the conditioning oracle must flag
// the paper's Fig. 20/21 raw-instability setup (nonequilibrium ICs on
// the stiff fig16 tree) and recommend the order window the paper
// found; the graph tier, repetition tier, eligibility precheck, and
// the awesim_audit CLI all round-trip.  Registered under the ctest
// label "audit".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/design_netlist.h"
#include "audit/report_json.h"
#include "check/oracle.h"
#include "circuits/paper_circuits.h"
#include "netlist/parser.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "reduce/hier.h"
#include "reduce/reduce.h"
#include "timing/analyzer.h"
#include "timing/design_graph.h"
#include "util/random_circuits.h"

namespace awesim::audit {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(AWESIM_NETLIST_DIR) + "/bad/audit/" + name;
}

std::string netlist_dir() { return std::string(AWESIM_NETLIST_DIR); }

const core::Diagnostic* find_code(const AuditReport& report,
                                  core::DiagCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

/// Parse a corpus design netlist and audit it; the parse must succeed
/// (corpus files are well-formed, only semantically defective).
AuditReport audit_corpus(const std::string& name,
                         const AuditOptions& options = {}) {
  const DesignParse parse = parse_design_file(corpus_path(name));
  EXPECT_TRUE(parse.design.has_value())
      << name << ": " << core::to_string(parse.diagnostics);
  if (!parse.design) return {};
  return audit_design(*parse.design, options, &parse.sources);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A minimal connectivity-only net: R from the driver hookup to node
/// `pin`, C to ground, every listed sink attached at `pin`.
timing::Net tiny_net(std::string name, const std::vector<std::string>& sinks,
                     const std::string& pin = "a") {
  timing::Net net;
  net.name = std::move(name);
  net.parasitics.push_back(
      {timing::NetElement::Kind::Resistor, "DRV", pin, 100.0});
  net.parasitics.push_back(
      {timing::NetElement::Kind::Capacitor, pin, "0", 10e-15});
  for (const auto& sink : sinks) net.sink_node[sink] = pin;
  return net;
}

// ---------------------------------------------------------------------
// Corpus: each file trips exactly its seeded defect, at the exact card.

TEST(AuditCorpus, CombinationalCycleIsErrorWithFullLoopPath) {
  const AuditReport report = audit_corpus("comb_cycle.sp");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.errors, 1u);
  const auto* d = find_code(report, core::DiagCode::CombinationalCycle);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Error);
  EXPECT_NE(d->message.find("g1 -> g2 -> g3 -> g1"), std::string::npos)
      << d->message;
  EXPECT_EQ(d->element, "g1");
  EXPECT_EQ(d->file, corpus_path("comb_cycle.sp"));
  EXPECT_EQ(d->line, 3u);  // the .gate g1 card
  EXPECT_EQ(d->column, 7u);
  ASSERT_EQ(report.graph.cycles.size(), 1u);
  EXPECT_EQ(report.graph.cycles[0].gates,
            (std::vector<std::string>{"g1", "g2", "g3"}));
}

TEST(AuditCorpus, UndrivenEndpointWarnsAtTheGateCard) {
  const AuditReport report = audit_corpus("undriven_endpoint.sp");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings, 1u);
  const auto* d = find_code(report, core::DiagCode::UndrivenEndpoint);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "u1");
  EXPECT_EQ(d->line, 3u);  // the .gate u1 card
  EXPECT_EQ(d->column, 7u);
}

TEST(AuditCorpus, FanoutBombWarnsAtTheNetCard) {
  const AuditReport report = audit_corpus("fanout_bomb.sp");
  EXPECT_TRUE(report.ok());
  const auto* d = find_code(report, core::DiagCode::FanoutExplosion);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "n_bomb");
  EXPECT_EQ(d->line, 4u);  // the .net card
  EXPECT_EQ(d->column, 10u);
  ASSERT_EQ(report.graph.fanout_explosions.size(), 1u);
  EXPECT_EQ(report.graph.fanout_explosions[0].fanout, 40u);
  // A higher threshold silences the rule.
  AuditOptions relaxed;
  relaxed.graph.fanout_threshold = 64;
  const AuditReport quiet = audit_corpus("fanout_bomb.sp", relaxed);
  EXPECT_EQ(find_code(quiet, core::DiagCode::FanoutExplosion), nullptr);
}

TEST(AuditCorpus, IllConditionedLadderTripsTheOracle) {
  const AuditReport report = audit_corpus("ill_conditioned_ladder.sp");
  EXPECT_TRUE(report.ok());
  const auto* d = find_code(report, core::DiagCode::ConditioningHazard);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "n_stiff");
  EXPECT_EQ(d->line, 5u);  // the .net card
  EXPECT_EQ(d->column, 10u);
  EXPECT_GT(d->condition_estimate, 1e30);
  const NetAssessment* stiff = nullptr;
  for (const auto& net : report.nets) {
    if (net.net == "n_stiff") stiff = &net;
  }
  ASSERT_NE(stiff, nullptr);
  EXPECT_TRUE(stiff->estimate.rc_tree);
  EXPECT_GT(stiff->estimate.spread, 1e7);  // ~8 decades of tau spread
  EXPECT_TRUE(stiff->estimate.hazard);
  EXPECT_EQ(stiff->estimate.min_safe_order, 1);
  EXPECT_EQ(stiff->estimate.max_safe_order, 1);
}

TEST(AuditCorpus, IsomorphicPairCollapsesToOneRepetitionGroup) {
  const AuditReport report = audit_corpus("iso_pair.sp");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings, 0u);
  const auto* d = find_code(report, core::DiagCode::RepeatedStructure);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Info);
  EXPECT_EQ(d->element, "n_a");
  EXPECT_EQ(d->line, 9u);  // the representative's .net card
  EXPECT_EQ(d->column, 9u);
  ASSERT_EQ(report.repeated.size(), 1u);
  EXPECT_EQ(report.repeated[0].representative, "n_a");
  EXPECT_EQ(report.repeated[0].members,
            (std::vector<std::string>{"n_a", "n_b"}));
  EXPECT_TRUE(report.near_misses.empty());
}

TEST(AuditCorpus, NearMissPairPointsAtTheDifferingCard) {
  const AuditReport report = audit_corpus("near_miss_pair.sp");
  EXPECT_TRUE(report.ok());
  const auto* d = find_code(report, core::DiagCode::NearDuplicate);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "n_d");
  EXPECT_EQ(d->line, 20u);  // n_d's C2 card -- the one value that differs
  EXPECT_EQ(d->column, 1u);
  ASSERT_EQ(report.near_misses.size(), 1u);
  const NearMiss& miss = report.near_misses[0];
  EXPECT_EQ(miss.net_a, "n_c");
  EXPECT_EQ(miss.net_b, "n_d");
  EXPECT_EQ(miss.element_index, 3u);
  EXPECT_DOUBLE_EQ(miss.value_a, 1.2e-14);
  EXPECT_DOUBLE_EQ(miss.value_b, 1.3e-14);
  EXPECT_TRUE(report.repeated.empty());  // not an exact group
}

// ---------------------------------------------------------------------
// False-positive sweep: every shipping netlist audits with zero Errors.

TEST(AuditSweep, ShippingNetlistsAuditWithZeroErrors) {
  std::size_t swept = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(netlist_dir())) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".sp") continue;
    const std::string path = entry.path().string();
    const std::string text = read_file(path);
    AuditReport report;
    if (looks_like_design(text)) {
      const DesignParse parse = parse_design(text, path);
      ASSERT_TRUE(parse.design.has_value()) << path;
      report = audit_design(*parse.design, {}, &parse.sources);
    } else {
      const netlist::ParseResult parse = netlist::parse_collect(text, path);
      ASSERT_TRUE(parse.ok()) << path;
      report = audit_circuit(*parse.circuit, {}, path);
    }
    EXPECT_EQ(report.errors, 0u)
        << path << ":\n" << core::to_string(report.diagnostics);
    ++swept;
  }
  EXPECT_GE(swept, 3u);  // fig4, fig25, coupled_bus at minimum
}

TEST(AuditSweep, PaperCircuitsAuditWithZeroErrors) {
  const circuit::Circuit circuits[] = {
      circuits::fig4_rc_tree(), circuits::fig9_grounded_resistor(),
      circuits::fig16_mos_interconnect(), circuits::fig25_rlc_ladder()};
  for (const auto& c : circuits) {
    const AuditReport report = audit_circuit(c);
    EXPECT_EQ(report.errors, 0u) << core::to_string(report.diagnostics);
  }
}

// ---------------------------------------------------------------------
// The conditioning oracle vs the paper: Figs. 20/21 drive fig16's stiff
// tree from a 5 V nonequilibrium initial condition on C6; the q=1
// (Elmore) answer is ~150% off while q=2 lands at 0.65%.  The oracle
// must demand order >= 2 exactly when the ICs are nonequilibrium.

TEST(Oracle, Fig20NonequilibriumIcDemandsSecondOrder) {
  circuits::Drive drive;
  drive.rise_time = 1e-9;
  const circuit::Circuit hot = circuits::fig16_mos_interconnect(drive, 5.0);
  check::OracleOptions order1;
  order1.target_order = 1;
  const check::ConditioningEstimate est = check::assess_circuit(hot, order1);
  EXPECT_TRUE(est.nonequilibrium_ic);
  EXPECT_GE(est.min_safe_order, 2);
  EXPECT_TRUE(est.hazard);  // q=1 sits below the safe window
  // The same tree at equilibrium is happy with first order.
  const circuit::Circuit cold = circuits::fig16_mos_interconnect(drive, 0.0);
  const check::ConditioningEstimate calm =
      check::assess_circuit(cold, order1);
  EXPECT_FALSE(calm.nonequilibrium_ic);
  EXPECT_EQ(calm.min_safe_order, 1);
}

TEST(Oracle, SinglePoleCircuitIsPerfectlyConditioned) {
  const char* kRc = "V1 in 0 5\nR1 in out 1k\nC1 out 0 1p\n";
  const netlist::ParseResult parse = netlist::parse_collect(kRc);
  ASSERT_TRUE(parse.ok());
  const check::ConditioningEstimate est =
      check::assess_circuit(*parse.circuit);
  EXPECT_TRUE(est.rc_tree);
  EXPECT_EQ(est.tau_count, 1u);
  EXPECT_DOUBLE_EQ(est.spread, 1.0);
  EXPECT_NEAR(est.elmore_delay, 1e-9, 1e-12);
  EXPECT_NEAR(est.moment_ratio, 1.0, 1e-9);
  EXPECT_FALSE(est.hazard);
}

TEST(Oracle, HankelConditionGrowsAsSpreadToTheTwoQMinusTwo) {
  EXPECT_DOUBLE_EQ(check::hankel_condition(1.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(check::hankel_condition(10.0, 2), 100.0);
  EXPECT_DOUBLE_EQ(check::hankel_condition(10.0, 3), 1e4);
  EXPECT_GT(check::hankel_condition(1e8, 3), 1e30);
  // Clamped, never infinite.
  EXPECT_LT(check::hankel_condition(1e200, 6), 1e301);
}

// ---------------------------------------------------------------------
// Graph tier on hand-built designs.

TEST(DesignGraph, IsolatedCycleIsBothCycleAndDeadLogic) {
  timing::Design d;
  d.add_gate({"in"});
  d.add_gate({"g1"});
  d.add_gate({"g2"});
  d.set_primary_input("in");
  d.add_net("in", tiny_net("n_in", {"out"}));
  d.add_net("g1", tiny_net("n1", {"g2"}));
  d.add_net("g2", tiny_net("n2", {"g1"}));
  const timing::GraphFindings f = timing::audit_graph(d);
  ASSERT_EQ(f.cycles.size(), 1u);
  EXPECT_EQ(f.cycles[0].gates, (std::vector<std::string>{"g1", "g2"}));
  // Neither cycle member has zero fan-in, so neither is "undriven" --
  // they are unreachable from every source instead.
  EXPECT_TRUE(f.undriven.empty());
  EXPECT_EQ(f.unreachable, (std::vector<std::string>{"g1", "g2"}));
}

TEST(DesignGraph, SinklessNetIsDroppedWork) {
  timing::Design d;
  d.add_gate({"in"});
  d.set_primary_input("in");
  d.add_net("in", tiny_net("n_dangling", {}));
  const timing::GraphFindings f = timing::audit_graph(d);
  EXPECT_EQ(f.sinkless_nets, (std::vector<std::string>{"n_dangling"}));
}

TEST(DesignGraph, ReconvergentDiamondCountsPaths) {
  // in -> {b, c} -> d: two source-to-pin paths into d.
  timing::Design d;
  d.add_gate({"in"});
  d.add_gate({"b"});
  d.add_gate({"c"});
  d.add_gate({"d"});
  d.set_primary_input("in");
  d.add_net("in", tiny_net("n0", {"b", "c"}));
  d.add_net("b", tiny_net("n1", {"d"}));
  d.add_net("c", tiny_net("n2", {"d"}));
  d.add_net("d", tiny_net("n3", {"out"}));
  timing::DesignGraphOptions options;
  options.reconvergence_paths = 2;
  const timing::GraphFindings f = timing::audit_graph(d, options);
  ASSERT_EQ(f.reconvergences.size(), 1u);
  EXPECT_EQ(f.reconvergences[0].gate, "d");
  EXPECT_EQ(f.reconvergences[0].paths, 2u);
  EXPECT_EQ(f.reconvergences[0].depth, 2u);
  // Default threshold (1024) stays quiet on a diamond.
  EXPECT_TRUE(timing::audit_graph(d).reconvergences.empty());
}

// ---------------------------------------------------------------------
// The analyzer's cycle error: a cyclic design throws the typed record
// with the loop path.

TEST(Preflight, CyclicDesignThrowsTypedDiagnosticWithLoopPath) {
  timing::Design d;
  d.add_gate({"a"});
  d.add_gate({"b"});
  d.add_net("a", tiny_net("nab", {"b"}));
  d.add_net("b", tiny_net("nba", {"a"}));
  try {
    d.analyze({});
    FAIL() << "expected DiagnosticError";
  } catch (const core::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().code, core::DiagCode::CombinationalCycle);
    EXPECT_NE(e.diagnostic().message.find("a -> b -> a"),
              std::string::npos)
        << e.diagnostic().message;
  }
}

// A harmless loop through a primary input (a <-> b, `.input a`) next to
// a real loop (c <-> d): the error names the loop that blocks
// levelization, and the audit reports that loop alone.
TEST(Preflight, CycleErrorNamesTheLoopThatBlocksLevelization) {
  timing::Design d;
  for (const char* g : {"a", "b", "c", "d"}) d.add_gate({g});
  d.set_primary_input("a");
  d.add_net("a", tiny_net("nab", {"b"}));
  d.add_net("b", tiny_net("nba", {"a"}));
  d.add_net("c", tiny_net("ncd", {"d"}));
  d.add_net("d", tiny_net("ndc", {"c"}));
  try {
    d.analyze({});
    FAIL() << "expected DiagnosticError";
  } catch (const core::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().code, core::DiagCode::CombinationalCycle);
    EXPECT_EQ(e.diagnostic().message, "combinational cycle: c -> d -> c");
    EXPECT_EQ(e.diagnostic().element, "c");
  }
  const timing::GraphFindings f = timing::audit_graph(d);
  ASSERT_EQ(f.cycles.size(), 1u);
  EXPECT_EQ(f.cycles[0].gates, (std::vector<std::string>{"c", "d"}));
}

// Audit behaviour under the shared edge rule (arcs into a source are
// not edges).  A loop through a declared primary input is not an Error:
// analyze() accepts it.
TEST(DesignGraph, LoopThroughPrimaryInputIsNotACycle) {
  timing::Design d;
  d.add_gate({"a"});
  d.add_gate({"b"});
  d.set_primary_input("a");
  d.add_net("a", tiny_net("nab", {"b"}));
  d.add_net("b", tiny_net("nba", {"a", "out"}));
  const AuditReport report = audit_design(d);
  EXPECT_TRUE(report.graph.cycles.empty());
  EXPECT_EQ(find_code(report, core::DiagCode::CombinationalCycle), nullptr);
  EXPECT_TRUE(report.graph.unreachable.empty());
  EXPECT_NO_THROW(d.analyze({}));
}

// A driven primary input starts its own path count (paths 1, depth 0),
// as k_worst_paths starts every path at a source.
TEST(DesignGraph, DrivenPrimaryInputStartsItsOwnPathCount) {
  // in -> {x, y} -> p (declared input) -> q.
  timing::Design d;
  for (const char* g : {"in", "p", "q", "x", "y"}) d.add_gate({g});
  d.set_primary_input("in");
  d.set_primary_input("p");
  d.add_net("in", tiny_net("n0", {"x", "y"}));
  d.add_net("x", tiny_net("n1", {"p"}));
  d.add_net("y", tiny_net("n2", {"p"}));
  d.add_net("p", tiny_net("n3", {"q"}));
  timing::DesignGraphOptions options;
  options.reconvergence_paths = 1;  // report every counted gate
  const timing::GraphFindings f = timing::audit_graph(d, options);
  std::map<std::string, std::pair<std::size_t, std::size_t>> counts;
  for (const auto& rec : f.reconvergences) {
    counts[rec.gate] = {rec.paths, rec.depth};
  }
  using Count = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(counts.at("p"), (Count{1, 0}));
  EXPECT_EQ(counts.at("q"), (Count{1, 1}));
  EXPECT_EQ(counts.at("x"), (Count{1, 1}));
  options.reconvergence_paths = 2;
  EXPECT_TRUE(timing::audit_graph(d, options).reconvergences.empty());
}

// ---------------------------------------------------------------------
// Content classes: what one class shares and what stays per instance.

/// A design of one gate per net plus the sink gates, every gate with
/// the given drive resistance and pin cap unless named in `cin`.
timing::Design gate_design(const std::vector<std::string>& gates,
                           const std::map<std::string, double>& cin = {}) {
  timing::Design design;
  for (const std::string& name : gates) {
    timing::Gate g;
    g.name = name;
    g.drive_resistance = 400.0;
    const auto it = cin.find(name);
    if (it != cin.end()) g.input_capacitance = it->second;
    design.add_gate(g);
  }
  return design;
}

TEST(AuditClasses, NetCarryingMacrosIsItsOwnClass) {
  const auto stage = timing::testutil::rc_line_design(41, 30);
  timing::Net plain = stage.design.net_at(0);
  plain.name = "plain";
  timing::Net with_macro = plain;
  with_macro.name = "with_macro";
  with_macro.sink_node.clear();
  with_macro.sink_node["snk2"] = plain.sink_node.at("snk");
  timing::NetMacro macro;
  macro.ports = {"DRV"};
  macro.g = {1e-3};
  macro.c = {0.0};
  with_macro.macros.push_back(macro);
  timing::Design design = gate_design({"drv", "drv2", "snk", "snk2"});
  design.set_primary_input("drv");
  design.set_primary_input("drv2");
  design.add_net("drv", plain);
  design.add_net("drv2", with_macro);

  const AuditReport report = audit_design(design);
  ASSERT_EQ(report.nets.size(), 2u);
  EXPECT_EQ(report.nets[0].eligibility, reduce::Eligibility::Eligible);
  EXPECT_EQ(report.nets[1].eligibility, reduce::Eligibility::HasMacros);
  EXPECT_TRUE(report.repeated.empty());
  EXPECT_EQ(find_code(report, core::DiagCode::RepeatedStructure), nullptr);
}

TEST(AuditClasses, NearMissNanSemanticsAreKept) {
  // Two instances of one cell are one content class (equal value bits),
  // yet their values compare unequal wherever the cell holds a NaN: one
  // NaN reads as a one-value near-miss at that element, two as none.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto audit_pair = [&](double c1, double c2) {
    timing::Net cell;
    cell.parasitics = {
        timing::testutil::r("DRV", "a", 100.0),
        timing::testutil::c("a", c1),
        timing::testutil::r("a", "S", 50.0),
        timing::testutil::c("S", c2),
    };
    timing::Net first = cell;
    first.name = "n_first";
    first.sink_node = {{"s1", "S"}};
    timing::Net second = cell;
    second.name = "n_second";
    second.sink_node = {{"s2", "S"}};
    timing::Design design = gate_design({"d1", "d2", "s1", "s2"});
    design.set_primary_input("d1");
    design.set_primary_input("d2");
    design.add_net("d1", first);
    design.add_net("d2", second);
    AuditOptions options;
    options.conditioning = false;
    return audit_design(design, options);
  };

  const AuditReport one = audit_pair(2e-15, nan);
  ASSERT_EQ(one.repeated.size(), 1u);
  ASSERT_EQ(one.near_misses.size(), 1u);
  EXPECT_EQ(one.near_misses[0].net_a, "n_first");
  EXPECT_EQ(one.near_misses[0].net_b, "n_second");
  EXPECT_EQ(one.near_misses[0].element_index, 3u);
  EXPECT_TRUE(std::isnan(one.near_misses[0].value_a));
  EXPECT_TRUE(std::isnan(one.near_misses[0].value_b));
  EXPECT_NE(find_code(one, core::DiagCode::NearDuplicate), nullptr);

  const AuditReport two = audit_pair(nan, nan);
  ASSERT_EQ(two.repeated.size(), 1u);
  EXPECT_TRUE(two.near_misses.empty());
  EXPECT_EQ(find_code(two, core::DiagCode::NearDuplicate), nullptr);

  const AuditReport none = audit_pair(2e-15, 3e-15);
  ASSERT_EQ(none.repeated.size(), 1u);
  EXPECT_TRUE(none.near_misses.empty());
}

TEST(AuditClasses, PermutedSinkPinsGetTheirOwnEstimate) {
  // One RC tree cell with two sinks; both nets attach a 1 fF and a 9 fF
  // pin, but at swapped nodes (the sink gates sort the other way).
  timing::Net cell;
  cell.parasitics = {
      timing::testutil::r("DRV", "a", 100.0),
      timing::testutil::r("a", "S0", 50.0),
      timing::testutil::r("DRV", "b", 3000.0),
      timing::testutil::r("b", "S1", 20.0),
      timing::testutil::c("a", 2e-15),
      timing::testutil::c("b", 4e-15),
  };
  timing::Net first = cell;
  first.name = "n_first";
  first.sink_node = {{"a1", "S1"}, {"b9", "S0"}};
  timing::Net second = cell;
  second.name = "n_second";
  second.sink_node = {{"c1", "S0"}, {"d9", "S1"}};
  timing::Design design =
      gate_design({"d1", "d2", "a1", "b9", "c1", "d9"},
                  {{"a1", 1e-15}, {"b9", 9e-15}, {"c1", 1e-15},
                   {"d9", 9e-15}});
  design.set_primary_input("d1");
  design.set_primary_input("d2");
  design.add_net("d1", first);
  design.add_net("d2", second);

  const AuditReport report = audit_design(design);
  ASSERT_EQ(report.nets.size(), 2u);
  ASSERT_EQ(report.repeated.size(), 1u);  // one content class
  for (std::size_t i = 0; i < 2; ++i) {
    const timing::Net& net = design.net_at(i);
    check::OracleInput input;
    input.source = "src";
    input.elements.push_back(
        {check::OracleElement::Kind::Resistor, "src", "DRV", 400.0});
    for (const timing::NetElement& e : net.parasitics) {
      input.elements.push_back(
          {e.kind == timing::NetElement::Kind::Resistor
               ? check::OracleElement::Kind::Resistor
               : check::OracleElement::Kind::Capacitor,
           e.node_a, e.node_b, e.value});
    }
    for (const auto& [gate, node] : net.sink_node) {
      input.elements.push_back({check::OracleElement::Kind::Capacitor, node,
                                "0",
                                design.gates().at(gate).input_capacitance});
    }
    const check::ConditioningEstimate want = check::assess(input);
    const check::ConditioningEstimate& got = report.nets[i].estimate;
    EXPECT_TRUE(got.rc_tree);
    EXPECT_EQ(got.tau_count, want.tau_count);
    EXPECT_EQ(got.tau_min, want.tau_min) << net.name;
    EXPECT_EQ(got.tau_max, want.tau_max) << net.name;
    EXPECT_EQ(got.elmore_delay, want.elmore_delay) << net.name;
    EXPECT_EQ(got.moment_ratio, want.moment_ratio) << net.name;
    EXPECT_EQ(got.detail, want.detail);
  }
  EXPECT_NE(report.nets[0].estimate.tau_max, report.nets[1].estimate.tau_max);
}

/// Records the audit's spans under `options` and returns the count of
/// each audit.* phase (absent phases count 0).
std::map<std::string, std::uint64_t> audit_span_counts(
    const timing::Design& design, const AuditOptions& options) {
  const bool was_enabled = obs::tracing_enabled();
  obs::set_tracing(true);
  obs::reset_phases();
  audit_design(design, options);
  const obs::PhaseBreakdown phases = obs::snapshot();
  obs::set_tracing(was_enabled);
  obs::reset_phases();
  std::map<std::string, std::uint64_t> counts;
  for (const char* name : {"audit.graph", "audit.classes", "audit.cell",
                           "audit.conditioning", "audit.repetition"}) {
    counts[name] = 0;
  }
  for (const obs::NamedPhaseStats& p : phases) {
    if (p.name.rfind("audit.", 0) == 0) counts[p.name] = p.stats.count;
  }
  return counts;
}

TEST(AuditSpans, OneCellSpanPerContentClassAndOneSpanPerTier) {
  if (!obs::tracing_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  // 400 nets instantiating 24 cells; every gate has its own rdrive and
  // cin, so no two nets share an electrical context.
  constexpr int kNets = 400;
  constexpr int kCells = 24;
  std::vector<timing::Net> cells;
  for (int c = 0; c < kCells; ++c) {
    cells.push_back(timing::testutil::rc_tree_design(
                        static_cast<std::uint32_t>(100 + c), 12)
                        .design.net_at(0));
  }
  timing::Design design;
  for (int i = 0; i <= kNets; ++i) {
    timing::Gate g;
    g.name = "g" + std::to_string(i);
    g.drive_resistance = 200.0 + i;
    g.input_capacitance = (2.0 + 0.01 * i) * 1e-15;
    design.add_gate(g);
  }
  design.set_primary_input("g0");
  for (int i = 0; i < kNets; ++i) {
    timing::Net net = cells[static_cast<std::size_t>(i % kCells)];
    net.name = "n" + std::to_string(i);
    // Every sink of the cell is a pin of the next gate's instance: keep
    // the hookup nodes, rename the sink gates to design outputs except
    // the first, which drives the chain on.
    std::map<std::string, std::string> sinks;
    int k = 0;
    for (const auto& [gate, node] : net.sink_node) {
      (void)gate;
      sinks[k++ == 0 ? "g" + std::to_string(i + 1)
                     : "o" + std::to_string(i) + "_" + std::to_string(k)] =
          node;
    }
    net.sink_node = std::move(sinks);
    design.add_net("g" + std::to_string(i), std::move(net));
  }

  const auto all = audit_span_counts(design, {});
  EXPECT_EQ(all.at("audit.cell"), static_cast<std::uint64_t>(kCells));
  EXPECT_EQ(all.at("audit.graph"), 1u);
  EXPECT_EQ(all.at("audit.classes"), 1u);
  EXPECT_EQ(all.at("audit.conditioning"), 1u);
  EXPECT_EQ(all.at("audit.repetition"), 1u);

  for (int mask = 0; mask < 8; ++mask) {
    AuditOptions options;
    options.graph_rules = (mask & 1) != 0;
    options.conditioning = (mask & 2) != 0;
    options.repetition = (mask & 4) != 0;
    SCOPED_TRACE(mask);
    const auto counts = audit_span_counts(design, options);
    EXPECT_EQ(counts.at("audit.graph"), options.graph_rules ? 1u : 0u);
    EXPECT_EQ(counts.at("audit.conditioning"),
              options.conditioning ? 1u : 0u);
    EXPECT_EQ(counts.at("audit.repetition"), options.repetition ? 1u : 0u);
    EXPECT_EQ(counts.at("audit.cell"),
              options.conditioning ? static_cast<std::uint64_t>(kCells) : 0u);
    EXPECT_EQ(counts.at("audit.classes"),
              options.conditioning || options.repetition ? 1u : 0u);
  }
}

// ---------------------------------------------------------------------
// Eligibility precheck (tier-2 input, and the HierSession fast path).

TEST(Eligibility, ClassifiesTheRefusalLadder) {
  using reduce::Eligibility;
  const auto stage = timing::testutil::rc_line_design(11, 240);
  const timing::Net& big = stage.design.net_at(0);
  EXPECT_EQ(reduce::net_eligibility(big), Eligibility::Eligible);

  const auto small = timing::testutil::rc_line_design(7, 4);
  EXPECT_EQ(reduce::net_eligibility(small.design.net_at(0)),
            Eligibility::InteriorTooSmall);

  timing::Net rlc = big;
  rlc.parasitics.push_back(
      {timing::NetElement::Kind::Inductor, "DRV", "0", 1e-9});
  EXPECT_EQ(reduce::net_eligibility(rlc), Eligibility::NonRc);

  EXPECT_STREQ(reduce::to_string(Eligibility::Eligible), "eligible");
  EXPECT_STREQ(reduce::to_string(Eligibility::InteriorTooSmall),
               "interior-too-small");
  EXPECT_STREQ(reduce::to_string(Eligibility::NonRc), "non-rc");
}

TEST(Eligibility, HierSessionSkipsIneligibleNetsWithoutStoreTraffic) {
  const auto stage = timing::testutil::rc_line_design(7, 4);
  reduce::HierSession hier(stage.design);
  hier.analyze();
  const reduce::HierSession::Stats stats = hier.stats();
  EXPECT_EQ(stats.eligibility_skips, 1u);
  EXPECT_EQ(stats.reductions_performed, 0u);
  EXPECT_EQ(stats.nets_reduced, 0u);
}

// ---------------------------------------------------------------------
// The design-netlist parser: all-errors discipline with locations.

TEST(DesignNetlist, ParseErrorsCarryExactLocations) {
  const char* kBroken =
      ".gate g1 rdrive=1k cin=5f\n"
      ".input g1\n"
      ".net g1\n"           // missing net name
      "R1 DRV a nonsense\n"  // bad value
      ".endnet\n";
  const DesignParse parse = parse_design(kBroken, "broken.sp");
  EXPECT_FALSE(parse.design.has_value());
  ASSERT_GE(parse.diagnostics.size(), 2u);
  for (const auto& d : parse.diagnostics) {
    EXPECT_EQ(d.code, core::DiagCode::ParseError);
    EXPECT_EQ(d.file, "broken.sp");
    EXPECT_GT(d.line, 0u);
    EXPECT_GT(d.column, 0u);
  }
  EXPECT_EQ(parse.diagnostics[0].line, 3u);
  EXPECT_EQ(parse.diagnostics[1].line, 4u);
}

TEST(DesignNetlist, FlatSpiceIsNotADesign) {
  EXPECT_FALSE(looks_like_design("V1 in 0 5\nR1 in out 1k\n"));
  EXPECT_TRUE(looks_like_design("* header\n.GATE g1 rdrive=1k\n"));
}

TEST(DesignNetlist, ValuesMatchParseValueBitwise) {
  // Plain decimals take the std::from_chars path, everything else
  // netlist::parse_value; either way a card must read exactly what
  // parse_value reads, and fail with exactly its message.
  const std::vector<std::string> tokens = {
      "1", "1.5", "-2.5", "+5", ".5", "5.", "-.5", "007", "1e3", "1E3",
      "1e-15", "2.5e+12", "1.23457e-15", "6.02214076e23",
      "0.1", "0.30000000000000004", "9007199254740993", "1e308", "0",
      "-0", "0.0", "1e-310", "1e-400", "1e400", "inf", "nan", "10f",
      "10F", "3.3p", "10pF", "12.5fF", "2meg", "2MEG", "2Meg", "4.7k",
      "4.7K", "1u", "5m", "1g", "1t", "1n", "", "abc", "1x", "1e", "1e+",
      ".", "-", "+", "0x1p3", "1,5", "1..2", "1e3.5", "--1"};
  for (const std::string& token : tokens) {
    const std::string text = ".gate g rdrive=" + token +
                             "\n.gate h\n.input g\n.net g n\nR1 DRV a " +
                             (token.empty() ? std::string("\"\"") : token) +
                             "\n.sink h a\n.endnet\n";
    const DesignParse parse = parse_design(text, "values.sp");
    double expected = 0.0;
    std::string error;
    try {
      expected = netlist::parse_value(token);
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
    if (error.empty()) {
      ASSERT_TRUE(parse.design.has_value())
          << token << ": " << core::to_string(parse.diagnostics);
      const double rdrive = parse.design->gates().at("g").drive_resistance;
      const double element = parse.design->net_at(0).parasitics.at(0).value;
      EXPECT_EQ(std::memcmp(&rdrive, &expected, sizeof(double)), 0) << token;
      EXPECT_EQ(std::memcmp(&element, &expected, sizeof(double)), 0)
          << token;
    } else {
      EXPECT_FALSE(parse.design.has_value()) << token;
      ASSERT_FALSE(parse.diagnostics.empty()) << token;
      EXPECT_EQ(parse.diagnostics[0].message, error) << token;
      EXPECT_EQ(parse.diagnostics[0].line, 1u) << token;
      EXPECT_EQ(parse.diagnostics[0].column, 16u) << token;  // the value
    }
  }
}

TEST(DesignNetlist, EveryElementReportsItsExactLineColumn) {
  // Three nets with indented cards, comments, blank lines and CRLF line
  // ends; every element's recorded card must be exactly where it was
  // written.
  struct Expected {
    std::string net;
    std::size_t line;
    std::size_t column;
  };
  std::vector<Expected> expected;
  std::string text = "* header\n.gate d1\n.gate d2\n.gate s1\n.input d1\n";
  std::size_t line = 5;
  auto add = [&](const std::string& card) {
    text += card;
    ++line;
  };
  for (int n = 0; n < 3; ++n) {
    const std::string net = "net" + std::to_string(n);
    add(".net " + std::string(n == 1 ? "d2" : "d1") + " " + net + "\n");
    for (int e = 0; e < 4 + n; ++e) {
      const std::string indent(static_cast<std::size_t>((e * 3 + n) % 5),
                               e % 2 == 0 ? ' ' : '\t');
      if (e == 2) add("\n");
      if (e == 3) add("  * a comment between cards\n");
      const std::string node = "m" + std::to_string(e);
      add(indent + (e % 2 == 0 ? "R" : "C") + std::to_string(e) + " " +
          (e % 2 == 0 ? "DRV " + node + " 1k" : node + " 0 2f") +
          (n == 2 ? "\r\n" : "\n"));
      expected.push_back({net, line, indent.size() + 1});
    }
    add(".sink s1 m0\n");
    add(".endnet\n");
  }
  const DesignParse parse = parse_design(text, "located.sp");
  ASSERT_TRUE(parse.design.has_value()) << core::to_string(parse.diagnostics);
  std::map<std::string, std::size_t> next_index;
  for (const Expected& want : expected) {
    const std::size_t index = next_index[want.net]++;
    const circuit::SourceLoc loc = parse.sources.element_loc(want.net, index);
    EXPECT_EQ(loc.file, "located.sp");
    EXPECT_EQ(loc.line, want.line) << want.net << "[" << index << "]";
    EXPECT_EQ(loc.column, want.column) << want.net << "[" << index << "]";
  }
  for (const auto& [net, count] : next_index) {
    EXPECT_FALSE(parse.sources.element_loc(net, count).known()) << net;
  }
  EXPECT_FALSE(parse.sources.element_loc("no_such_net", 0).known());
  EXPECT_EQ(parse.sources.gate_loc("d2").line, 3u);
  EXPECT_EQ(parse.sources.gate_loc("d2").column, 7u);
  EXPECT_EQ(parse.sources.net_loc("net0").line, 6u);
  EXPECT_EQ(parse.sources.net_loc("net0").column, 9u);
  EXPECT_FALSE(parse.sources.gate_loc("nobody").known());
}

TEST(DesignNetlist, ParseIsTracedAsOneSpan) {
  if (!obs::tracing_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  const bool was_enabled = obs::tracing_enabled();
  obs::set_tracing(true);
  obs::reset_phases();
  parse_design(".gate g1\n.gate g2\n.net g1 n\nR1 DRV a 1k\n.endnet\n",
               "traced.sp");
  const obs::PhaseBreakdown phases = obs::snapshot();
  obs::set_tracing(was_enabled);
  obs::reset_phases();
  std::uint64_t count = 0;
  for (const obs::NamedPhaseStats& p : phases) {
    if (p.name == "audit.parse") count = p.stats.count;
  }
  EXPECT_EQ(count, 1u);
}

// Every diagnostic of the seeded-defect corpus, parse and audit tiers,
// pinned as text (file names reduced to their base name).  Regenerate
// deliberately with:
//   AWESIM_REGEN_GOLDEN=1 ./test_audit
//       --gtest_filter='*CorpusDiagnosticsMatchGolden*'
TEST(AuditCorpus, CorpusDiagnosticsMatchGolden) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(netlist_dir()) / "bad" / "audit")) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_FALSE(names.empty());
  std::string rendered;
  auto render = [&](core::Diagnostic d) {
    d.file = std::filesystem::path(d.file).filename().string();
    rendered += d.to_string() + "\n";
  };
  for (const std::string& name : names) {
    rendered += "== " + name + "\n";
    const DesignParse parse = parse_design_file(corpus_path(name));
    for (const core::Diagnostic& d : parse.diagnostics) render(d);
    if (!parse.design) continue;
    const AuditReport report = audit_design(*parse.design, {}, &parse.sources);
    for (const core::Diagnostic& d : report.diagnostics) render(d);
  }

  const std::string path =
      std::string(AWESIM_GOLDEN_DIR) + "/audit_corpus.txt";
  if (std::getenv("AWESIM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << path;
  EXPECT_EQ(rendered, golden);
}

// ---------------------------------------------------------------------
// The standalone CLI: exit codes and --json round-trip.

TEST(AuditCli, ExitCodesFollowTheSeverityContract) {
  const struct {
    const char* file;
    int exit_code;
  } cases[] = {
      {"comb_cycle.sp", 2},        // errors
      {"undriven_endpoint.sp", 1}, // warnings only
      {"iso_pair.sp", 0},          // infos only
  };
  for (const auto& c : cases) {
    const std::string cmd = std::string(AWESIM_AUDIT_BIN) + " " +
                            corpus_path(c.file) + " > /dev/null";
    const int rc = std::system(cmd.c_str());
    ASSERT_NE(rc, -1);
    EXPECT_EQ(WEXITSTATUS(rc), c.exit_code) << c.file;
  }
}

TEST(AuditCli, JsonOutputRoundTripsThroughObsParser) {
  const std::string out_path =
      testing::TempDir() + "awesim_audit_roundtrip.json";
  const std::string cmd = std::string(AWESIM_AUDIT_BIN) + " --json=" +
                          out_path + " " + corpus_path("near_miss_pair.sp");
  const int rc = std::system(cmd.c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 1);

  const obs::json::Value doc = obs::json::parse(read_file(out_path));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema_version")->as_number(),
            double(kAuditSchemaVersion));
  EXPECT_EQ(doc.find("tool")->as_string(), "awesim_audit");
  const obs::json::Value* files = doc.find("files");
  ASSERT_NE(files, nullptr);
  ASSERT_EQ(files->size(), 1u);
  const obs::json::Value& file = files->at(0);
  EXPECT_TRUE(file.find("ok")->as_bool());
  EXPECT_EQ(file.find("errors")->as_number(), 0.0);
  EXPECT_EQ(file.find("warnings")->as_number(), 1.0);
  const obs::json::Value* misses = file.find("near_misses");
  ASSERT_NE(misses, nullptr);
  ASSERT_EQ(misses->size(), 1u);
  const obs::json::Value& miss = misses->at(0);
  EXPECT_EQ(miss.find("net_a")->as_string(), "n_c");
  EXPECT_EQ(miss.find("net_b")->as_string(), "n_d");
  EXPECT_EQ(miss.find("element_index")->as_number(), 3.0);
  bool found = false;
  const obs::json::Value* diags = file.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  for (std::size_t i = 0; i < diags->size(); ++i) {
    const obs::json::Value& d = diags->at(i);
    if (d.find("code")->as_string() != "near-duplicate") continue;
    found = true;
    EXPECT_EQ(d.find("severity")->as_string(), "warning");
    EXPECT_EQ(d.find("line")->as_number(), 20.0);
    EXPECT_EQ(d.find("column")->as_number(), 1.0);
  }
  EXPECT_TRUE(found);
  std::remove(out_path.c_str());
}

TEST(AuditCli, CleanFlatNetlistExitsZero) {
  const std::string cmd = std::string(AWESIM_AUDIT_BIN) + " " +
                          netlist_dir() + "/fig4_rc_tree.sp > /dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 0);
}

}  // namespace
}  // namespace awesim::audit
