// Hierarchical reduction (src/reduce): differential equivalence of
// reduced vs flat analysis on seeded RC fabrics, the refusal ladder
// (small nets, tolerance drill, injected faults), content-addressed
// reduction caching with repeated cells, invalidation-on-mutation, the
// cache corruption drill, and the MNA boundary-block stamp.
//
// Runs as its own ctest leg: ctest -L reduce.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/fault.h"
#include "mna/system.h"
#include "reduce/generate.h"
#include "reduce/hier.h"
#include "reduce/reduce.h"
#include "timing/session.h"
#include "timing/snapshot.h"
#include "timing/stage_cache.h"
#include "util/random_circuits.h"

namespace awesim::reduce {
namespace {

using core::DiagCode;
using core::FaultRule;
using core::ScopedFaultInjection;
using timing::Design;
using timing::Net;
using timing::TimingReport;
using timing::testutil::expect_same_payload;
using timing::testutil::rc_line_design;
using timing::testutil::rc_mesh_design;

bool has_code(const core::Diagnostics& diags, DiagCode code) {
  for (const core::Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

/// Tolerance-equal report comparison: same structure, every delay /
/// slew / arrival within `tol` seconds (the reduction contract; the
/// bit-identity contract only applies when nothing reduced).
void expect_close_reports(const TimingReport& flat, const TimingReport& red,
                          double tol) {
  ASSERT_EQ(flat.stages.size(), red.stages.size());
  for (std::size_t i = 0; i < flat.stages.size(); ++i) {
    const auto& fs = flat.stages[i];
    const auto& rs = red.stages[i];
    EXPECT_EQ(fs.driver_gate, rs.driver_gate);
    EXPECT_EQ(fs.net, rs.net);
    ASSERT_EQ(fs.sinks.size(), rs.sinks.size());
    EXPECT_NEAR(fs.input_arrival, rs.input_arrival, tol);
    for (std::size_t s = 0; s < fs.sinks.size(); ++s) {
      EXPECT_EQ(fs.sinks[s].gate, rs.sinks[s].gate);
      EXPECT_NEAR(fs.sinks[s].stage_delay, rs.sinks[s].stage_delay, tol)
          << fs.net << "/" << fs.sinks[s].gate;
      EXPECT_NEAR(fs.sinks[s].slew, rs.sinks[s].slew, tol);
      EXPECT_NEAR(fs.sinks[s].arrival, rs.sinks[s].arrival, tol);
    }
  }
  EXPECT_NEAR(flat.critical_delay, red.critical_delay, tol);
  EXPECT_EQ(flat.critical_path, red.critical_path);
}

double total_value(const Net& net, timing::NetElement::Kind kind) {
  double sum = 0.0;
  for (const auto& e : net.parasitics) {
    if (e.kind == kind) sum += e.value;
  }
  return sum;
}

double reduced_total(const Net& net, timing::NetElement::Kind kind) {
  double sum = total_value(net, kind);
  for (const auto& m : net.macros) {
    sum += kind == timing::NetElement::Kind::Resistor ? m.sum_resistance
                                                      : m.sum_capacitance;
  }
  return sum;
}

// ---------------------------------------------------------------------
// reduce_net: the collapse itself.

TEST(ReduceNet, CollapsesRcLine) {
  const auto stage = rc_line_design(11, 240);
  const Net& net = stage.design.net_at(0);
  const NetReduction r = reduce_net(net);
  ASSERT_TRUE(r.reduced);
  // 240 sections: n0..n238 interior, n239 is the sink hookup.
  EXPECT_EQ(r.interior_eliminated, 239u);
  ASSERT_EQ(r.net.macros.size(), 1u);
  EXPECT_GT(r.states, 0u);
  EXPECT_LT(r.states, 32u);  // depth 6 x a 2-port boundary, pre-deflation
  EXPECT_EQ(r.net.macros[0].states, r.states);
  EXPECT_EQ(r.net.macros[0].ports.size(), 2u);
  // Flat-kept elements plus the macro sums reproduce the flat totals
  // (the Elmore-fallback parity invariant).
  EXPECT_NEAR(reduced_total(r.net, timing::NetElement::Kind::Resistor),
              total_value(net, timing::NetElement::Kind::Resistor), 1e-9);
  EXPECT_NEAR(reduced_total(r.net, timing::NetElement::Kind::Capacitor),
              total_value(net, timing::NetElement::Kind::Capacitor), 1e-24);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(ReduceNet, SmallNetRefusedVerbatim) {
  const auto stage = rc_line_design(3, 6);
  const Net& net = stage.design.net_at(0);
  const NetReduction r = reduce_net(net);
  EXPECT_FALSE(r.reduced);
  EXPECT_EQ(r.interior_eliminated, 0u);
  EXPECT_TRUE(r.net.macros.empty());
  EXPECT_EQ(r.net.parasitics.size(), net.parasitics.size());
  EXPECT_TRUE(r.diagnostics.empty());  // silent: flat is simply right
}

TEST(ReduceNet, InductiveNetRefused) {
  auto stage = rc_line_design(5, 64);
  Net net = stage.design.net_at(0);
  net.parasitics.push_back(
      {timing::NetElement::Kind::Inductor, "n3", "n4", 1e-9});
  const NetReduction r = reduce_net(net);
  EXPECT_FALSE(r.reduced);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(ReduceNet, ContentKeyIsNameAgnostic) {
  const auto stage = rc_line_design(19, 80);
  const Net& net = stage.design.net_at(0);
  Net renamed = net;
  renamed.name = "totally_different";
  renamed.sink_node.clear();
  // Different sink *gate*, same hookup node: same boundary set.
  renamed.sink_node["other_gate"] = net.sink_node.at("snk");
  const ReduceOptions opt;
  EXPECT_EQ(reduction_content_key(net, opt),
            reduction_content_key(renamed, opt));

  Net perturbed = net;
  perturbed.parasitics[0].value *= 1.0 + 1e-12;
  EXPECT_NE(reduction_content_key(net, opt),
            reduction_content_key(perturbed, opt));

  ReduceOptions other = opt;
  other.moments = opt.moments - 2;
  EXPECT_NE(reduction_content_key(net, opt),
            reduction_content_key(net, other));
}

TEST(ReduceNet, ToleranceDrillRefusesWithTypedDiagnostic) {
  const auto stage = rc_line_design(29, 120);
  const Net& net = stage.design.net_at(0);
  ReduceOptions opt;
  opt.tolerance = -1.0;  // nothing satisfies a negative tolerance
  const NetReduction r = reduce_net(net, opt);
  EXPECT_FALSE(r.reduced);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_TRUE(has_code(r.diagnostics, DiagCode::ReductionToleranceExceeded));
  EXPECT_EQ(r.diagnostics[0].element, net.name);
  EXPECT_EQ(r.net.parasitics.size(), net.parasitics.size());
}

TEST(ReduceNet, CollapseFaultFallsBackFlat) {
  const auto stage = rc_line_design(31, 100);
  const Net& net = stage.design.net_at(0);
  {
    ScopedFaultInjection arm({FaultRule{"reduce.collapse", net.name, -1}});
    const NetReduction r = reduce_net(net);
    EXPECT_FALSE(r.reduced);
    ASSERT_FALSE(r.diagnostics.empty());
    EXPECT_TRUE(has_code(r.diagnostics, DiagCode::ReductionFallback));
  }
  // Disarmed, the same net reduces.
  EXPECT_TRUE(reduce_net(net).reduced);
}

TEST(ReduceNet, DeterministicBytes) {
  const auto stage = rc_mesh_design(41, 150, 8);
  const Net& net = stage.design.net_at(0);
  const NetReduction a = reduce_net(net);
  const NetReduction b = reduce_net(net);
  ASSERT_TRUE(a.reduced);
  ASSERT_TRUE(b.reduced);
  ASSERT_EQ(a.net.macros.size(), 1u);
  EXPECT_EQ(a.net.macros[0].ports, b.net.macros[0].ports);
  EXPECT_EQ(a.net.macros[0].states, b.net.macros[0].states);
  EXPECT_EQ(a.net.macros[0].g, b.net.macros[0].g);  // bitwise
  EXPECT_EQ(a.net.macros[0].c, b.net.macros[0].c);
}

// ---------------------------------------------------------------------
// Differential: reduced vs flat timing on the seeded fabrics.

TEST(ReduceDifferential, RcLine) {
  auto stage = rc_line_design(101, 300);
  const TimingReport flat = stage.design.analyze();
  HierSession hier(stage.design);
  const TimingReport red = hier.analyze();
  EXPECT_GE(hier.stats().nets_reduced, 1u);
  expect_close_reports(flat, red, 1e-9);
}

TEST(ReduceDifferential, RcMesh) {
  auto stage = rc_mesh_design(103, 300, 12);
  const TimingReport flat = stage.design.analyze();
  HierSession hier(stage.design);
  const TimingReport red = hier.analyze();
  EXPECT_GE(hier.stats().nets_reduced, 1u);
  expect_close_reports(flat, red, 1e-9);
}

TEST(ReduceDifferential, GeneratedTreeFabric) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Tree;
  spec.target_nodes = 2000;
  spec.cell_nodes = 400;
  spec.variants = 3;
  spec.seed = 7;
  const Design design = mega_design(spec);
  const TimingReport flat = design.analyze();
  HierSession hier(design);
  const TimingReport red = hier.analyze();
  EXPECT_EQ(hier.stats().nets_reduced, hier.stats().nets_total);
  expect_close_reports(flat, red, 1e-9);
}

TEST(ReduceDifferential, AllNetsRefusedIsBitIdentical) {
  // Tiny nets everywhere: every reduction silently refuses, the reduced
  // design IS the flat design, and the report is bitwise identical.
  const Design design = timing::testutil::chain_design(4);
  const TimingReport flat = design.analyze();
  HierSession hier(design);
  const TimingReport red = hier.analyze();
  EXPECT_EQ(hier.stats().nets_reduced, 0u);
  expect_same_payload(flat, red);
}

TEST(ReduceDifferential, ToleranceDrillSurfacesInReport) {
  auto stage = rc_line_design(107, 200);
  const TimingReport flat = stage.design.analyze();
  ReduceOptions opt;
  opt.tolerance = -1.0;
  HierSession hier(stage.design, {}, opt);
  const TimingReport red = hier.analyze();
  EXPECT_EQ(hier.stats().nets_reduced, 0u);
  EXPECT_TRUE(
      has_code(red.diagnostics, DiagCode::ReductionToleranceExceeded));
  // Payload equal apart from the appended reduction diagnostics.
  expect_same_payload(flat, red, /*compare_diagnostics=*/false);
}

TEST(ReduceDifferential, CollapseFaultSurfacesInReport) {
  auto stage = rc_line_design(109, 200);
  const TimingReport flat = stage.design.analyze();
  ScopedFaultInjection arm({FaultRule{"reduce.collapse", "net0", -1}});
  HierSession hier(stage.design);
  const TimingReport red = hier.analyze();
  EXPECT_EQ(hier.stats().nets_reduced, 0u);
  EXPECT_TRUE(has_code(red.diagnostics, DiagCode::ReductionFallback));
  expect_same_payload(flat, red, /*compare_diagnostics=*/false);
}

// ---------------------------------------------------------------------
// reduce_design: the whole-design walk.

TEST(ReduceDesign, CountsAndEquivalence) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Mesh;
  spec.target_nodes = 3000;
  spec.cell_nodes = 750;
  spec.variants = 2;
  spec.seed = 3;
  const Design design = mega_design(spec);
  const DesignReduction dr = reduce_design(design);
  EXPECT_EQ(dr.nets_total, 4u);
  EXPECT_EQ(dr.nets_reduced, 4u);
  EXPECT_GT(dr.interior_eliminated, 4u * 700u);
  EXPECT_GT(dr.states, 0u);
  expect_close_reports(design.analyze(), dr.design.analyze(), 1e-9);
}

TEST(ReduceDesign, RepeatedCellsHitTheStore) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Chain;
  spec.target_nodes = 4000;
  spec.cell_nodes = 500;
  spec.variants = 2;
  spec.seed = 5;
  const Design design = mega_design(spec);
  auto cache = std::make_shared<timing::detail::StageCache>();
  const DesignReduction first = reduce_design(design, {}, cache.get());
  EXPECT_EQ(first.nets_total, 8u);
  EXPECT_EQ(first.nets_reduced, 8u);
  // Two variants: two entries computed, six instances rehydrated.
  EXPECT_EQ(first.cache_hits, 6u);
  EXPECT_EQ(cache->reduction_entries(), 2u);
  EXPECT_EQ(cache->counters().reduction_misses, 2u);
  EXPECT_EQ(cache->counters().reduction_hits, 6u);
  // A second walk is fully served from the store.
  const DesignReduction second = reduce_design(design, {}, cache.get());
  EXPECT_EQ(second.cache_hits, 8u);
  EXPECT_EQ(cache->counters().reduction_hits, 14u);
  expect_same_payload(first.design.analyze(), second.design.analyze());
}

TEST(ReduceDesign, CacheCorruptionDrillRecovers) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Chain;
  spec.target_nodes = 2000;
  spec.cell_nodes = 500;
  spec.variants = 4;
  spec.seed = 9;
  const Design design = mega_design(spec);
  auto cache = std::make_shared<timing::detail::StageCache>();
  const DesignReduction first = reduce_design(design, {}, cache.get());
  EXPECT_EQ(first.nets_reduced, 4u);

  ScopedFaultInjection arm({FaultRule{"reduce.cache", "n1", -1}});
  const DesignReduction again = reduce_design(design, {}, cache.get());
  // n1's entry was dropped and recomputed; the others kept hitting.
  EXPECT_TRUE(has_code(again.diagnostics, DiagCode::CacheInvalidated));
  EXPECT_EQ(again.cache_hits, 3u);
  EXPECT_EQ(cache->counters().invalidations, 1u);
  // Recomputation is deterministic: the recovered design is the same.
  expect_same_payload(first.design.analyze(), again.design.analyze());
}

/// Two copies of one 60-element RC line; the second also carries a
/// hand-built one-port macro, so it is a different circuit with the same
/// parasitics.  `macro_first` swaps their net order.
Design plain_and_macro_design(bool macro_first) {
  const auto stage = rc_line_design(41, 30);
  Net plain = stage.design.net_at(0);
  plain.name = "plain";
  Net with_macro = plain;
  with_macro.name = "with_macro";
  with_macro.sink_node.clear();
  with_macro.sink_node["snk2"] = plain.sink_node.at("snk");
  timing::NetMacro macro;
  macro.ports = {"DRV"};
  macro.states = 0;
  macro.g = {1e-3};
  macro.c = {0.0};
  with_macro.macros.push_back(macro);

  Design design;
  for (const char* name : {"drv", "drv2", "snk", "snk2"}) {
    timing::Gate g;
    g.name = name;
    design.add_gate(g);
  }
  design.set_primary_input("drv");
  design.set_primary_input("drv2");
  if (macro_first) design.add_net("drv2", with_macro);
  design.add_net("drv", plain);
  if (!macro_first) design.add_net("drv2", with_macro);
  return design;
}

void expect_same_net(const Net& a, const Net& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.sink_node, b.sink_node);
  ASSERT_EQ(a.parasitics.size(), b.parasitics.size()) << a.name;
  for (std::size_t i = 0; i < a.parasitics.size(); ++i) {
    EXPECT_EQ(a.parasitics[i].kind, b.parasitics[i].kind);
    EXPECT_EQ(a.parasitics[i].node_a, b.parasitics[i].node_a);
    EXPECT_EQ(a.parasitics[i].node_b, b.parasitics[i].node_b);
    EXPECT_EQ(std::memcmp(&a.parasitics[i].value, &b.parasitics[i].value,
                          sizeof(double)),
              0);
  }
  ASSERT_EQ(a.macros.size(), b.macros.size()) << a.name;
  for (std::size_t m = 0; m < a.macros.size(); ++m) {
    EXPECT_EQ(a.macros[m].ports, b.macros[m].ports);
    EXPECT_EQ(a.macros[m].states, b.macros[m].states);
    ASSERT_EQ(a.macros[m].g.size(), b.macros[m].g.size());
    ASSERT_EQ(a.macros[m].c.size(), b.macros[m].c.size());
    EXPECT_EQ(std::memcmp(a.macros[m].g.data(), b.macros[m].g.data(),
                          a.macros[m].g.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(a.macros[m].c.data(), b.macros[m].c.data(),
                          a.macros[m].c.size() * sizeof(double)),
              0);
  }
}

TEST(ReduceDesign, StoreNeverServesANetThatCarriesItsOwnMacros) {
  for (const bool macro_first : {false, true}) {
    SCOPED_TRACE(macro_first ? "macro net first" : "plain net first");
    const Design design = plain_and_macro_design(macro_first);
    EXPECT_NE(reduction_content_key(design.net_at(0), {}),
              reduction_content_key(design.net_at(1), {}));
    const DesignReduction cold = reduce_design(design);
    auto cache = std::make_shared<timing::detail::StageCache>();
    const DesignReduction stored = reduce_design(design, {}, cache.get());
    EXPECT_EQ(cold.nets_reduced, 1u);
    EXPECT_EQ(stored.nets_reduced, cold.nets_reduced);
    EXPECT_EQ(stored.cache_hits, 0u);
    ASSERT_EQ(stored.design.net_count(), cold.design.net_count());
    for (std::size_t i = 0; i < cold.design.net_count(); ++i) {
      expect_same_net(stored.design.net_at(i), cold.design.net_at(i));
    }
    // The macro net comes back as it went in.
    const std::size_t m = macro_first ? 0 : 1;
    expect_same_net(stored.design.net_at(m), design.net_at(m));
  }
}

// ---------------------------------------------------------------------
// HierSession: caching, invalidation-on-mutation, mutation forwarding.

TEST(HierSession, RepeatedCellsReduceOnce) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Chain;
  spec.target_nodes = 4000;
  spec.cell_nodes = 500;
  spec.variants = 2;
  spec.seed = 5;
  HierSession hier(mega_design(spec));
  hier.analyze();
  const HierSession::Stats stats = hier.stats();
  EXPECT_EQ(stats.nets_total, 8u);
  EXPECT_EQ(stats.nets_reduced, 8u);
  EXPECT_EQ(stats.reductions_performed, 2u);
  EXPECT_EQ(stats.reduction_cache_hits, 6u);
  EXPECT_EQ(stats.rebuilds, 1u);
  const auto cs = hier.cache_stats();
  EXPECT_EQ(cs.reduction_entries, 2u);
  EXPECT_EQ(cs.reduction_misses, 2u);
  EXPECT_EQ(cs.reduction_hits, 6u);
  // Warm re-analysis: hints all valid, nothing re-reduces, no rebuild.
  hier.analyze();
  EXPECT_EQ(hier.stats().reductions_performed, 2u);
  EXPECT_EQ(hier.stats().rebuilds, 1u);
}

TEST(HierSession, MutationInvalidatesExactlyThatBlock) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Chain;
  spec.target_nodes = 2400;
  spec.cell_nodes = 300;
  spec.variants = 8;  // all eight cells distinct
  spec.seed = 13;
  const Design design = mega_design(spec);
  HierSession hier(design);
  timing::Session flat(design);
  expect_close_reports(flat.analyze(), hier.analyze(), 1e-9);
  ASSERT_EQ(hier.stats().reductions_performed, 8u);

  // Edit one resistor inside n3's collapsed interior (element 0 is the
  // DRV->m0 segment resistor by construction).
  hier.set_value("n3", 0, 4.25);
  flat.set_value("n3", 0, 4.25);
  expect_close_reports(flat.analyze(), hier.analyze(), 1e-9);
  // Exactly one block re-reduced, exactly one rebuild.
  EXPECT_EQ(hier.stats().reductions_performed, 9u);
  EXPECT_EQ(hier.stats().rebuilds, 2u);

  // Gate edits never touch a reduction and never force a rebuild.
  hier.set_drive_resistance("g000002", 220.0);
  flat.set_drive_resistance("g000002", 220.0);
  expect_close_reports(flat.analyze(), hier.analyze(), 1e-9);
  EXPECT_EQ(hier.stats().reductions_performed, 9u);
  EXPECT_EQ(hier.stats().rebuilds, 2u);

  hier.set_intrinsic_delay("g000004", 9e-12);
  flat.set_intrinsic_delay("g000004", 9e-12);
  expect_close_reports(flat.analyze(), hier.analyze(), 1e-9);
  EXPECT_EQ(hier.stats().reductions_performed, 9u);
}

TEST(HierSession, TopologyEditInsideCollapsedRegion) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Chain;
  spec.target_nodes = 1200;
  spec.cell_nodes = 300;
  spec.variants = 4;
  spec.seed = 17;
  const Design design = mega_design(spec);
  HierSession hier(design);
  timing::Session flat(design);
  expect_close_reports(flat.analyze(), hier.analyze(), 1e-9);
  // Grow the interior of n2: a new grounded cap deep inside the cell.
  const timing::NetElement extra{timing::NetElement::Kind::Capacitor, "m150",
                                 "0", 5e-15};
  hier.add_element("n2", extra);
  flat.add_element("n2", extra);
  expect_close_reports(flat.analyze(), hier.analyze(), 1e-9);
  EXPECT_EQ(hier.stats().reductions_performed, 5u);
  EXPECT_THROW(hier.set_value("nope", 0, 1.0), std::invalid_argument);
}

TEST(HierSession, ClearCacheRunsColdAgain) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Chain;
  spec.target_nodes = 1000;
  spec.cell_nodes = 250;
  spec.variants = 2;
  spec.seed = 23;
  HierSession hier(mega_design(spec));
  const TimingReport first = hier.analyze();
  hier.clear_cache();
  EXPECT_EQ(hier.cache_stats().reduction_entries, 0u);
  const TimingReport second = hier.analyze();
  EXPECT_EQ(hier.stats().reductions_performed, 4u);  // 2 cold runs x 2
  expect_same_payload(first, second);
}

TEST(HierSession, SnapshotStoreCacheStatsAgreeWithSession) {
  // One cache shared by a HierSession (reductions), a SnapshotStore, and
  // a Session: both cache_stats views describe the same counters, so
  // every field must agree -- the reduction ones included.
  auto cache = std::make_shared<timing::detail::StageCache>();
  const auto stage = rc_line_design(31, 300);
  HierSession hier(stage.design, {}, {}, cache);
  (void)hier.analyze();
  timing::SnapshotStore store(stage.design, {}, cache);
  (void)store.current()->report();
  const timing::Session session(stage.design, {}, cache);

  const timing::Session::CacheStats a = store.cache_stats();
  const timing::Session::CacheStats b = session.cache_stats();
  EXPECT_GT(a.reduction_entries, 0u);
  EXPECT_GT(a.reduction_misses, 0u);
  EXPECT_EQ(a.stage_entries, b.stage_entries);
  EXPECT_EQ(a.lint_entries, b.lint_entries);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.lint_hits, b.lint_hits);
  EXPECT_EQ(a.lint_misses, b.lint_misses);
  EXPECT_EQ(a.reduction_entries, b.reduction_entries);
  EXPECT_EQ(a.reduction_hits, b.reduction_hits);
  EXPECT_EQ(a.reduction_misses, b.reduction_misses);
}

// ---------------------------------------------------------------------
// The MNA boundary-block stamp (circuit::MacroElement).

TEST(MacroStamp, OnePortMacroMatchesResistor) {
  // Voltage divider with the lower leg as a 1-port macro.
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::dc(10.0));
  ckt.add_resistor("R1", in, mid, 1e3);
  circuit::MacroElement macro;
  macro.name = "X1";
  macro.ports = {mid};
  macro.states = 0;
  macro.g = {1.0 / 3e3};
  macro.c = {0.0};
  ckt.add_macro(macro);
  mna::MnaSystem mna(ckt);
  const auto x = mna.solve(mna.rhs_initial());
  EXPECT_NEAR(x[mna.node_index(mid)], 7.5, 1e-12);
}

TEST(MacroStamp, InternalStateRowSolves) {
  // a -R1- (x) -R2- gnd collapsed exactly: port {a}, one retained state
  // for the interior node x.  1 mA into a must see R1 + R2.
  const double g1 = 1.0 / 2e3;
  const double g2 = 1.0 / 3e3;
  circuit::Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_isource("I1", circuit::kGround, a, circuit::Stimulus::dc(1e-3));
  circuit::MacroElement macro;
  macro.name = "X1";
  macro.ports = {a};
  macro.states = 1;
  macro.g = {g1, -g1, -g1, g1 + g2};
  macro.c = {0.0, 0.0, 0.0, 0.0};
  ckt.add_macro(macro);
  mna::MnaSystem mna(ckt);
  const auto x = mna.solve(mna.rhs_initial());
  EXPECT_NEAR(x[mna.node_index(a)], 1e-3 * (2e3 + 3e3), 1e-9);
}

TEST(MacroStamp, AddMacroValidates) {
  circuit::Circuit ckt;
  const auto a = ckt.node("a");
  circuit::MacroElement macro;
  macro.ports = {a};
  macro.states = 0;
  macro.g = {1.0};
  macro.c = {0.0};
  EXPECT_THROW(ckt.add_macro(macro), std::invalid_argument);  // no name
  macro.name = "X1";
  macro.g = {1.0, 2.0};  // wrong block size
  EXPECT_THROW(ckt.add_macro(macro), std::invalid_argument);
  macro.g = {std::nan("")};
  EXPECT_THROW(ckt.add_macro(macro), std::invalid_argument);
  macro.g = {1.0};
  EXPECT_NO_THROW(ckt.add_macro(macro));
}

// ---------------------------------------------------------------------
// The generator itself.

TEST(MegaDesign, DeterministicAndRepetitive) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Mesh;
  spec.target_nodes = 2000;
  spec.cell_nodes = 500;
  spec.variants = 2;
  spec.seed = 31;
  EXPECT_EQ(mega_stages(spec), 4u);
  const Design a = mega_design(spec);
  const Design b = mega_design(spec);
  ASSERT_EQ(a.net_count(), 4u);
  ASSERT_EQ(b.net_count(), 4u);
  const ReduceOptions opt;
  for (std::size_t i = 0; i < a.net_count(); ++i) {
    EXPECT_EQ(reduction_content_key(a.net_at(i), opt),
              reduction_content_key(b.net_at(i), opt));
  }
  // Instances 0 and 2 share a variant: identical reduction content.
  EXPECT_EQ(reduction_content_key(a.net_at(0), opt),
            reduction_content_key(a.net_at(2), opt));
  EXPECT_NE(reduction_content_key(a.net_at(0), opt),
            reduction_content_key(a.net_at(1), opt));
}

}  // namespace
}  // namespace awesim::reduce
