// The design audit against its reference (tests/util/reference_audit.h):
// the conditioning oracle split into a class topology step and an
// instance numeric step must give the single-pass oracle's estimate bit
// for bit, and audit_design, which does its class work once per content
// class, must produce the reference's AuditReport field by field --
// doubles compared bitwise, diagnostic text and locations equal -- on
// seeded designs built to hit every corner of the split: repeated cells
// with per-instance rdrive/cin, sink gates that permute the sink order
// within a class, two sinks on one node, sink nodes outside the
// parasitics or at ground, degenerate driver resistances, parallel
// resistors and self-loops on DRV, unreachable components, inductors,
// macros and near-miss values -- through the public call and on pools
// of 1, 2 and 8 threads.  Registered under the ctest label "audit".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/design_netlist.h"
#include "check/oracle.h"
#include "timing/analyzer.h"
#include "util/reference_audit.h"

namespace awesim::audit {
namespace {

using check::OracleElement;
using testutil::reference_assess;
using testutil::reference_audit_design;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_estimate(const check::ConditioningEstimate& got,
                          const check::ConditioningEstimate& want) {
  EXPECT_EQ(got.rc_tree, want.rc_tree);
  EXPECT_EQ(got.tau_count, want.tau_count);
  EXPECT_TRUE(same_bits(got.tau_min, want.tau_min))
      << got.tau_min << " vs " << want.tau_min;
  EXPECT_TRUE(same_bits(got.tau_max, want.tau_max))
      << got.tau_max << " vs " << want.tau_max;
  EXPECT_TRUE(same_bits(got.spread, want.spread))
      << got.spread << " vs " << want.spread;
  EXPECT_TRUE(same_bits(got.elmore_delay, want.elmore_delay))
      << got.elmore_delay << " vs " << want.elmore_delay;
  EXPECT_TRUE(same_bits(got.moment_ratio, want.moment_ratio))
      << got.moment_ratio << " vs " << want.moment_ratio;
  EXPECT_EQ(got.nonequilibrium_ic, want.nonequilibrium_ic);
  EXPECT_EQ(got.max_safe_order, want.max_safe_order);
  EXPECT_EQ(got.min_safe_order, want.min_safe_order);
  EXPECT_EQ(got.hazard, want.hazard);
  EXPECT_EQ(got.detail, want.detail);
}

void expect_same_report(const AuditReport& got, const AuditReport& want) {
  EXPECT_EQ(got.errors, want.errors);
  EXPECT_EQ(got.warnings, want.warnings);
  EXPECT_EQ(got.infos, want.infos);
  ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size());
  for (std::size_t i = 0; i < got.diagnostics.size(); ++i) {
    const core::Diagnostic& a = got.diagnostics[i];
    const core::Diagnostic& b = want.diagnostics[i];
    SCOPED_TRACE(b.to_string());
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.severity, b.severity);
    EXPECT_EQ(a.message, b.message);
    EXPECT_EQ(a.element, b.element);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.line, b.line);
    EXPECT_EQ(a.column, b.column);
    EXPECT_TRUE(same_bits(a.condition_estimate, b.condition_estimate));
  }
  ASSERT_EQ(got.nets.size(), want.nets.size());
  for (std::size_t i = 0; i < got.nets.size(); ++i) {
    SCOPED_TRACE(want.nets[i].net);
    EXPECT_EQ(got.nets[i].net, want.nets[i].net);
    EXPECT_EQ(got.nets[i].driver, want.nets[i].driver);
    EXPECT_EQ(got.nets[i].eligibility, want.nets[i].eligibility);
    expect_same_estimate(got.nets[i].estimate, want.nets[i].estimate);
  }
  ASSERT_EQ(got.repeated.size(), want.repeated.size());
  for (std::size_t i = 0; i < got.repeated.size(); ++i) {
    EXPECT_EQ(got.repeated[i].representative, want.repeated[i].representative);
    EXPECT_EQ(got.repeated[i].members, want.repeated[i].members);
  }
  ASSERT_EQ(got.near_misses.size(), want.near_misses.size());
  for (std::size_t i = 0; i < got.near_misses.size(); ++i) {
    const NearMiss& a = got.near_misses[i];
    const NearMiss& b = want.near_misses[i];
    EXPECT_EQ(a.net_a, b.net_a);
    EXPECT_EQ(a.net_b, b.net_b);
    EXPECT_EQ(a.element_index, b.element_index);
    EXPECT_TRUE(same_bits(a.value_a, b.value_a));
    EXPECT_TRUE(same_bits(a.value_b, b.value_b));
  }
}

// ---------------------------------------------------------------------
// The oracle core against the single-pass oracle.

/// A value that is usually an ordinary positive number and sometimes
/// one of the values the oracle must not trip over.
double odd_value(std::mt19937& rng, double scale) {
  std::uniform_int_distribution<int> pick(0, 19);
  switch (pick(rng)) {
    case 0: return 0.0;
    case 1: return -scale;
    case 2: return kNaN;
    case 3: return kInf;
    default:
      return std::uniform_real_distribution<double>(0.5, 5.0)(rng) * scale;
  }
}

/// Random RC(L) content over a small name pool: mostly a random tree
/// from "s" (so the moment walk runs), plus loops, parallel and
/// self-loop resistors, ground ties, floating caps, unreachable parts
/// and the odd inductor, in shuffled element order.
check::OracleInput random_input(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 9);
  std::uniform_int_distribution<int> count(1, 24);
  const int nodes = count(rng);
  const auto name = [](int i) { return "n" + std::to_string(i); };
  check::OracleInput input;
  for (int i = 1; i <= nodes; ++i) {
    const int parent = std::uniform_int_distribution<int>(0, i - 1)(rng);
    input.elements.push_back({OracleElement::Kind::Resistor,
                              parent == 0 ? "s" : name(parent), name(i),
                              coin(rng) == 0 ? odd_value(rng, 100.0)
                                             : 100.0 * (1 + coin(rng))});
    input.elements.push_back({OracleElement::Kind::Capacitor, name(i),
                              coin(rng) == 0 ? "gnd" : "0",
                              coin(rng) == 0 ? odd_value(rng, 1e-15)
                                             : 1e-15 * (1 + coin(rng))});
  }
  const auto any = [&] {
    const int i = std::uniform_int_distribution<int>(0, nodes + 2)(rng);
    return i == 0 ? std::string("s") : i > nodes ? std::string("0") : name(i);
  };
  const int extras = std::uniform_int_distribution<int>(0, 4)(rng);
  for (int k = 0; k < extras; ++k) {
    switch (coin(rng)) {
      case 0: {  // self-loop
        const std::string a = any();
        input.elements.push_back({OracleElement::Kind::Resistor, a, a, 10.0});
        break;
      }
      case 1:
        input.elements.push_back(
            {OracleElement::Kind::Inductor, any(), any(), 1e-9});
        break;
      case 2:
        input.elements.push_back(
            {OracleElement::Kind::Capacitor, any(), any(), 3e-16});
        break;
      case 3:  // unreachable island
        input.elements.push_back(
            {OracleElement::Kind::Resistor, "x1", "x2", 50.0});
        input.elements.push_back(
            {OracleElement::Kind::Capacitor, "x2", "0", 1e-15});
        break;
      default:
        input.elements.push_back(
            {OracleElement::Kind::Resistor, any(), any(), 75.0});
        break;
    }
  }
  std::shuffle(input.elements.begin(), input.elements.end(), rng);
  switch (coin(rng)) {
    case 0: input.source = ""; break;
    case 1: input.source = "0"; break;
    case 2: input.source = "absent"; break;
    default: input.source = "s"; break;
  }
  input.nonequilibrium_ic = coin(rng) < 3;
  return input;
}

check::OracleOptions random_options(std::mt19937& rng) {
  check::OracleOptions options;
  options.target_order = std::uniform_int_distribution<int>(1, 6)(rng);
  options.digits = std::uniform_int_distribution<int>(0, 1)(rng) ? 14.0 : 5.0;
  return options;
}

TEST(OracleCore, FrontDoorMatchesSinglePassOracle) {
  std::mt19937 rng(20261017);
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE(trial);
    const check::OracleInput input = random_input(rng);
    const check::OracleOptions options = random_options(rng);
    expect_same_estimate(check::assess(input, options),
                         reference_assess(input, options));
  }
}

TEST(OracleCore, ClassTopologyPlusInstanceMatchesSinglePassOracle) {
  // The audit's use: one topology, many instances, each adding a driver
  // edge from the source ahead of the elements and pin caps after them.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(trial);
    // The content hangs off DRV instead of its own source.
    check::OracleInput content = random_input(rng);
    for (OracleElement& e : content.elements) {
      if (e.node_a == "s") e.node_a = "DRV";
      if (e.node_b == "s") e.node_b = "DRV";
    }
    const std::vector<std::string> pins = {"n1", "n2", "0", "pin_only",
                                           "DRV"};
    check::OracleTopologyBuilder builder;
    const int source = builder.node("src");
    const int driver = builder.node("DRV");
    for (const OracleElement& e : content.elements) {
      const int a = builder.node(e.node_a);
      const int b = builder.node(e.node_b);
      builder.add(e.kind, a, b, e.value);
    }
    std::vector<int> pin_ids;
    for (const std::string& p : pins) pin_ids.push_back(builder.node(p));
    const check::OracleTopology topology =
        std::move(builder).build(source, driver, content.nonequilibrium_ic);

    for (int inst = 0; inst < 6; ++inst) {
      check::OracleInstance instance;
      instance.drive = odd_value(rng, 400.0);
      check::OracleInput flat;
      flat.source = "src";
      flat.nonequilibrium_ic = content.nonequilibrium_ic;
      flat.elements.push_back(
          {OracleElement::Kind::Resistor, "src", "DRV", instance.drive});
      flat.elements.insert(flat.elements.end(), content.elements.begin(),
                           content.elements.end());
      const int n_pins = std::uniform_int_distribution<int>(0, 4)(rng);
      for (int k = 0; k < n_pins; ++k) {
        const std::size_t p =
            std::uniform_int_distribution<std::size_t>(0, pins.size() - 1)(
                rng);
        const double c = odd_value(rng, 2e-15);
        instance.pin_caps.emplace_back(pin_ids[p], c);
        flat.elements.push_back(
            {OracleElement::Kind::Capacitor, pins[p], "0", c});
      }
      const check::OracleOptions options = random_options(rng);
      expect_same_estimate(check::assess(topology, instance, options),
                           reference_assess(flat, options));
    }
  }
}

// ---------------------------------------------------------------------
// audit_design against the reference tiers.

struct Cell {
  std::vector<timing::NetElement> parasitics;
  /// Hookup node of each sink pin (repeats allowed: two pins, one node).
  std::vector<std::string> sinks;
  std::vector<timing::NetMacro> macros;
};

timing::NetElement res(const std::string& a, const std::string& b, double v) {
  return {timing::NetElement::Kind::Resistor, a, b, v};
}
timing::NetElement cap(const std::string& a, const std::string& b,
                       double v) {
  return {timing::NetElement::Kind::Capacitor, a, b, v};
}

/// One cell of each corner the class/instance split must keep.
Cell make_cell(std::mt19937& rng, int variant) {
  std::uniform_real_distribution<double> r(20.0, 400.0);
  std::uniform_real_distribution<double> c(0.5e-15, 8e-15);
  Cell cell;
  const int n = std::uniform_int_distribution<int>(4, 30)(rng);
  const auto node = [](int i) { return "m" + std::to_string(i); };
  for (int i = 0; i < n; ++i) {
    const int parent = i == 0 ? -1
                              : std::uniform_int_distribution<int>(0, i - 1)(
                                    rng);
    cell.parasitics.push_back(
        res(parent < 0 ? "DRV" : node(parent), node(i), r(rng)));
    cell.parasitics.push_back(cap(node(i), "0", c(rng)));
  }
  cell.sinks = {node(n - 1), node(n / 2)};
  switch (variant % 11) {
    case 0: break;  // plain RC tree, two sinks
    case 1:         // mesh: cross links and a coupling cap
      cell.parasitics.push_back(res(node(0), node(n - 1), 150.0));
      cell.parasitics.push_back(cap(node(1), node(n / 2), 0.4e-15));
      break;
    case 2:  // parallel resistors
      cell.parasitics.push_back(res(node(0), node(1), 80.0));
      break;
    case 3:  // self-loop on DRV
      cell.parasitics.push_back(res("DRV", "DRV", 35.0));
      break;
    case 4:  // unreachable component
      cell.parasitics.push_back(res("island_a", "island_b", 60.0));
      cell.parasitics.push_back(cap("island_b", "0", 2e-15));
      break;
    case 5:  // inductor
      cell.parasitics.push_back(
          {timing::NetElement::Kind::Inductor, node(0), node(1), 1e-9});
      break;
    case 6:  // a sink node that appears in no parasitic
      cell.sinks.push_back("pin_only");
      break;
    case 7:  // a sink at ground
      cell.sinks.push_back("0");
      break;
    case 8:  // two sinks on one node
      cell.sinks.push_back(node(n - 1));
      break;
    case 9: {  // a net that carries a macro
      timing::NetMacro macro;
      macro.ports = {"DRV"};
      macro.g = {1e-3};
      macro.c = {0.0};
      cell.macros.push_back(macro);
      break;
    }
    default:  // a sink on DRV itself and a NaN-valued element
      cell.sinks.push_back("DRV");
      cell.parasitics.push_back(cap(node(0), "0", kNaN));
      break;
  }
  return cell;
}

struct SeededDesign {
  timing::Design design;
  DesignSourceMap sources;
};

/// `nets` instances of a handful of cells over a shared pool of gates.
/// Gate parameters repeat from small sets (so instances collide on
/// rdrive/cin) and include 0, negative and NaN drive resistances; sink
/// gates are drawn from the pool, so the sink-name order permutes the
/// hookup order within a class; some nets are near-miss copies.
SeededDesign seeded_design(std::uint32_t seed, int nets) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coin(0, 9);
  const int n_cells = 11 + std::uniform_int_distribution<int>(0, 4)(rng);
  std::vector<Cell> cells;
  for (int v = 0; v < n_cells; ++v) cells.push_back(make_cell(rng, v));

  SeededDesign out;
  out.sources.file = "seeded.sp";
  std::size_t line = 1;
  constexpr int kGates = 24;
  const auto gate = [](int i) {
    return std::string(i < 10 ? "g0" : "g") + std::to_string(i);
  };
  const double drives[] = {250.0, 1000.0, 0.0, -50.0, kNaN};
  const double cins[] = {1e-15, 3e-15, 0.0, kNaN};
  for (int i = 0; i < kGates; ++i) {
    timing::Gate g;
    g.name = gate(i);
    g.drive_resistance = coin(rng) < 7 ? drives[coin(rng) % 2]
                                       : drives[2 + coin(rng) % 3];
    g.input_capacitance = coin(rng) < 8 ? cins[coin(rng) % 2]
                                        : coin(rng) < 5 ? cins[2 + coin(rng) % 2]
                                                        : 1e-15 * coin(rng);
    out.design.add_gate(g);
    if (coin(rng) < 8) out.sources.gates[g.name] = {line++, 1};
  }
  out.design.set_primary_input(gate(0));

  for (int k = 0; k < nets; ++k) {
    const Cell& cell =
        cells[std::uniform_int_distribution<std::size_t>(0, cells.size() - 1)(
            rng)];
    timing::Net net;
    net.name = "net" + std::to_string(k);
    net.parasitics = cell.parasitics;
    net.macros = cell.macros;
    if (coin(rng) == 0) {  // near miss: one value differs
      const std::size_t e = std::uniform_int_distribution<std::size_t>(
          0, net.parasitics.size() - 1)(rng);
      net.parasitics[e].value *= 1.5;
    }
    std::vector<int> pool(kGates);
    for (int i = 0; i < kGates; ++i) pool[static_cast<std::size_t>(i)] = i;
    std::shuffle(pool.begin(), pool.end(), rng);
    std::size_t next = 0;
    for (const std::string& node : cell.sinks) {
      const std::string sink = coin(rng) == 0
                                   ? "out" + std::to_string(k) + "_" + node
                                   : gate(pool[next++]);
      net.sink_node[sink] = node;
    }
    const std::string driver =
        gate(std::uniform_int_distribution<int>(0, kGates - 1)(rng));
    if (coin(rng) < 8) {
      out.sources.nets[net.name] = {line++, 1};
      std::vector<DesignSourceMap::LineColumn> cards;
      for (std::size_t e = 0; e < net.parasitics.size(); ++e) {
        cards.push_back({line++, 1});
      }
      out.sources.net_elements[net.name] = std::move(cards);
    }
    out.design.add_net(driver, std::move(net));
  }
  return out;
}

TEST(AuditDifferential, SeededDesignsMatchTheReferenceTiers) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const SeededDesign d = seeded_design(seed, 20 + static_cast<int>(seed));
    for (int variant = 0; variant < 7; ++variant) {
      SCOPED_TRACE(variant);
      AuditOptions options;
      switch (variant) {
        case 1: options.oracle.target_order = 6; break;
        case 2: options.oracle.digits = 4.0; break;
        case 3: options.graph_rules = false; break;
        case 4: options.repetition = false; break;
        case 5:  // tight limits flip eligibility class by class
          options.reduce.min_interior = 8;
          options.reduce.max_ports = 3;
          break;
        case 6:
          options.conditioning = false;
          options.reduce.min_interior = 4;
          break;
        default: break;
      }
      const DesignSourceMap* sources = variant % 2 == 0 ? &d.sources
                                                        : nullptr;
      const AuditReport want =
          reference_audit_design(d.design, options, sources);
      expect_same_report(audit_design(d.design, options, sources), want);
      // The class work on pools of every size, bitwise.
      for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(threads);
        expect_same_report(
            detail::audit_design(d.design, options, sources, threads), want);
      }
    }
  }
}

}  // namespace
}  // namespace awesim::audit
