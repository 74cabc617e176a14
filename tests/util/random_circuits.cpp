#include "util/random_circuits.h"

#include <gtest/gtest.h>

#include <random>
#include <utility>

namespace awesim::timing::testutil {

NetElement r(const std::string& a, const std::string& b, double v) {
  return {NetElement::Kind::Resistor, a, b, v};
}

NetElement c(const std::string& a, double v) {
  return {NetElement::Kind::Capacitor, a, "0", v};
}

Design fanout_design() {
  Design d;
  d.add_gate({"g1", 1.0e3, 4e-15, 5e-12});
  d.add_gate({"g2", 1.2e3, 5e-15, 7e-12});
  d.add_gate({"g3", 0.9e3, 6e-15, 6e-12});
  d.add_gate({"g4", 1.1e3, 4e-15, 8e-12});

  Net n1;
  n1.name = "n1";
  n1.parasitics = {r("DRV", "a", 150.0),  c("a", 40e-15),
                   r("a", "w2", 220.0),   c("w2", 25e-15),
                   r("a", "w3", 330.0),   c("w3", 35e-15)};
  n1.sink_node["g2"] = "w2";
  n1.sink_node["g3"] = "w3";
  d.add_net("g1", n1);

  Net n2;
  n2.name = "n2";
  n2.parasitics = {r("DRV", "b", 270.0), c("b", 60e-15)};
  n2.sink_node["g4"] = "b";
  d.add_net("g2", n2);

  Net n3;
  n3.name = "n3";
  n3.parasitics = {r("DRV", "bc", 410.0), c("bc", 45e-15)};
  n3.sink_node["g4"] = "bc";
  d.add_net("g3", n3);

  Net n4;
  n4.name = "n4";
  n4.parasitics = {r("DRV", "o", 190.0), c("o", 80e-15)};
  n4.sink_node["OUT"] = "o";  // no such gate: design output endpoint
  d.add_net("g4", n4);

  d.set_primary_input("g1");
  return d;
}

Design chain_design(int gates) {
  Design d;
  for (int i = 1; i <= gates; ++i) {
    d.add_gate({"g" + std::to_string(i), 1.0e3 + 10.0 * i, 4e-15,
                5e-12});
  }
  for (int i = 1; i < gates; ++i) {
    Net net;
    net.name = "n" + std::to_string(i);
    net.parasitics = {r("DRV", "w", 200.0 + 13.0 * i),
                      c("w", (20.0 + i) * 1e-15),
                      r("w", "w2", 250.0 + 7.0 * i), c("w2", 30e-15)};
    net.sink_node["g" + std::to_string(i + 1)] = "w2";
    d.add_net("g" + std::to_string(i), net);
  }
  d.set_primary_input("g1");
  return d;
}

std::string gate_name(int i) {
  return "g" + std::string(i < 10 ? "0" : "") + std::to_string(i);
}

TimingReport random_report(std::uint32_t seed, int n_gates,
                           double arc_probability) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> delay(1e-12, 100e-12);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  TimingReport report;
  for (int i = 0; i < n_gates; ++i) report.gate_arrival[gate_name(i)] = 0.0;
  for (int i = 0; i < n_gates; ++i) {
    StageTiming st;
    st.driver_gate = gate_name(i);
    st.net = "n" + std::to_string(i);
    for (int j = i + 1; j < n_gates; ++j) {
      if (coin(rng) < arc_probability) {
        SinkTiming s;
        s.gate = gate_name(j);
        s.stage_delay = delay(rng);
        s.slew = 10e-12;
        st.sinks.push_back(s);
      }
    }
    if (coin(rng) < 0.3) {
      SinkTiming s;
      s.gate = "PO" + std::to_string(i);  // no such gate: a port
      s.stage_delay = delay(rng);
      st.sinks.push_back(s);
    }
    if (!st.sinks.empty()) report.stages.push_back(std::move(st));
  }
  return report;
}

void expect_same_payload(const TimingReport& a, const TimingReport& b,
                         bool compare_diagnostics) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const StageTiming& x = a.stages[i];
    const StageTiming& y = b.stages[i];
    EXPECT_EQ(x.driver_gate, y.driver_gate);
    EXPECT_EQ(x.net, y.net);
    EXPECT_EQ(x.input_arrival, y.input_arrival);
    EXPECT_EQ(x.awe_order_used, y.awe_order_used);
    EXPECT_EQ(x.degraded, y.degraded);
    EXPECT_EQ(x.failed, y.failed);
    ASSERT_EQ(x.sinks.size(), y.sinks.size());
    for (std::size_t j = 0; j < x.sinks.size(); ++j) {
      EXPECT_EQ(x.sinks[j].gate, y.sinks[j].gate);
      EXPECT_EQ(x.sinks[j].stage_delay, y.sinks[j].stage_delay);
      EXPECT_EQ(x.sinks[j].slew, y.sinks[j].slew);
      EXPECT_EQ(x.sinks[j].arrival, y.sinks[j].arrival);
    }
    if (compare_diagnostics) {
      ASSERT_EQ(x.diagnostics.size(), y.diagnostics.size());
      for (std::size_t j = 0; j < x.diagnostics.size(); ++j) {
        EXPECT_EQ(x.diagnostics[j].code, y.diagnostics[j].code);
        EXPECT_EQ(x.diagnostics[j].severity, y.diagnostics[j].severity);
        EXPECT_EQ(x.diagnostics[j].message, y.diagnostics[j].message);
        EXPECT_EQ(x.diagnostics[j].element, y.diagnostics[j].element);
        EXPECT_EQ(x.diagnostics[j].node, y.diagnostics[j].node);
      }
    }
  }
  EXPECT_EQ(a.gate_arrival, b.gate_arrival);
  EXPECT_EQ(a.critical_delay, b.critical_delay);
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.degraded_stages, b.degraded_stages);
  EXPECT_EQ(a.failed_stages, b.failed_stages);
  if (compare_diagnostics) {
    EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
  }
}

namespace {

// Shared scaffolding for the one-stage generators: gates, the net
// bookkeeping, and the finish step that records resistor handles.
struct StageBuilder {
  Net net;
  std::vector<std::size_t> resistor_indices;
  std::vector<double> resistor_values;

  void add_r(const std::string& a, const std::string& b, double v) {
    resistor_indices.push_back(net.parasitics.size());
    resistor_values.push_back(v);
    net.parasitics.push_back(r(a, b, v));
  }
  void add_c(const std::string& node, double v) {
    net.parasitics.push_back(c(node, v));
  }

  StageDesign finish(double drive_resistance) {
    StageDesign out;
    Gate drv;
    drv.name = "drv";
    drv.drive_resistance = drive_resistance;
    out.design.add_gate(drv);
    for (const auto& [sink, node] : net.sink_node) {
      Gate g;
      g.name = sink;
      g.input_capacitance = 5e-15;
      out.design.add_gate(g);
    }
    out.net = net.name;
    out.resistor_indices = std::move(resistor_indices);
    out.resistor_values = std::move(resistor_values);
    out.design.add_net("drv", std::move(net));
    out.design.set_primary_input("drv");
    return out;
  }
};

}  // namespace

StageDesign rc_line_design(std::uint32_t seed, std::size_t sections) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> res(50.0, 500.0);
  std::uniform_real_distribution<double> cap(1e-15, 50e-15);
  StageBuilder b;
  b.net.name = "net0";
  std::string prev = "DRV";
  for (std::size_t i = 0; i < sections; ++i) {
    const std::string node = "n" + std::to_string(i);
    b.add_r(prev, node, res(rng));
    b.add_c(node, cap(rng));
    prev = node;
  }
  b.net.sink_node["snk"] = prev;
  return b.finish(res(rng) * 2.0);
}

StageDesign rc_tree_design(std::uint32_t seed, std::size_t nodes) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> res(50.0, 500.0);
  std::uniform_real_distribution<double> cap(1e-15, 50e-15);
  StageBuilder b;
  b.net.name = "net0";
  std::vector<bool> has_child(nodes, false);
  for (std::size_t i = 0; i < nodes; ++i) {
    std::string parent = "DRV";
    if (i > 0) {
      std::uniform_int_distribution<std::size_t> pick(0, i - 1);
      const std::size_t p = pick(rng);
      has_child[p] = true;
      parent = "n" + std::to_string(p);
    }
    b.add_r(parent, "n" + std::to_string(i), res(rng));
    b.add_c("n" + std::to_string(i), cap(rng));
  }
  std::size_t sink = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    if (!has_child[i]) {
      b.net.sink_node["s" + std::to_string(sink++)] =
          "n" + std::to_string(i);
    }
  }
  return b.finish(res(rng) * 2.0);
}

StageDesign rc_mesh_design(std::uint32_t seed, std::size_t sections,
                           std::size_t cross_links) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> res(50.0, 500.0);
  std::uniform_real_distribution<double> cap(1e-15, 50e-15);
  StageBuilder b;
  b.net.name = "net0";
  std::string prev = "DRV";
  for (std::size_t i = 0; i < sections; ++i) {
    const std::string node = "n" + std::to_string(i);
    b.add_r(prev, node, res(rng));
    b.add_c(node, cap(rng));
    prev = node;
  }
  // Cross-coupling resistors between distinct line nodes turn the
  // ladder into a general (non-tree) resistive mesh.
  std::uniform_int_distribution<std::size_t> pick(0, sections - 1);
  for (std::size_t k = 0; k < cross_links; ++k) {
    const std::size_t a = pick(rng);
    std::size_t bn = pick(rng);
    if (bn == a) bn = (bn + 1) % sections;
    b.add_r("n" + std::to_string(a), "n" + std::to_string(bn),
            res(rng) * 4.0);
  }
  b.net.sink_node["snk"] = prev;
  return b.finish(res(rng) * 2.0);
}

}  // namespace awesim::timing::testutil
