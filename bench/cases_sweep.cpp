// What-if sweep cases of the unified runner -- the incremental
// re-analysis engine (timing::Session) against cold per-point
// re-analysis:
//
//   * sweep.rc_line_1000: a 1000-section RC line stage feeding a small
//     swept tail net.  The sweep touches only the tail, so the warm
//     session recomputes one cheap stage per point and replays the
//     expensive line stage from cache; the cold reference re-runs the
//     full Design::analyze (1000-node LU and all) at every point.
//   * sweep.driver_size_100: driver sizing on the Fig. 16/17 MOS
//     interconnect tree -- 100 drive-resistance points; every point
//     recomputes the (small) stage cold, the warm session replays all
//     points from cache after the first pass.
//
// Accuracy for both: max |critical_delay(warm) - critical_delay(cold)|
// over all points, expected bitwise 0 -- the Session bit-identity
// contract, measured rather than assumed.
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cases.h"
#include "harness.h"
#include "timing/session.h"

namespace awesim::bench {

namespace {

timing::NetElement r(const std::string& a, const std::string& b, double v) {
  return {timing::NetElement::Kind::Resistor, a, b, v};
}
timing::NetElement c(const std::string& a, double v) {
  return {timing::NetElement::Kind::Capacitor, a, "0", v};
}

struct SweepState {
  timing::Design design;
  timing::AnalysisOptions opt;
  timing::SweepParam param;
  std::vector<double> values;
  /// Applies one swept value to a mutation-vehicle session (cold path).
  std::function<void(timing::Session&, double)> set;
  std::unique_ptr<timing::Session> session;
  timing::SweepResult warm;
  std::vector<double> cold_delays;
};

PreparedCase prepare_sweep(std::shared_ptr<SweepState> state) {
  state->session =
      std::make_unique<timing::Session>(state->design, state->opt);
  PreparedCase p;
  p.run = [state] {
    state->warm = state->session->sweep(state->param, state->values);
  };
  p.reference = [state] {
    // Cold per-point re-analysis: same mutations, but every point pays
    // the full Design::analyze (the Session here is only the mutation
    // vehicle; its cache is never consulted by Design::analyze).
    timing::Session mut(state->design, state->opt);
    state->cold_delays.clear();
    state->cold_delays.reserve(state->values.size());
    for (const double v : state->values) {
      state->set(mut, v);
      state->cold_delays.push_back(
          mut.design().analyze(state->opt).critical_delay);
    }
  };
  p.accuracy = [state]() -> double {
    if (state->warm.points.size() != state->cold_delays.size()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    double max_dev = 0.0;
    for (std::size_t i = 0; i < state->cold_delays.size(); ++i) {
      max_dev = std::max(max_dev,
                         std::abs(state->warm.points[i].report.critical_delay -
                                  state->cold_delays[i]));
    }
    return max_dev;
  };
  p.extra = [state]() -> std::vector<std::pair<std::string, double>> {
    // Cache-health metrics of the warm path: reuse counts from the last
    // sweep plus the session cache's cumulative eviction count --
    // nonzero evictions mean the working set outran the StageCache caps
    // and part of the measured speedup was recomputed, not replayed.
    const timing::Session::CacheStats cs = state->session->cache_stats();
    return {
        {"stages_reused", static_cast<double>(state->warm.stages_reused)},
        {"stages_recomputed",
         static_cast<double>(state->warm.stages_recomputed)},
        {"cache_evictions", static_cast<double>(cs.evictions)},
    };
  };
  return p;
}

std::vector<double> linear_values(double start, double step, int count) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    v.push_back(start + step * i);
  }
  return v;
}

BenchCase rc_line_sweep_case() {
  constexpr std::size_t kSections = 1000;
  BenchCase bc;
  bc.name = "sweep.rc_line_" + std::to_string(kSections);
  bc.paper_ref = "Section I (reuse)";
  bc.accuracy_metric = "critical_delay_abs_dev_warm_vs_cold_s";
  bc.problem_size = kSections;
  bc.prepare = [] {
    auto state = std::make_shared<SweepState>();
    timing::Design& d = state->design;
    d.add_gate({"drv", 200.0, 4e-15, 0.0});
    d.add_gate({"load", 500.0, 5e-15, 5e-12});
    // The expensive, never-swept stage: a uniform 1000-section line
    // (1 kOhm / 1 nF total, matching speedup.rc_line_1000).
    timing::Net line;
    line.name = "line";
    const double r_sec = 1e3 / static_cast<double>(kSections);
    const double c_sec = 1e-9 / static_cast<double>(kSections);
    std::string prev = "DRV";
    for (std::size_t i = 1; i <= kSections; ++i) {
      const std::string node = "c" + std::to_string(i);
      line.parasitics.push_back(r(prev, node, r_sec));
      line.parasitics.push_back(c(node, c_sec));
      prev = node;
    }
    line.sink_node["load"] = prev;
    d.add_net("drv", line);
    // The cheap, swept stage: one RC tap to the design output.
    timing::Net tail;
    tail.name = "tail";
    tail.parasitics = {r("DRV", "t1", 100.0), c("t1", 20e-15)};
    tail.sink_node["OUT"] = "t1";
    d.add_net("load", tail);
    d.set_primary_input("drv");

    state->opt.threads = 1;
    state->param = {timing::SweepParam::Kind::NetElementValue, "tail", 0};
    state->values = linear_values(100.0, 10.0, 100);
    state->set = [](timing::Session& s, double v) {
      s.set_value("tail", 0, v);
    };
    return prepare_sweep(state);
  };
  return bc;
}

BenchCase driver_size_sweep_case() {
  BenchCase bc;
  bc.name = "sweep.driver_size_100";
  bc.paper_ref = "Fig. 17";
  bc.accuracy_metric = "critical_delay_abs_dev_warm_vs_cold_s";
  bc.problem_size = 100;  // sweep points
  bc.prepare = [] {
    auto state = std::make_shared<SweepState>();
    timing::Design& d = state->design;
    d.add_gate({"drv", 150.0, 4e-15, 0.0});
    d.add_gate({"load", 1e3, 5e-15, 0.0});
    // The Fig. 16 stiff RC interconnect tree as net parasitics (R1 runs
    // from the driver hookup; sink at the paper's output n7).
    timing::Net net;
    net.name = "mos";
    net.parasitics = {
        r("DRV", "n1", 150.0), r("n1", "n2", 300.0),
        r("n2", "n3", 200.0),  r("n3", "n4", 400.0),
        r("n4", "n5", 150.0),  r("n5", "n6", 500.0),
        r("n6", "n7", 300.0),  r("n3", "n8", 50.0),
        r("n8", "n9", 1.5e3),  r("n5", "n10", 2.5e3),
        c("n1", 60e-15),       c("n2", 120e-15),
        c("n3", 30e-15),       c("n4", 250e-15),
        c("n5", 50e-15),       c("n6", 180e-15),
        c("n7", 120e-15),      c("n8", 5e-15),
        c("n9", 25e-15),       c("n10", 90e-15)};
    net.sink_node["load"] = "n7";
    d.add_net("drv", net);
    d.set_primary_input("drv");

    state->opt.threads = 1;
    state->param = {timing::SweepParam::Kind::DriveResistance, "drv", 0};
    state->values = linear_values(50.0, 5.0, 100);
    state->set = [](timing::Session& s, double v) {
      s.set_drive_resistance("drv", v);
    };
    return prepare_sweep(state);
  };
  return bc;
}

}  // namespace

void register_sweep_cases() {
  register_bench(rc_line_sweep_case());
  register_bench(driver_size_sweep_case());
}

}  // namespace awesim::bench
