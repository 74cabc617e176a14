#include "timing/delay_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <vector>

#include "circuit/circuit.h"
#include "core/engine.h"
#include "core/fault.h"
#include "obs/trace.h"

namespace awesim::timing {

namespace detail {

double lumped_elmore_tau(const Gate& driver, const Net& net,
                         const std::map<std::string, Gate>& gates) {
  double r_total = driver.drive_resistance;
  double c_total = 0.0;
  for (const auto& e : net.parasitics) {
    if (e.kind == NetElement::Kind::Resistor && std::isfinite(e.value)) {
      r_total += std::abs(e.value);
    } else if (e.kind == NetElement::Kind::Capacitor &&
               std::isfinite(e.value)) {
      c_total += std::abs(e.value);
    }
  }
  // Reduced nets carry the collapsed interior's R/C totals on the
  // macro, keeping this bound identical to the flat net's.
  for (const auto& m : net.macros) {
    if (std::isfinite(m.sum_resistance)) r_total += m.sum_resistance;
    if (std::isfinite(m.sum_capacitance)) c_total += m.sum_capacitance;
  }
  for (const auto& [sink, node_name] : net.sink_node) {
    const auto it = gates.find(sink);
    if (it != gates.end() && it->second.input_capacitance > 0.0) {
      c_total += it->second.input_capacitance;
    }
  }
  return r_total * c_total;
}

StageEvaluation elmore_fallback_stage(const Gate& driver, const Net& net,
                                      const std::map<std::string, Gate>& gates,
                                      double input_arrival, double input_slew,
                                      const std::string& reason) {
  StageEvaluation outcome;
  StageTiming& st = outcome.timing;
  st.driver_gate = driver.name;
  st.net = net.name;
  st.input_arrival = input_arrival;
  st.degraded = true;
  st.failed = true;

  const double tau = lumped_elmore_tau(driver, net, gates);
  // Single-pole response: 50% crossing at ln 2 * tau, 20-80% rise over
  // ln 4 * tau; half the input slew stands in for the ramp delay.
  const double delay =
      driver.intrinsic_delay + std::log(2.0) * tau + 0.5 * input_slew;
  const double out_slew = std::max(std::log(4.0) * tau, input_slew);
  for (const auto& [sink, node_name] : net.sink_node) {
    SinkTiming sink_t;
    sink_t.gate = sink;
    sink_t.stage_delay = delay;
    sink_t.slew = out_slew;
    sink_t.arrival = input_arrival + delay;
    st.sinks.push_back(std::move(sink_t));
  }

  core::Diagnostic d;
  d.code = core::DiagCode::StageFailed;
  d.severity = core::Severity::Error;
  d.message = "stage evaluation failed (" + reason +
              "); substituted the lumped Elmore bound tau=" +
              std::to_string(tau) + "s";
  d.element = net.name;
  d.node = driver.name;
  st.diagnostics.push_back(std::move(d));

  outcome.stats.stages = 1;
  outcome.stats.failures = 1;
  return outcome;
}

}  // namespace detail

namespace {

// Build the stage circuit for one net: ramp source -> driver resistance ->
// parasitics -> sink input capacitances.  Returns the circuit and the
// circuit node of each sink point, in the net's (name-sorted) sink_node
// order.
struct StageCircuit {
  circuit::Circuit ckt;
  std::vector<circuit::NodeId> sink_nodes;
};

StageCircuit build_stage(const Gate& driver, const Net& net,
                         const std::map<std::string, Gate>& gates,
                         double swing, double slew) {
  AWESIM_TRACE_SPAN("stage.build");
  StageCircuit sc;
  auto& ckt = sc.ckt;
  // A connected net has at most one node per element or port past
  // ground, "__in" and "DRV": the node hint is a bound, not a guess.
  std::size_t ports = 0;
  for (const auto& m : net.macros) ports += m.ports.size();
  ckt.reserve(2 + net.parasitics.size() + net.sink_node.size(),
              3 + net.parasitics.size() + ports + net.sink_node.size());
  const auto vin = ckt.node("__in");
  ckt.add_vsource("Vdrv", vin, circuit::kGround,
                  slew > 0.0
                      ? circuit::Stimulus::ramp_step(0.0, swing, slew)
                      : circuit::Stimulus::step(0.0, swing));
  const auto drv = ckt.node("DRV");
  ckt.add_resistor("__Rdrv", vin, drv, driver.drive_resistance);

  std::size_t counter = 0;
  for (const auto& e : net.parasitics) {
    const auto a = ckt.node(e.node_a);
    const auto b = ckt.node(e.node_b);
    std::string name = "__p" + std::to_string(counter++);
    switch (e.kind) {
      case NetElement::Kind::Resistor:
        ckt.add_resistor(std::move(name), a, b, e.value);
        break;
      case NetElement::Kind::Capacitor:
        ckt.add_capacitor(std::move(name), a, b, e.value);
        break;
      case NetElement::Kind::Inductor:
        ckt.add_inductor(std::move(name), a, b, e.value);
        break;
    }
  }
  std::size_t macro_counter = 0;
  for (const auto& m : net.macros) {
    circuit::MacroElement macro;
    macro.name = "__m" + std::to_string(macro_counter++);
    macro.ports.reserve(m.ports.size());
    for (const auto& port : m.ports) macro.ports.push_back(ckt.node(port));
    macro.states = m.states;
    macro.g = m.g;
    macro.c = m.c;
    macro.sum_resistance = m.sum_resistance;
    macro.sum_capacitance = m.sum_capacitance;
    ckt.add_macro(std::move(macro));
  }
  sc.sink_nodes.reserve(net.sink_node.size());
  for (const auto& [sink, node_name] : net.sink_node) {
    const auto node = ckt.node(node_name);
    sc.sink_nodes.push_back(node);
    const auto it = gates.find(sink);
    if (it != gates.end() && it->second.input_capacitance > 0.0) {
      ckt.add_capacitor("__cin_" + sink, node, circuit::kGround,
                        it->second.input_capacitance);
    }
  }
  return sc;
}

}  // namespace

namespace detail {

StageEvaluation evaluate_stage(const Gate& driver, const Net& net,
                               const std::map<std::string, Gate>& gates,
                               const AnalysisOptions& options, double t_in,
                               double in_slew,
                               std::shared_ptr<const check::LintReport>
                                   lint_pre) {
  AWESIM_TRACE_SPAN("timing.stage");
  if (core::fault_at("timing.stage", net.name)) {
    throw core::DiagnosticError(
        {core::DiagCode::InjectedFault, core::Severity::Error,
         "injected stage evaluation fault", net.name});
  }

  StageEvaluation outcome;
  StageTiming& st = outcome.timing;
  st.driver_gate = driver.name;
  st.net = net.name;
  st.input_arrival = t_in;

  StageCircuit sc = build_stage(driver, net, gates, options.swing,
                                in_slew);

  // Pre-flight lint: the stage circuit is checked structurally before
  // any matrix is assembled.  Errors short-circuit to the Elmore bound
  // with the lint records naming the offending elements -- previously
  // the same stage died inside the LU and the report said only
  // "singular system".  Warnings never change the timing numbers.
  std::shared_ptr<const check::LintReport> lint = std::move(lint_pre);
  if (lint == nullptr) {
    check::LintOptions lint_options;
    lint_options.classify_note = false;
    lint = std::make_shared<const check::LintReport>(
        check::lint(sc.ckt, lint_options));
    outcome.lint = lint;
  }
  if (!lint->ok()) {
    const core::Diagnostic* first_error = nullptr;
    core::Diagnostics lint_records;
    for (const auto& d : lint->diagnostics) {
      if (d.severity >= core::Severity::Error) {
        if (first_error == nullptr) first_error = &d;
        lint_records.push_back(d);
      }
    }
    StageEvaluation fallback = elmore_fallback_stage(
        driver, net, gates, t_in, in_slew,
        "pre-flight lint: " + first_error->to_string());
    fallback.timing.diagnostics.insert(fallback.timing.diagnostics.begin(),
                                       lint_records.begin(),
                                       lint_records.end());
    fallback.stats.lint_errors = lint->errors;
    fallback.stats.lint_warnings = lint->warnings;
    fallback.lint = std::move(outcome.lint);
    return fallback;
  }

  core::Engine engine(sc.ckt);
  core::EngineOptions eopt;
  eopt.order = options.order;
  eopt.auto_order = true;
  eopt.error_tolerance = 0.01;
  eopt.max_order = std::max(options.order + 2, 6);
  // The analyzer owns the stage pre-flight (above, cached under a
  // Session); never double-lint inside the engine.
  eopt.preflight_lint = false;

  // One batch solve for the whole net: the LU factorization and moment
  // vectors are shared; each sink costs only its moment match.  Sinks
  // come in net.sink_node order -- a std::map, so sorted by name, part
  // of the determinism contract.
  const core::BatchResult batch =
      engine.approximate_all(sc.sink_nodes, eopt);
  auto sink = net.sink_node.begin();
  for (std::size_t i = 0; i < sc.sink_nodes.size(); ++i, ++sink) {
    const std::string& sink_name = sink->first;
    const core::Result& result = batch.results[i];
    st.awe_order_used = std::max(st.awe_order_used, result.order_used);
    if (result.status >= core::ApproxStatus::OrderReduced) {
      // The engine walked its degradation ladder for this sink: the
      // timing numbers below come from a below-requested-quality model.
      st.degraded = true;
      core::Diagnostic d;
      d.code = core::DiagCode::StageDegraded;
      d.severity = core::Severity::Warning;
      d.message = std::string("sink answered from ladder rung '") +
                  core::to_string(result.status) + "'";
      d.element = net.name;
      d.node = sink_name;
      st.diagnostics.push_back(std::move(d));
    }
    for (const auto& rd : result.diagnostics) {
      if (rd.severity >= core::Severity::Warning) {
        st.diagnostics.push_back(rd);
      }
    }
    // Horizon: generous multiple of the slowest time constant plus the
    // input slew.
    const double tau = result.approximation.dominant_time_constant();
    const double horizon = 12.0 * tau + 3.0 * in_slew + 1e-15;
    const std::array<double, 3> levels{
        options.swing * options.delay_threshold_fraction,
        options.swing * options.slew_low_fraction,
        options.swing * options.slew_high_fraction};
    const std::vector<std::optional<double>> t = [&] {
      AWESIM_TRACE_SPAN("stage.crossings");
      return result.approximation.first_crossings(levels, 0.0, horizon);
    }();
    const std::optional<double> t_th = t[0];
    const std::optional<double> t_lo = t[1];
    const std::optional<double> t_hi = t[2];
    SinkTiming sink_t;
    sink_t.gate = sink_name;
    sink_t.stage_delay = driver.intrinsic_delay + t_th.value_or(horizon);
    sink_t.slew = (t_hi && t_lo) ? *t_hi - *t_lo : horizon;
    sink_t.arrival = t_in + sink_t.stage_delay;
    st.sinks.push_back(std::move(sink_t));
  }
  outcome.stats = batch.stats;
  outcome.stats.stages = 1;
  outcome.stats.lint_errors += lint->errors;
  outcome.stats.lint_warnings += lint->warnings;
  return outcome;
}

}  // namespace detail

}  // namespace awesim::timing
