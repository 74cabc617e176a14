#include "timing/delay_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "circuit/circuit.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "timing/stage_cache.h"

namespace awesim::timing {

const char* to_string(DelayModelKind kind) {
  switch (kind) {
    case DelayModelKind::Awe: return "awe";
    case DelayModelKind::ElmoreBound: return "elmore";
    case DelayModelKind::TwoPole: return "two_pole";
    case DelayModelKind::TableLookup: return "table";
  }
  return "?";
}

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
// circuit nodes of the driver point and each sink point.
struct StageCircuit {
  circuit::Circuit ckt;
  circuit::NodeId driver_node;
  std::map<std::string, circuit::NodeId> sink_nodes;
};

StageCircuit build_stage(const Gate& driver, const Net& net,
                         const std::map<std::string, Gate>& gates,
                         double swing, double slew) {
  StageCircuit sc;
  auto& ckt = sc.ckt;
  const auto vin = ckt.node("__in");
  ckt.add_vsource("Vdrv", vin, circuit::kGround,
                  slew > 0.0
                      ? circuit::Stimulus::ramp_step(0.0, swing, slew)
                      : circuit::Stimulus::step(0.0, swing));
  const auto drv = ckt.node("DRV");
  ckt.add_resistor("__Rdrv", vin, drv, driver.drive_resistance);
  sc.driver_node = drv;

  std::size_t counter = 0;
  for (const auto& e : net.parasitics) {
    const auto a = ckt.node(e.node_a);
    const auto b = ckt.node(e.node_b);
    const std::string name = "__p" + std::to_string(counter++);
    switch (e.kind) {
      case NetElement::Kind::Resistor:
        ckt.add_resistor(name, a, b, e.value);
        break;
      case NetElement::Kind::Capacitor:
        ckt.add_capacitor(name, a, b, e.value);
        break;
      case NetElement::Kind::Inductor:
        ckt.add_inductor(name, a, b, e.value);
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
  for (const auto& [sink, node_name] : net.sink_node) {
    const auto node = ckt.node(node_name);
    sc.sink_nodes[sink] = node;
    const auto it = gates.find(sink);
    if (it != gates.end() && it->second.input_capacitance > 0.0) {
      ckt.add_capacitor("__cin_" + sink, node, circuit::kGround,
                        it->second.input_capacitance);
    }
  }
  return sc;
}

// The moment-matching evaluation shared by the Awe and TwoPole models:
// the Awe model runs the requested order with auto-escalation (the
// paper's Sections 3.3/3.4), the TwoPole model pins q = 2 with no
// escalation (the Penfield-Rubinstein middle ground).  Everything else
// -- pre-flight lint, batch solve, LU adoption/capture, threshold
// extraction, degradation accounting -- is common.
StageEvaluation engine_backed_evaluate(const StageProblem& p, int order,
                                       bool auto_order) {
  const Gate& driver = *p.driver;
  const Net& net = *p.net;
  const std::map<std::string, Gate>& gates = *p.gates;
  const AnalysisOptions& options = *p.options;
  const double t_in = p.input_arrival;
  const double in_slew = p.input_slew;

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
  std::size_t lint_errors = 0;
  std::size_t lint_warnings = 0;
  std::shared_ptr<const check::LintReport> lint;
  if (options.preflight_lint) {
    if (p.lint_pre != nullptr) {
      lint = p.lint_pre;
    } else {
      check::LintOptions lint_options;
      lint_options.classify_note = false;
      lint = std::make_shared<const check::LintReport>(
          check::lint(sc.ckt, lint_options));
      if (p.capture_factorization) outcome.lint = lint;
    }
    lint_errors = lint->errors;
    lint_warnings = lint->warnings;
    if (!lint->ok()) {
      const core::Diagnostic* first_error = nullptr;
      core::Diagnostics lint_records;
      for (const auto& d : lint->diagnostics) {
        if (d.severity >= core::Severity::Error) {
          if (first_error == nullptr) first_error = &d;
          lint_records.push_back(d);
        }
      }
      StageEvaluation fallback = detail::elmore_fallback_stage(
          driver, net, gates, t_in, in_slew,
          "pre-flight lint: " + first_error->to_string());
      fallback.timing.diagnostics.insert(
          fallback.timing.diagnostics.begin(), lint_records.begin(),
          lint_records.end());
      fallback.stats.lint_errors = lint_errors;
      fallback.stats.lint_warnings = lint_warnings;
      fallback.lint = std::move(outcome.lint);
      return fallback;
    }
  }

  core::Engine engine(sc.ckt);
  bool low_rank_used = false;
  bool low_rank_refused = false;
  if (p.adopt != nullptr) {
    // A content-identical circuit already factored G in this session:
    // share the LU and replay its factor-time observables (gmin flag,
    // diagnostics) so every Result is bitwise what a fresh factorization
    // would have produced; only the LU work is skipped.
    engine.system().adopt_g_solver(p.adopt->solver, p.adopt->used_gmin,
                                   p.adopt->diagnostics);
  } else if (p.low_rank != nullptr) {
    // No exact factorization, but the Session found a value-perturbed
    // donor: try the Sherman-Morrison warm path.  A refusal (rank cap,
    // drift watchdog, fault probe, unsupported delta) simply leaves the
    // engine to factor fresh -- always correct, and flagged so sweeps
    // can see their refactorization rate.
    low_rank_used = engine.system().adopt_low_rank_solver(
        p.low_rank->donor->solver, p.low_rank->donor->used_gmin,
        p.low_rank->donor->diagnostics, p.low_rank->deltas,
        p.low_rank->options);
    if (!low_rank_used) {
      low_rank_refused = true;
      core::Diagnostic d;
      d.code = core::DiagCode::LowRankDrift;
      d.severity = core::Severity::Info;
      d.message =
          "low-rank warm path refused the accumulated updates; stage "
          "refactorized in full";
      d.element = net.name;
      st.diagnostics.push_back(std::move(d));
    }
  }
  core::EngineOptions eopt;
  eopt.order = order;
  eopt.auto_order = auto_order;
  eopt.error_tolerance = 0.01;
  eopt.max_order = auto_order ? std::max(order + 2, 6) : order;
  // The analyzer owns the stage pre-flight (above, cached under a
  // Session); never double-lint inside the engine.
  eopt.preflight_lint = false;

  // Sink order: sc.sink_nodes is a std::map, so sinks come out sorted
  // by name -- part of the determinism contract.
  std::vector<std::string> sink_names;
  std::vector<circuit::NodeId> sink_nodes;
  sink_names.reserve(sc.sink_nodes.size());
  sink_nodes.reserve(sc.sink_nodes.size());
  for (const auto& [sink, node] : sc.sink_nodes) {
    sink_names.push_back(sink);
    sink_nodes.push_back(node);
  }

  // One batch solve for the whole net: the LU factorization and moment
  // vectors are shared; each sink costs only its moment match.
  const core::BatchResult batch = engine.approximate_all(sink_nodes, eopt);
  for (std::size_t i = 0; i < sink_names.size(); ++i) {
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
      d.node = sink_names[i];
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
    sink_t.gate = sink_names[i];
    sink_t.stage_delay = driver.intrinsic_delay + t_th.value_or(horizon);
    sink_t.slew = (t_hi && t_lo) ? *t_hi - *t_lo : horizon;
    sink_t.arrival = t_in + sink_t.stage_delay;
    st.sinks.push_back(std::move(sink_t));
  }
  const std::shared_ptr<const check::LintReport> fresh_lint =
      std::move(outcome.lint);
  outcome.stats = batch.stats;
  outcome.stats.stages = 1;
  outcome.stats.lint_errors += lint_errors;
  outcome.stats.lint_warnings += lint_warnings;
  outcome.lint = fresh_lint;
  outcome.low_rank_used = low_rank_used;
  outcome.stats.low_rank_points = low_rank_used ? 1 : 0;
  outcome.stats.low_rank_refactorizations = low_rank_refused ? 1 : 0;
  if (p.capture_factorization && p.adopt == nullptr && !low_rank_used) {
    // Publish this circuit's G factorization (and its factor-time
    // observables) for the post-pass to cache under the content key.
    // Never when the stage ran on a corrected donor: a low-rank solver
    // is tolerance-equal, not bit-equal, and must not masquerade as an
    // exact factorization of this content.
    outcome.solver = engine.system().shared_g_solver();
    outcome.used_gmin = engine.system().used_gmin();
    outcome.factor_diags = engine.system().diagnostics();
  }
  return outcome;
}

class AweModel final : public DelayModel {
 public:
  DelayModelKind kind() const override { return DelayModelKind::Awe; }
  const char* name() const override { return "awe"; }
  bool uses_engine() const override { return true; }
  StageEvaluation evaluate(const StageProblem& p) const override {
    return engine_backed_evaluate(p, p.options->order, /*auto_order=*/true);
  }
};

class TwoPoleModel final : public DelayModel {
 public:
  DelayModelKind kind() const override { return DelayModelKind::TwoPole; }
  const char* name() const override { return "two_pole"; }
  bool uses_engine() const override { return true; }
  StageEvaluation evaluate(const StageProblem& p) const override {
    return engine_backed_evaluate(p, /*order=*/2, /*auto_order=*/false);
  }
};

class ElmoreBoundModel final : public DelayModel {
 public:
  DelayModelKind kind() const override {
    return DelayModelKind::ElmoreBound;
  }
  const char* name() const override { return "elmore"; }
  bool uses_engine() const override { return false; }
  StageEvaluation evaluate(const StageProblem& p) const override {
    // Same arithmetic as the failure fallback -- the whole point: when a
    // stage dies under the Awe model, its substitute is exactly what
    // this model would have said -- but as a first-class answer: no
    // degraded/failed taint, no StageFailed diagnostic.
    StageEvaluation outcome = detail::elmore_fallback_stage(
        *p.driver, *p.net, *p.gates, p.input_arrival, p.input_slew,
        "model");
    outcome.timing.degraded = false;
    outcome.timing.failed = false;
    outcome.timing.diagnostics.clear();
    outcome.stats = {};
    outcome.stats.stages = 1;
    return outcome;
  }
};

// The characterized-table model: delay and output slew interpolated from
// a precomputed grid over the scale-free ratio u = input_slew / tau,
// where tau is the lumped Elmore time constant of the stage.  The grid
// is characterized once, at first use, from the exact single-pole ramp
// response (bisection on the closed form) -- the shape of an NLDM cell
// table with its two axes (load, slew) collapsed onto the normalized
// axis that actually drives the single-pole answer.  Between grid points
// the model answers by linear interpolation in ln u, so it carries
// genuine table-lookup error with respect to the closed form.
class TableLookupModel final : public DelayModel {
 public:
  TableLookupModel() {
    // Log grid over u = slew/tau in [1e-3, 1e3], 97 points.
    const double lo = std::log(1e-3);
    const double hi = std::log(1e3);
    for (std::size_t i = 0; i < kPoints; ++i) {
      const double lu =
          lo + (hi - lo) * static_cast<double>(i) /
                   static_cast<double>(kPoints - 1);
      log_u_[i] = lu;
      const double u = std::exp(lu);
      delay_factor_[i] = crossing(u, 0.5);
      slew_factor_[i] = crossing(u, 0.8) - crossing(u, 0.2);
    }
  }

  DelayModelKind kind() const override {
    return DelayModelKind::TableLookup;
  }
  const char* name() const override { return "table"; }
  bool uses_engine() const override { return false; }

  StageEvaluation evaluate(const StageProblem& p) const override {
    const Gate& driver = *p.driver;
    StageEvaluation outcome;
    StageTiming& st = outcome.timing;
    st.driver_gate = driver.name;
    st.net = p.net->name;
    st.input_arrival = p.input_arrival;

    const double tau = detail::lumped_elmore_tau(driver, *p.net, *p.gates);
    double delay = 0.0;
    double out_slew = p.input_slew;
    if (tau > 0.0) {
      const double u =
          std::max(p.input_slew, 0.0) / tau;  // 0 = ideal step column
      delay = tau * lookup(log_u_, delay_factor_, u);
      out_slew = std::max(tau * lookup(log_u_, slew_factor_, u),
                          p.input_slew);
    }
    for (const auto& [sink, node_name] : p.net->sink_node) {
      SinkTiming sink_t;
      sink_t.gate = sink;
      sink_t.stage_delay = driver.intrinsic_delay + delay;
      sink_t.slew = out_slew;
      sink_t.arrival = p.input_arrival + sink_t.stage_delay;
      st.sinks.push_back(std::move(sink_t));
    }
    outcome.stats.stages = 1;
    return outcome;
  }

 private:
  static constexpr std::size_t kPoints = 97;

  /// Normalized crossing time x = t/tau of level `f` for a unit ramp of
  /// normalized rise u = T/tau through a single pole:
  ///   x <= u:  w(x) = (x - (1 - e^-x)) / u
  ///   x >  u:  w(x) = 1 - ((1 - e^-u)/u) e^-(x-u)
  /// Monotone, so bisection is exact to the tolerance.
  static double crossing(double u, double f) {
    auto w = [u](double x) {
      if (x <= u) return (x - (1.0 - std::exp(-x))) / u;
      return 1.0 - ((1.0 - std::exp(-u)) / u) * std::exp(-(x - u));
    };
    double lo = 0.0;
    double hi = u + 50.0;
    for (int i = 0; i < 200; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (w(mid) < f) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  }

  static double lookup(const std::array<double, kPoints>& xs,
                       const std::array<double, kPoints>& ys, double u) {
    // Clamp below the grid to the step-response column and above it to
    // the slow-ramp column; interpolate linearly in ln u between.
    const double lu = std::log(std::max(u, 1e-300));
    if (lu <= xs.front()) return ys.front();
    if (lu >= xs.back()) return ys.back();
    const auto it = std::upper_bound(xs.begin(), xs.end(), lu);
    const std::size_t j = static_cast<std::size_t>(it - xs.begin());
    const double t = (lu - xs[j - 1]) / (xs[j] - xs[j - 1]);
    return ys[j - 1] + t * (ys[j] - ys[j - 1]);
  }

  std::array<double, kPoints> log_u_{};
  std::array<double, kPoints> delay_factor_{};
  std::array<double, kPoints> slew_factor_{};
};

}  // namespace

const DelayModel& delay_model(DelayModelKind kind) {
  static const AweModel awe;
  static const TwoPoleModel two_pole;
  static const ElmoreBoundModel elmore;
  static const TableLookupModel table;
  switch (kind) {
    case DelayModelKind::Awe: return awe;
    case DelayModelKind::ElmoreBound: return elmore;
    case DelayModelKind::TwoPole: return two_pole;
    case DelayModelKind::TableLookup: return table;
  }
  throw std::invalid_argument("delay_model: unknown kind");
}

}  // namespace awesim::timing
