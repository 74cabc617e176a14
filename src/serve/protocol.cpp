#include "serve/protocol.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/report_json.h"
#include "core/cancel.h"
#include "core/fault.h"

namespace awesim::serve {

namespace json = obs::json;

namespace {

core::DiagnosticError bad_request(std::string message) {
  return core::DiagnosticError(invalid_request(std::move(message)));
}

/// std::uint64_t is `unsigned long` on LP64, which is ambiguous across
/// the Value constructors; route counters through one explicit widening.
json::Value u64(std::uint64_t n) {
  return json::Value(static_cast<unsigned long long>(n));
}

/// params["key"] as a string; throws InvalidRequest when absent or
/// mistyped.
const std::string& require_string(const json::Value& params,
                                  const char* key) {
  const json::Value* v = params.find(key);
  if (v == nullptr || !v->is_string()) {
    throw bad_request(std::string("missing or non-string parameter '") +
                      key + "'");
  }
  return v->as_string();
}

double require_number(const json::Value& params, const char* key) {
  const json::Value* v = params.find(key);
  if (v == nullptr || !v->is_number()) {
    throw bad_request(std::string("missing or non-number parameter '") +
                      key + "'");
  }
  return v->as_number();
}

double number_or(const json::Value& params, const char* key,
                 double fallback) {
  const json::Value* v = params.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw bad_request(std::string("non-number parameter '") + key + "'");
  }
  return v->as_number();
}

bool bool_or(const json::Value& params, const char* key, bool fallback) {
  const json::Value* v = params.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    throw bad_request(std::string("non-boolean parameter '") + key + "'");
  }
  return v->as_bool();
}

/// A number that must be a non-negative integer (indices, counts).
std::uint64_t require_index(const json::Value& params, const char* key) {
  const double n = require_number(params, key);
  if (!(n >= 0.0) || n != std::floor(n) || n > 9.007199254740992e15) {
    throw bad_request(std::string("parameter '") + key +
                      "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

std::uint64_t index_or(const json::Value& params, const char* key,
                       std::uint64_t fallback) {
  if (params.find(key) == nullptr) return fallback;
  return require_index(params, key);
}

json::Value stats_to_json(const core::Stats& s) {
  json::Value v = json::Value::object();
  v.set("factorizations", u64(s.factorizations));
  v.set("substitutions", u64(s.substitutions));
  v.set("matches", u64(s.matches));
  v.set("stages", u64(s.stages));
  v.set("cache_hits", u64(s.cache_hits));
  v.set("cache_misses", u64(s.cache_misses));
  v.set("stages_reused", u64(s.stages_reused));
  v.set("stages_recomputed", u64(s.stages_recomputed));
  v.set("cache_evictions", u64(s.cache_evictions));
  v.set("lint_errors", u64(s.lint_errors));
  v.set("lint_warnings", u64(s.lint_warnings));
  return v;
}

timing::SweepParam sweep_param_from(const json::Value& params) {
  timing::SweepParam p;
  const std::string& kind = require_string(params, "kind");
  if (kind == "net_element") {
    p.kind = timing::SweepParam::Kind::NetElementValue;
    p.element_index =
        static_cast<std::size_t>(index_or(params, "element_index", 0));
  } else if (kind == "drive_resistance") {
    p.kind = timing::SweepParam::Kind::DriveResistance;
  } else if (kind == "input_capacitance") {
    p.kind = timing::SweepParam::Kind::InputCapacitance;
  } else if (kind == "intrinsic_delay") {
    p.kind = timing::SweepParam::Kind::IntrinsicDelay;
  } else {
    throw bad_request("unknown sweep kind '" + kind +
                      "' (want net_element, drive_resistance, "
                      "input_capacitance, or intrinsic_delay)");
  }
  p.name = require_string(params, "name");
  return p;
}

std::vector<double> require_number_array(const json::Value& params,
                                         const char* key) {
  const json::Value* v = params.find(key);
  if (v == nullptr || !v->is_array()) {
    throw bad_request(std::string("missing or non-array parameter '") +
                      key + "'");
  }
  std::vector<double> out;
  out.reserve(v->size());
  for (std::size_t i = 0; i < v->size(); ++i) {
    if (!v->at(i).is_number()) {
      throw bad_request(std::string("parameter '") + key +
                        "' must hold only numbers");
    }
    out.push_back(v->at(i).as_number());
  }
  return out;
}

}  // namespace

Request parse_request(std::string_view line) {
  const json::Value doc = json::parse(line);
  if (!doc.is_object()) {
    throw bad_request("request must be a JSON object");
  }
  Request req;
  if (const json::Value* id = doc.find("id")) req.id = *id;
  const json::Value* method = doc.find("method");
  if (method == nullptr) {
    throw bad_request("request has no 'method'");
  }
  if (!method->is_string()) {
    throw bad_request("'method' must be a string");
  }
  req.method = method->as_string();
  if (const json::Value* params = doc.find("params")) {
    if (!params->is_object()) {
      throw bad_request("'params' must be an object");
    }
    req.params = *params;
  }
  const double deadline = number_or(req.params, "deadline_ms", 0.0);
  if (!(deadline >= 0.0) || !std::isfinite(deadline)) {
    throw bad_request("'deadline_ms' must be a finite number >= 0");
  }
  req.deadline_ms = deadline;
  req.stage_budget = index_or(req.params, "stage_budget", 0);
  return req;
}

json::Value diagnostic_to_json(const core::Diagnostic& diag) {
  json::Value v = json::Value::object();
  v.set("code", core::to_string(diag.code));
  v.set("severity", core::to_string(diag.severity));
  v.set("message", diag.message);
  if (!diag.element.empty()) v.set("element", diag.element);
  if (!diag.node.empty()) v.set("node", diag.node);
  if (diag.line > 0) {
    if (!diag.file.empty()) v.set("file", diag.file);
    v.set("line", static_cast<unsigned long long>(diag.line));
    if (diag.column > 0) {
      v.set("column", static_cast<unsigned long long>(diag.column));
    }
  }
  if (diag.condition_estimate >= 0.0) {
    v.set("condition_estimate", diag.condition_estimate);
  }
  return v;
}

json::Value diagnostics_to_json(const core::Diagnostics& diags) {
  json::Value v = json::Value::array();
  for (const core::Diagnostic& d : diags) v.push_back(diagnostic_to_json(d));
  return v;
}

json::Value ok_response(const json::Value& id, std::uint64_t generation,
                        json::Value result) {
  json::Value v = json::Value::object();
  v.set("id", id);
  v.set("ok", true);
  v.set("generation", static_cast<unsigned long long>(generation));
  v.set("result", std::move(result));
  return v;
}

json::Value error_response(const json::Value& id,
                           const core::Diagnostic& diag,
                           double retry_after_ms) {
  json::Value err = json::Value::object();
  err.set("code", core::to_string(diag.code));
  err.set("severity", core::to_string(diag.severity));
  err.set("message", diag.message);
  json::Value diags = json::Value::array();
  diags.push_back(diagnostic_to_json(diag));
  err.set("diagnostics", std::move(diags));
  json::Value v = json::Value::object();
  v.set("id", id);
  v.set("ok", false);
  v.set("error", std::move(err));
  if (retry_after_ms >= 0.0) v.set("retry_after_ms", retry_after_ms);
  return v;
}

core::Diagnostic invalid_request(std::string message) {
  core::Diagnostic d;
  d.code = core::DiagCode::InvalidRequest;
  d.severity = core::Severity::Error;
  d.message = std::move(message);
  return d;
}

core::Diagnostic server_overloaded(std::string message) {
  core::Diagnostic d;
  d.code = core::DiagCode::ServerOverloaded;
  d.severity = core::Severity::Error;
  d.message = std::move(message);
  return d;
}

json::Value report_to_json(const timing::TimingReport& report,
                           bool include_stages) {
  json::Value v = json::Value::object();
  v.set("worst_slack", report.worst_slack);
  v.set("worst_slack_endpoint", report.worst_slack_endpoint);
  v.set("critical_delay", report.critical_delay);
  json::Value path = json::Value::array();
  for (const std::string& g : report.critical_path) path.push_back(g);
  v.set("critical_path", std::move(path));
  v.set("levels", static_cast<unsigned long long>(report.levels));
  v.set("stage_count",
        static_cast<unsigned long long>(report.stages.size()));
  v.set("degraded_stages",
        static_cast<unsigned long long>(report.degraded_stages));
  v.set("failed_stages",
        static_cast<unsigned long long>(report.failed_stages));
  v.set("diagnostics", diagnostics_to_json(report.diagnostics));
  v.set("stats", stats_to_json(report.awe_stats));
  if (include_stages) {
    json::Value stages = json::Value::array();
    for (const timing::StageTiming& st : report.stages) {
      json::Value s = json::Value::object();
      s.set("driver", st.driver_gate);
      s.set("net", st.net);
      s.set("input_arrival", st.input_arrival);
      s.set("awe_order_used", st.awe_order_used);
      s.set("degraded", st.degraded);
      s.set("failed", st.failed);
      json::Value sinks = json::Value::array();
      for (const timing::SinkTiming& sk : st.sinks) {
        json::Value o = json::Value::object();
        o.set("gate", sk.gate);
        o.set("stage_delay", sk.stage_delay);
        o.set("slew", sk.slew);
        o.set("arrival", sk.arrival);
        sinks.push_back(std::move(o));
      }
      s.set("sinks", std::move(sinks));
      stages.push_back(std::move(s));
    }
    v.set("stages", std::move(stages));
    json::Value arrivals = json::Value::object();
    for (const auto& [gate, t] : report.gate_arrival) arrivals.set(gate, t);
    v.set("gate_arrival", std::move(arrivals));
    json::Value slacks = json::Value::object();
    for (const auto& [gate, s] : report.gate_slack) slacks.set(gate, s);
    v.set("gate_slack", std::move(slacks));
  }
  return v;
}

json::Value paths_to_json(const timing::PathsResult& result) {
  json::Value v = json::Value::object();
  json::Value paths = json::Value::array();
  for (const timing::Path& p : result.paths) {
    json::Value o = json::Value::object();
    o.set("source", p.source);
    o.set("endpoint", p.endpoint);
    o.set("arrival", p.arrival);
    o.set("slack", p.slack);
    o.set("degraded", p.degraded);
    o.set("failed", p.failed);
    json::Value points = json::Value::array();
    for (const timing::PathPoint& pt : p.points) {
      json::Value q = json::Value::object();
      q.set("pin", pt.pin);
      q.set("arrival", pt.arrival);
      q.set("delay", pt.delay);
      if (!pt.net.empty()) q.set("net", pt.net);
      points.push_back(std::move(q));
    }
    o.set("points", std::move(points));
    paths.push_back(std::move(o));
  }
  v.set("paths", std::move(paths));
  v.set("truncated", result.truncated);
  v.set("expansions", static_cast<unsigned long long>(result.expansions));
  return v;
}

json::Value sweep_to_json(const timing::SweepResult& result) {
  json::Value v = json::Value::object();
  v.set("baseline_worst_slack", result.baseline.worst_slack);
  v.set("baseline_critical_delay", result.baseline.critical_delay);
  json::Value points = json::Value::array();
  for (const timing::SweepPoint& p : result.points) {
    json::Value o = json::Value::object();
    o.set("value", p.value);
    o.set("worst_slack", p.worst_slack);
    o.set("slack_delta", p.slack_delta);
    o.set("critical_path_changed", p.critical_path_changed);
    points.push_back(std::move(o));
  }
  v.set("points", std::move(points));
  v.set("stages_reused",
        static_cast<unsigned long long>(result.stages_reused));
  v.set("stages_recomputed",
        static_cast<unsigned long long>(result.stages_recomputed));
  return v;
}

json::Value lint_to_json(const check::LintReport& report) {
  json::Value v = json::Value::object();
  v.set("ok", report.ok());
  v.set("topology", check::to_string(report.topology));
  v.set("errors", static_cast<unsigned long long>(report.errors));
  v.set("warnings", static_cast<unsigned long long>(report.warnings));
  v.set("diagnostics", diagnostics_to_json(report.diagnostics));
  return v;
}

json::Value cache_stats_to_json(const timing::Session::CacheStats& s) {
  json::Value v = json::Value::object();
  v.set("stage_entries", static_cast<unsigned long long>(s.stage_entries));
  v.set("factorization_entries",
        static_cast<unsigned long long>(s.factorization_entries));
  v.set("lint_entries", static_cast<unsigned long long>(s.lint_entries));
  v.set("hits", u64(s.hits));
  v.set("misses", u64(s.misses));
  v.set("invalidations", u64(s.invalidations));
  v.set("evictions", u64(s.evictions));
  v.set("lint_hits", u64(s.lint_hits));
  v.set("lint_misses", u64(s.lint_misses));
  v.set("reduction_entries",
        static_cast<unsigned long long>(s.reduction_entries));
  v.set("reduction_hits", u64(s.reduction_hits));
  v.set("reduction_misses", u64(s.reduction_misses));
  return v;
}

timing::Design design_from_json(const json::Value& v) {
  if (!v.is_object()) throw bad_request("'design' must be an object");
  const json::Value* gates = v.find("gates");
  if (gates == nullptr || !gates->is_array() || gates->size() == 0) {
    throw bad_request("design needs a non-empty 'gates' array");
  }
  timing::Design design;
  for (std::size_t i = 0; i < gates->size(); ++i) {
    const json::Value& g = gates->at(i);
    if (!g.is_object()) throw bad_request("each gate must be an object");
    timing::Gate gate;
    gate.name = require_string(g, "name");
    timing::Gate defaults;
    gate.drive_resistance =
        number_or(g, "drive_resistance", defaults.drive_resistance);
    gate.input_capacitance =
        number_or(g, "input_capacitance", defaults.input_capacitance);
    gate.intrinsic_delay =
        number_or(g, "intrinsic_delay", defaults.intrinsic_delay);
    design.add_gate(std::move(gate));
  }
  if (const json::Value* nets = v.find("nets")) {
    if (!nets->is_array()) throw bad_request("'nets' must be an array");
    for (std::size_t i = 0; i < nets->size(); ++i) {
      const json::Value& n = nets->at(i);
      if (!n.is_object()) throw bad_request("each net must be an object");
      timing::Net net;
      net.name = require_string(n, "name");
      const std::string driver = require_string(n, "driver");
      if (const json::Value* sinks = n.find("sinks")) {
        if (!sinks->is_object()) {
          throw bad_request("net '" + net.name +
                            "': 'sinks' must be an object of gate -> node");
        }
        for (const auto& [gate, node] : sinks->items()) {
          if (!node.is_string()) {
            throw bad_request("net '" + net.name +
                              "': sink node names must be strings");
          }
          net.sink_node[gate] = node.as_string();
        }
      }
      const json::Value* elements = n.find("elements");
      if (elements == nullptr || !elements->is_array()) {
        throw bad_request("net '" + net.name +
                          "' needs an 'elements' array");
      }
      for (std::size_t e = 0; e < elements->size(); ++e) {
        const json::Value& el = elements->at(e);
        if (!el.is_object()) {
          throw bad_request("net '" + net.name +
                            "': each element must be an object");
        }
        timing::NetElement elem;
        const std::string& kind = require_string(el, "kind");
        if (kind == "R") {
          elem.kind = timing::NetElement::Kind::Resistor;
        } else if (kind == "C") {
          elem.kind = timing::NetElement::Kind::Capacitor;
        } else if (kind == "L") {
          elem.kind = timing::NetElement::Kind::Inductor;
        } else {
          throw bad_request("net '" + net.name + "': element kind '" +
                            kind + "' must be R, C, or L");
        }
        elem.node_a = require_string(el, "a");
        elem.node_b = require_string(el, "b");
        elem.value = require_number(el, "value");
        net.parasitics.push_back(std::move(elem));
      }
      design.add_net(driver, std::move(net));
    }
  }
  if (const json::Value* pis = v.find("primary_inputs")) {
    if (!pis->is_array()) {
      throw bad_request("'primary_inputs' must be an array of gate names");
    }
    for (std::size_t i = 0; i < pis->size(); ++i) {
      if (!pis->at(i).is_string()) {
        throw bad_request("'primary_inputs' must hold only strings");
      }
      design.set_primary_input(pis->at(i).as_string());
    }
  }
  return design;
}

namespace {

/// "chain12" -> ("chain", 12).  Throws on anything else.
std::size_t parse_builtin_size(const std::string& name,
                               std::string_view prefix,
                               std::size_t min_n) {
  std::size_t n = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') {
      throw bad_request("unknown builtin design '" + name + "'");
    }
    n = n * 10 + static_cast<std::size_t>(c - '0');
    if (n > 4096) {
      throw bad_request("builtin design '" + name + "' is too large");
    }
  }
  if (n < min_n) {
    throw bad_request("builtin design '" + name + "' is too small");
  }
  return n;
}

timing::Net rc_net(std::string name, const std::string& sink_gate,
                   double r_ohms, double c_farads) {
  timing::Net net;
  net.name = std::move(name);
  net.parasitics.push_back(
      {timing::NetElement::Kind::Resistor, "DRV", "s", r_ohms});
  net.parasitics.push_back(
      {timing::NetElement::Kind::Capacitor, "s", "0", c_farads});
  net.sink_node[sink_gate] = "s";
  return net;
}

timing::Design chain_design(std::size_t n) {
  timing::Design d;
  for (std::size_t i = 0; i < n; ++i) {
    timing::Gate g;
    g.name = "g" + std::to_string(i);
    g.drive_resistance = 800.0 + 50.0 * static_cast<double>(i % 7);
    g.intrinsic_delay = 10e-12;
    d.add_gate(std::move(g));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    d.add_net("g" + std::to_string(i),
              rc_net("n" + std::to_string(i), "g" + std::to_string(i + 1),
                     400.0 + 25.0 * static_cast<double>(i % 5), 20e-15));
  }
  d.add_net("g" + std::to_string(n - 1),
            rc_net("nout", "out", 250.0, 15e-15));
  d.set_primary_input("g0");
  return d;
}

timing::Design fanout_design(std::size_t n) {
  timing::Design d;
  timing::Gate root;
  root.name = "root";
  root.drive_resistance = 600.0;
  d.add_gate(std::move(root));
  timing::Gate join;
  join.name = "join";
  join.drive_resistance = 900.0;
  join.intrinsic_delay = 15e-12;
  d.add_gate(std::move(join));
  timing::Net fan;
  fan.name = "fan";
  fan.parasitics.push_back(
      {timing::NetElement::Kind::Resistor, "DRV", "t", 200.0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::string leaf = "f" + std::to_string(i);
    const std::string node = "s" + std::to_string(i);
    timing::Gate g;
    g.name = leaf;
    g.drive_resistance = 700.0 + 60.0 * static_cast<double>(i % 4);
    d.add_gate(std::move(g));
    fan.parasitics.push_back(
        {timing::NetElement::Kind::Resistor, "t", node,
         120.0 + 30.0 * static_cast<double>(i)});
    fan.parasitics.push_back(
        {timing::NetElement::Kind::Capacitor, node, "0", 6e-15});
    fan.sink_node[leaf] = node;
  }
  d.add_net("root", std::move(fan));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string leaf = "f" + std::to_string(i);
    d.add_net(leaf, rc_net("m" + std::to_string(i), "join",
                           300.0 + 20.0 * static_cast<double>(i % 3),
                           10e-15));
  }
  d.add_net("join", rc_net("nout", "out", 150.0, 8e-15));
  d.set_primary_input("root");
  return d;
}

}  // namespace

timing::Design builtin_design(const std::string& name) {
  if (name.rfind("chain", 0) == 0) {
    return chain_design(parse_builtin_size(name, "chain", 2));
  }
  if (name.rfind("fanout", 0) == 0) {
    return fanout_design(parse_builtin_size(name, "fanout", 1));
  }
  throw bad_request("unknown builtin design '" + name +
                    "' (want chainN or fanoutN)");
}

json::Value dispatch(timing::SnapshotStore& store, const Request& req,
                     core::CancelToken* cancel,
                     std::uint64_t* generation_out,
                     const std::function<json::Value()>* server_stats) {
  const auto set_generation = [&](std::uint64_t g) {
    if (generation_out != nullptr) *generation_out = g;
  };

  if (req.method == "ping") {
    set_generation(store.current()->generation());
    json::Value r = json::Value::object();
    r.set("pong", true);
    r.set("protocol", kProtocolVersion);
    return r;
  }
  if (req.method == "analyze") {
    const bool full = bool_or(req.params, "full", false);
    const std::shared_ptr<const timing::Snapshot> snap = store.current();
    set_generation(snap->generation());
    return report_to_json(*snap->report(cancel), full);
  }
  if (req.method == "set_value") {
    const std::string& net = require_string(req.params, "net");
    const std::size_t index = static_cast<std::size_t>(
        require_index(req.params, "element_index"));
    const double value = require_number(req.params, "value");
    const std::uint64_t gen = store.mutate(
        [&](timing::Session& s) { s.set_value(net, index, value); });
    set_generation(gen);
    json::Value r = json::Value::object();
    r.set("applied", true);
    return r;
  }
  if (req.method == "set_gate") {
    const std::string& gate = require_string(req.params, "gate");
    const json::Value* rd = req.params.find("drive_resistance");
    const json::Value* ci = req.params.find("input_capacitance");
    const json::Value* di = req.params.find("intrinsic_delay");
    if (rd == nullptr && ci == nullptr && di == nullptr) {
      throw bad_request(
          "set_gate needs at least one of drive_resistance, "
          "input_capacitance, intrinsic_delay");
    }
    const std::uint64_t gen = store.mutate([&](timing::Session& s) {
      if (rd != nullptr) {
        s.set_drive_resistance(gate,
                               require_number(req.params,
                                              "drive_resistance"));
      }
      if (ci != nullptr) {
        s.set_input_capacitance(gate,
                                require_number(req.params,
                                               "input_capacitance"));
      }
      if (di != nullptr) {
        s.set_intrinsic_delay(gate,
                              require_number(req.params,
                                             "intrinsic_delay"));
      }
    });
    set_generation(gen);
    json::Value r = json::Value::object();
    r.set("applied", true);
    return r;
  }
  if (req.method == "sweep") {
    const timing::SweepParam param = sweep_param_from(req.params);
    const std::vector<double> values =
        require_number_array(req.params, "values");
    const std::shared_ptr<const timing::Snapshot> snap = store.current();
    set_generation(snap->generation());
    return sweep_to_json(snap->sweep(param, values, cancel));
  }
  if (req.method == "lint") {
    const std::string& netlist = require_string(req.params, "netlist");
    set_generation(store.current()->generation());
    return lint_to_json(check::lint_text(netlist, "<request>"));
  }
  if (req.method == "audit") {
    // Design-scope static audit of the *current snapshot* (graph rules,
    // conditioning oracle, repetition analysis) -- no mutation, safe to
    // run concurrently with what-if clients.
    audit::AuditOptions audit_options;
    audit_options.graph.fanout_threshold = static_cast<std::size_t>(
        index_or(req.params, "fanout_limit",
                 audit_options.graph.fanout_threshold));
    audit_options.oracle.target_order = static_cast<int>(index_or(
        req.params, "order",
        static_cast<std::size_t>(audit_options.oracle.target_order)));
    audit_options.repetition = bool_or(req.params, "repetition", true);
    const std::shared_ptr<const timing::Snapshot> snap = store.current();
    set_generation(snap->generation());
    json::Value r = json::Value::object();
    r.set("audit_schema_version", audit::kAuditSchemaVersion);
    r.set("report",
          audit::report_to_json(
              "generation-" + std::to_string(snap->generation()),
              audit::audit_design(snap->design(), audit_options)));
    return r;
  }
  if (req.method == "worst_paths") {
    timing::PathQuery query;
    query.k = static_cast<std::size_t>(index_or(req.params, "k", 1));
    if (const json::Value* from = req.params.find("from")) {
      if (!from->is_string()) throw bad_request("'from' must be a string");
      query.from = from->as_string();
    }
    if (const json::Value* to = req.params.find("to")) {
      if (!to->is_string()) throw bad_request("'to' must be a string");
      query.to = to->as_string();
    }
    if (const json::Value* through = req.params.find("through")) {
      if (!through->is_array()) {
        throw bad_request("'through' must be an array of names");
      }
      for (std::size_t i = 0; i < through->size(); ++i) {
        if (!through->at(i).is_string()) {
          throw bad_request("'through' must hold only strings");
        }
        query.through.push_back(through->at(i).as_string());
      }
    }
    query.max_expansions = static_cast<std::size_t>(
        index_or(req.params, "max_expansions", query.max_expansions));
    const std::shared_ptr<const timing::Snapshot> snap = store.current();
    set_generation(snap->generation());
    return paths_to_json(snap->worst_paths(query, cancel));
  }
  if (req.method == "stats") {
    const std::shared_ptr<const timing::Snapshot> snap = store.current();
    set_generation(snap->generation());
    json::Value r = json::Value::object();
    r.set("cache", cache_stats_to_json(store.cache_stats()));
    if (server_stats != nullptr && *server_stats) {
      r.set("server", (*server_stats)());
    }
    return r;
  }
  if (req.method == "load_design") {
    timing::Design design;
    if (const json::Value* builtin = req.params.find("builtin")) {
      if (!builtin->is_string()) {
        throw bad_request("'builtin' must be a string");
      }
      design = builtin_design(builtin->as_string());
    } else if (const json::Value* dj = req.params.find("design")) {
      design = design_from_json(*dj);
    } else {
      throw bad_request("load_design needs 'builtin' or 'design'");
    }
    const std::uint64_t gen = store.reset(std::move(design));
    set_generation(gen);
    json::Value r = json::Value::object();
    r.set("loaded", true);
    return r;
  }
  throw bad_request("unknown method '" + req.method + "'");
}

HandleResult handle_line(timing::SnapshotStore& store, std::string_view line,
                         const HandleOptions& options) {
  HandleResult out;
  json::Value id;  // null until the request parses far enough to know it
  try {
    if (core::fault_at("serve.parse")) {
      core::Diagnostic d;
      d.code = core::DiagCode::InjectedFault;
      d.severity = core::Severity::Error;
      d.message = "injected fault at serve.parse";
      throw core::DiagnosticError(std::move(d));
    }
    Request req = parse_request(line);
    id = req.id;
    if (req.method == "shutdown") {
      out.shutdown = true;
      out.ok = true;
      json::Value r = json::Value::object();
      r.set("stopping", true);
      out.line = ok_response(id, store.current()->generation(),
                             std::move(r))
                     .dump();
      return out;
    }
    if (core::fault_at("serve.dispatch", req.method)) {
      core::Diagnostic d;
      d.code = core::DiagCode::InjectedFault;
      d.severity = core::Severity::Error;
      d.message = "injected fault at serve.dispatch";
      d.element = req.method;
      throw core::DiagnosticError(std::move(d));
    }
    const double deadline_ms = req.deadline_ms > 0.0
                                   ? req.deadline_ms
                                   : options.default_deadline_ms;
    core::CancelToken token;
    core::CancelToken* cancel = nullptr;
    if (deadline_ms > 0.0 || req.stage_budget > 0) {
      if (deadline_ms > 0.0) token.set_deadline_after(deadline_ms * 1e-3);
      if (req.stage_budget > 0) token.set_budget(req.stage_budget);
      cancel = &token;
    }
    std::uint64_t generation = store.current()->generation();
    json::Value result = dispatch(store, req, cancel, &generation,
                                  options.server_stats ? &options.server_stats
                                                       : nullptr);
    out.ok = true;
    out.line = ok_response(id, generation, std::move(result)).dump();
    return out;
  } catch (const json::ParseError& e) {
    core::Diagnostic d = invalid_request(e.what());
    d.code = core::DiagCode::InvalidRequest;
    out.line = error_response(id, d).dump();
    return out;
  } catch (const core::DiagnosticError& e) {
    const core::Diagnostic& d = e.diagnostic();
    const double retry =
        d.code == core::DiagCode::ServerOverloaded ? 50.0 : -1.0;
    out.line = error_response(id, d, retry).dump();
    return out;
  } catch (const std::invalid_argument& e) {
    out.line = error_response(id, invalid_request(e.what())).dump();
    return out;
  } catch (const std::exception& e) {
    core::Diagnostic d;
    d.code = core::DiagCode::InternalError;
    d.severity = core::Severity::Error;
    d.message = e.what();
    out.line = error_response(id, d).dump();
    return out;
  }
}

}  // namespace awesim::serve
