// The design audit's conditioning and repetition tiers as they were
// before the oracle split into class and instance steps, kept verbatim
// as the reference the differential suite (test_audit_differential.cpp)
// holds audit::audit_design to: one monolithic oracle walk per net over
// a string-built oracle input, and ordered maps over the full content
// and shape keys.  Beyond the names, one change: the conditioning tier
// runs the oracle on every net (see the note there).
// reduce::reduction_content_key is the live one.
#include "util/reference_audit.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/design_netlist.h"
#include "timing/stage_cache.h"

namespace awesim::audit::testutil {

namespace {

bool is_ground(const std::string& name) {
  return name == "0" || name == "gnd" || name == "GND";
}

int clamp_order(int q) { return std::max(1, std::min(6, q)); }

std::string describe(const check::ConditioningEstimate& est, int target_order) {
  std::ostringstream out;
  if (!est.rc_tree) {
    out << "non-tree/RLC content; coarse lumped estimate only";
  } else {
    out << "tau spread " << est.spread << " over " << est.tau_count
        << " time constants";
  }
  out << "; safe order window [" << est.min_safe_order << ", "
      << est.max_safe_order << "]";
  if (est.hazard) {
    out << "; requested order " << target_order << " is outside it";
    if (target_order > est.max_safe_order) {
      out << " (Hankel condition ~"
          << check::hankel_condition(est.spread, target_order)
          << "; lower the order or downgrade the delay model)";
    } else {
      out << " (nonequilibrium initial conditions make the q=1 Elmore "
             "member unreliable; request order >= "
          << est.min_safe_order << ")";
    }
  }
  return out.str();
}

}  // namespace

check::ConditioningEstimate reference_assess(const check::OracleInput& input,
                                      const check::OracleOptions& options) {
  check::ConditioningEstimate est;
  est.nonequilibrium_ic = input.nonequilibrium_ic;

  // Node table: ground pinned at 0, others in first-appearance order.
  // Hashed with string_view keys into the caller's element strings (the
  // input outlives this call), and interned in ONE pass that caches the
  // dense ids per element -- on kilo-node nets the repeated ordered-map
  // probes were the whole cost of the audit's conditioning tier.
  std::unordered_map<std::string_view, int> ids;
  ids.reserve(input.elements.size() + 1);
  const auto intern = [&](const std::string& name) {
    if (is_ground(name)) return 0;
    const auto [it, inserted] =
        ids.try_emplace(std::string_view(name),
                        static_cast<int>(ids.size()) + 1);
    return it->second;
  };

  bool has_inductor = false;
  double sum_r = 0.0, sum_c = 0.0;
  std::vector<std::pair<int, int>> ends;
  ends.reserve(input.elements.size());
  for (const check::OracleElement& e : input.elements) {
    ends.emplace_back(intern(e.node_a), intern(e.node_b));
    switch (e.kind) {
      case check::OracleElement::Kind::Resistor: sum_r += e.value; break;
      case check::OracleElement::Kind::Capacitor: sum_c += e.value; break;
      case check::OracleElement::Kind::Inductor: has_inductor = true; break;
    }
  }
  const int source_id =
      input.source.empty() || is_ground(input.source) ? -1
                                                      : intern(input.source);
  const std::size_t n = ids.size() + 1;

  // Per-node grounded capacitance (coupling caps count on both plates:
  // the Elmore walk treats them as grounded, a deliberate overestimate).
  std::vector<double> cap(n, 0.0);
  // Resistive adjacency; edges touching ground are never traversed
  // (ground is a potential sink, not a tree branch).
  std::vector<std::vector<std::pair<int, double>>> adj(n);
  for (std::size_t i = 0; i < input.elements.size(); ++i) {
    const check::OracleElement& e = input.elements[i];
    const auto [a, b] = ends[i];
    if (e.kind == check::OracleElement::Kind::Capacitor) {
      if (a != 0) cap[static_cast<std::size_t>(a)] += e.value;
      if (b != 0) cap[static_cast<std::size_t>(b)] += e.value;
    } else if (e.kind == check::OracleElement::Kind::Resistor) {
      if (a != 0 && b != 0 && e.value > 0.0 && std::isfinite(e.value)) {
        adj[static_cast<std::size_t>(a)].push_back({b, e.value});
        adj[static_cast<std::size_t>(b)].push_back({a, e.value});
      }
    }
  }

  const int source = source_id;

  bool tree = source > 0 && !has_inductor;
  std::vector<int> parent(n, -1);
  std::vector<double> edge_r(n, 0.0), r_path(n, 0.0);
  std::vector<int> order;  // BFS order, source first
  if (tree) {
    std::vector<char> seen(n, 0);
    seen[static_cast<std::size_t>(source)] = 1;
    order.push_back(source);
    for (std::size_t head = 0; head < order.size() && tree; ++head) {
      const int u = order[head];
      for (const auto& [v, r] : adj[static_cast<std::size_t>(u)]) {
        if (v == parent[static_cast<std::size_t>(u)]) continue;
        if (seen[static_cast<std::size_t>(v)]) {
          tree = false;  // resistive loop: a mesh, taus are not exact
          break;
        }
        seen[static_cast<std::size_t>(v)] = 1;
        parent[static_cast<std::size_t>(v)] = u;
        edge_r[static_cast<std::size_t>(v)] = r;
        r_path[static_cast<std::size_t>(v)] =
            r_path[static_cast<std::size_t>(u)] + r;
        order.push_back(v);
      }
    }
  }

  if (tree) {
    est.rc_tree = true;
    // Exact Elmore time constants: tau_i = R(source->i) * C_i.
    for (const int u : order) {
      const double tau = r_path[static_cast<std::size_t>(u)] *
                         cap[static_cast<std::size_t>(u)];
      if (tau > 0.0) {
        ++est.tau_count;
        est.tau_min = est.tau_min == 0.0 ? tau : std::min(est.tau_min, tau);
        est.tau_max = std::max(est.tau_max, tau);
      }
    }
    if (est.tau_count >= 2 && est.tau_min > 0.0) {
      est.spread = est.tau_max / est.tau_min;
    }

    // First three tree moments, O(n) each: cap currents I_j = C_j *
    // m_{k-1}(j) accumulate into subtree sums S_i (children before
    // parents in reverse BFS order), and m_k(i) = m_k(parent) -
    // R_edge(i) * S_i with m_k(source) = 0 (ideal source).
    std::vector<double> m_prev(n, 1.0), m_cur(n, 0.0), subtree(n, 0.0);
    std::vector<double> m1(n, 0.0), m2(n, 0.0), m3(n, 0.0);
    for (int k = 1; k <= 3; ++k) {
      std::fill(subtree.begin(), subtree.end(), 0.0);
      for (std::size_t i = order.size(); i-- > 0;) {
        const int u = order[i];
        subtree[static_cast<std::size_t>(u)] +=
            cap[static_cast<std::size_t>(u)] *
            m_prev[static_cast<std::size_t>(u)];
        const int p = parent[static_cast<std::size_t>(u)];
        if (p >= 0) {
          subtree[static_cast<std::size_t>(p)] +=
              subtree[static_cast<std::size_t>(u)];
        }
      }
      for (const int u : order) {
        const int p = parent[static_cast<std::size_t>(u)];
        m_cur[static_cast<std::size_t>(u)] =
            (p >= 0 ? m_cur[static_cast<std::size_t>(p)] : 0.0) -
            edge_r[static_cast<std::size_t>(u)] *
                subtree[static_cast<std::size_t>(u)];
      }
      for (const int u : order) {
        const auto ui = static_cast<std::size_t>(u);
        (k == 1 ? m1[ui] : k == 2 ? m2[ui] : m3[ui]) = m_cur[ui];
      }
      m_prev = m_cur;
    }
    std::size_t worst = static_cast<std::size_t>(source);
    for (const int u : order) {
      if (std::abs(m1[static_cast<std::size_t>(u)]) > std::abs(m1[worst])) {
        worst = static_cast<std::size_t>(u);
      }
    }
    est.elmore_delay = std::abs(m1[worst]);
    if (m2[worst] != 0.0) {
      est.moment_ratio = std::abs(m1[worst] * m3[worst]) /
                         (m2[worst] * m2[worst]);
    }
  } else {
    // Coarse lumped estimate: one time constant, no spread signal.
    est.rc_tree = false;
    est.elmore_delay = sum_r * sum_c;
    for (std::size_t i = 1; i < n; ++i) {
      if (cap[i] > 0.0) ++est.tau_count;
    }
  }

  est.max_safe_order =
      est.spread <= 1.0
          ? 6
          : clamp_order(1 + static_cast<int>(std::floor(
                                options.digits /
                                (2.0 * std::log10(est.spread)))));
  est.min_safe_order =
      est.nonequilibrium_ic && est.tau_count >= 2 ? 2 : 1;
  est.hazard = options.target_order > est.max_safe_order ||
               options.target_order < est.min_safe_order;
  est.detail = describe(est, options.target_order);
  return est;
}

namespace {

/// Collects diagnostics with the shared severity tally and optional
/// source provenance.
struct Emitter {
  AuditReport* report;
  const DesignSourceMap* sources;

  void emit(core::DiagCode code, core::Severity severity,
            std::string message, std::string element,
            const circuit::SourceLoc& loc,
            double condition_estimate = -1.0) {
    core::Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.message = std::move(message);
    d.element = std::move(element);
    d.condition_estimate = condition_estimate;
    if (loc.known()) {
      d.file = loc.file;
      d.line = loc.line;
      d.column = loc.column;
    }
    switch (severity) {
      case core::Severity::Info: ++report->infos; break;
      case core::Severity::Warning: ++report->warnings; break;
      default: ++report->errors; break;
    }
    report->diagnostics.push_back(std::move(d));
  }

  circuit::SourceLoc gate_loc(const std::string& gate) const {
    return sources == nullptr ? circuit::SourceLoc{} : sources->gate_loc(gate);
  }
  circuit::SourceLoc net_loc(const std::string& net) const {
    return sources == nullptr ? circuit::SourceLoc{} : sources->net_loc(net);
  }
  circuit::SourceLoc element_loc(const std::string& net,
                                 std::size_t index) const {
    return sources == nullptr ? circuit::SourceLoc{}
                              : sources->element_loc(net, index);
  }
};

void run_graph_tier(const timing::Design& design,
                    const AuditOptions& options, Emitter& em) {
  AuditReport& report = *em.report;
  report.graph = timing::audit_graph(design, options.graph);
  for (const timing::CyclePath& cycle : report.graph.cycles) {
    em.emit(core::DiagCode::CombinationalCycle, core::Severity::Error,
            "combinational cycle: " + timing::format_loop(cycle),
            cycle.gates.front(), em.gate_loc(cycle.gates.front()));
  }
  for (const std::string& gate : report.graph.undriven) {
    em.emit(core::DiagCode::UndrivenEndpoint, core::Severity::Warning,
            "gate '" + gate +
                "' has no driving net and no primary-input declaration; "
                "its arrival is silently pinned to t = 0",
            gate, em.gate_loc(gate));
  }
  for (const std::string& gate : report.graph.unreachable) {
    em.emit(core::DiagCode::DeadLogic, core::Severity::Warning,
            "gate '" + gate + "' is unreachable from every source",
            gate, em.gate_loc(gate));
  }
  for (const std::string& net : report.graph.sinkless_nets) {
    em.emit(core::DiagCode::DeadLogic, core::Severity::Warning,
            "net '" + net + "' drives no sink; the driver output is unused",
            net, em.net_loc(net));
  }
  for (const timing::FanoutRecord& f : report.graph.fanout_explosions) {
    std::ostringstream msg;
    msg << "net '" << f.net << "' fans out to " << f.fanout
        << " sinks (threshold " << options.graph.fanout_threshold
        << "); the stage delay model and the physical net are both "
           "suspect";
    em.emit(core::DiagCode::FanoutExplosion, core::Severity::Warning,
            msg.str(), f.net, em.net_loc(f.net));
  }
  for (const timing::ReconvergenceRecord& r : report.graph.reconvergences) {
    std::ostringstream msg;
    msg << "gate '" << r.gate << "' sits behind >= " << r.paths
        << " source-to-pin paths at depth " << r.depth
        << "; path-based queries here are exponential";
    em.emit(core::DiagCode::ReconvergentFanout, core::Severity::Info,
            msg.str(), r.gate, em.gate_loc(r.gate));
  }
}

/// Oracle input for one stage: the driving gate's resistance as a
/// leading element from a virtual ideal-source node, the net's
/// parasitics verbatim, and each known sink pin's input capacitance as
/// a grounded cap at its hookup node.
check::OracleInput stage_oracle_input(const timing::Design& design,
                                      const std::string& driver,
                                      const timing::Net& net) {
  check::OracleInput input;
  input.source = "\x01src";  // never collides with a netlist node name
  input.elements.reserve(net.parasitics.size() + net.sink_node.size() + 1);
  const auto gate_it = design.gates().find(driver);
  input.elements.push_back({check::OracleElement::Kind::Resistor,
                            input.source, "DRV",
                            gate_it == design.gates().end()
                                ? 0.0
                                : gate_it->second.drive_resistance});
  for (const timing::NetElement& e : net.parasitics) {
    check::OracleElement::Kind kind = check::OracleElement::Kind::Resistor;
    switch (e.kind) {
      case timing::NetElement::Kind::Resistor:
        kind = check::OracleElement::Kind::Resistor;
        break;
      case timing::NetElement::Kind::Capacitor:
        kind = check::OracleElement::Kind::Capacitor;
        break;
      case timing::NetElement::Kind::Inductor:
        kind = check::OracleElement::Kind::Inductor;
        break;
    }
    input.elements.push_back({kind, e.node_a, e.node_b, e.value});
  }
  for (const auto& [sink, node] : net.sink_node) {
    const auto sink_it = design.gates().find(sink);
    if (sink_it == design.gates().end()) continue;  // design output
    input.elements.push_back({check::OracleElement::Kind::Capacitor, node,
                              "0", sink_it->second.input_capacitance});
  }
  return input;
}

void run_conditioning_tier(const timing::Design& design,
                           const AuditOptions& options, Emitter& em) {
  AuditReport& report = *em.report;
  report.nets.reserve(design.net_count());
  // One oracle walk per net.  (The memo this tier used to carry keyed
  // the sink pin caps without the nodes they attach to, so two
  // instances of one class whose sinks attach in permuted order shared
  // one estimate; the reference is the memo-free definition.)
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    NetAssessment assessment;
    assessment.net = net.name;
    assessment.driver = design.net_driver(i);
    assessment.eligibility = reduce::net_eligibility(net, options.reduce);
    assessment.estimate = reference_assess(
        stage_oracle_input(design, assessment.driver, net), options.oracle);
    if (assessment.estimate.hazard) {
      em.emit(core::DiagCode::ConditioningHazard, core::Severity::Warning,
              "net '" + net.name + "': " + assessment.estimate.detail,
              net.name, em.net_loc(net.name),
              check::hankel_condition(assessment.estimate.spread,
                                      options.oracle.target_order));
    }
    report.nets.push_back(std::move(assessment));
  }
}

/// The value-less shape of a net: reduction_content_key bytes with
/// every element value skipped (and no options -- shape is a property
/// of the net alone).  Two nets with equal shape keys are isomorphic up
/// to their value vectors.
std::string shape_key(const timing::Net& net) {
  timing::detail::KeyBuilder kb;
  kb.reserve(32 + net.parasitics.size() * 24);
  kb.tag('S').integer(net.parasitics.size());
  for (const timing::NetElement& e : net.parasitics) {
    kb.integer(static_cast<std::uint64_t>(e.kind))
        .text(e.node_a)
        .text(e.node_b);
  }
  kb.tag('B').integer(net.sink_node.size() + 1).text("DRV");
  for (const auto& [gate, node] : net.sink_node) {
    (void)gate;
    kb.text(node);
  }
  return kb.take();
}

void run_repetition_tier(const timing::Design& design,
                         const std::vector<std::string>& content_keys,
                         Emitter& em) {
  AuditReport& report = *em.report;
  // Exact groups: the \x01R content key discipline from src/reduce --
  // name-agnostic, so instances of one cell under different names
  // collide on purpose.
  std::map<std::string, std::vector<std::size_t>> exact;
  std::map<std::string, std::vector<std::size_t>> shapes;
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    exact[content_keys[i]].push_back(i);
    shapes[shape_key(net)].push_back(i);
  }

  // Deterministic report order: groups by first-member net index.
  std::vector<const std::vector<std::size_t>*> groups;
  for (const auto& [key, members] : exact) {
    (void)key;
    if (members.size() >= 2) groups.push_back(&members);
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto* a, const auto* b) {
              return a->front() < b->front();
            });
  for (const auto* members : groups) {
    RepetitionGroup group;
    group.representative = design.net_at(members->front()).name;
    std::string listing;
    for (const std::size_t i : *members) {
      group.members.push_back(design.net_at(i).name);
      if (!listing.empty()) listing += ", ";
      listing += design.net_at(i).name;
    }
    std::ostringstream msg;
    msg << members->size() << " nets share one reduction-store entry ("
        << listing << "): 1 collapse, " << members->size() - 1
        << " rehydration(s)";
    em.emit(core::DiagCode::RepeatedStructure, core::Severity::Info,
            msg.str(), group.representative,
            em.net_loc(group.representative));
    report.repeated.push_back(std::move(group));
  }

  // Near-misses: same shape, value vectors differing in exactly one
  // entry, and not already exact duplicates.  Each shape group compares
  // against its first member only (O(n) in nets, deterministic).
  std::vector<const std::vector<std::size_t>*> shape_groups;
  for (const auto& [key, members] : shapes) {
    (void)key;
    if (members.size() >= 2) shape_groups.push_back(&members);
  }
  std::sort(shape_groups.begin(), shape_groups.end(),
            [](const auto* a, const auto* b) {
              return a->front() < b->front();
            });
  for (const auto* members : shape_groups) {
    const timing::Net& rep = design.net_at(members->front());
    for (std::size_t k = 1; k < members->size(); ++k) {
      const timing::Net& other = design.net_at((*members)[k]);
      std::size_t diffs = 0, diff_index = 0;
      for (std::size_t e = 0; e < rep.parasitics.size() && diffs < 2; ++e) {
        if (rep.parasitics[e].value != other.parasitics[e].value) {
          ++diffs;
          diff_index = e;
        }
      }
      if (diffs != 1) continue;
      NearMiss miss;
      miss.net_a = rep.name;
      miss.net_b = other.name;
      miss.element_index = diff_index;
      miss.value_a = rep.parasitics[diff_index].value;
      miss.value_b = other.parasitics[diff_index].value;
      std::ostringstream msg;
      msg << "nets '" << rep.name << "' and '" << other.name
          << "' are identical up to one value (element " << diff_index
          << ": " << miss.value_a << " vs " << miss.value_b
          << "); aligning them would dedup the reduction";
      circuit::SourceLoc loc = em.element_loc(other.name, diff_index);
      if (!loc.known()) loc = em.net_loc(other.name);
      em.emit(core::DiagCode::NearDuplicate, core::Severity::Warning,
              msg.str(), other.name, loc);
      report.near_misses.push_back(std::move(miss));
    }
  }
}

}  // namespace

AuditReport reference_audit_design(const timing::Design& design,
                                   const AuditOptions& options,
                                   const DesignSourceMap* sources) {
  AuditReport report;
  Emitter em{&report, sources};
  if (options.graph_rules) run_graph_tier(design, options, em);
  if (options.conditioning) run_conditioning_tier(design, options, em);
  if (options.repetition) {
    std::vector<std::string> content_keys;
    content_keys.reserve(design.net_count());
    for (std::size_t i = 0; i < design.net_count(); ++i) {
      content_keys.push_back(
          reduce::reduction_content_key(design.net_at(i), options.reduce));
    }
    run_repetition_tier(design, content_keys, em);
  }
  return report;
}

}  // namespace awesim::audit::testutil
