#include "check/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace awesim::check {

namespace {

bool is_ground(std::string_view name) {
  return name == "0" || name == "gnd" || name == "GND";
}

int clamp_order(int q) { return std::max(1, std::min(6, q)); }

std::string describe(const ConditioningEstimate& est, int target_order) {
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
          << hankel_condition(est.spread, target_order)
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

double hankel_condition(double spread, int order) {
  if (spread <= 1.0 || order <= 1) return 1.0;
  const double digits = 2.0 * (order - 1) * std::log10(spread);
  if (digits > 300.0) return 1e300;
  return std::pow(10.0, digits);
}

OracleTopologyBuilder::OracleTopologyBuilder(std::size_t elements) {
  ids_.reserve(elements + 2);
  topology_.resistances.reserve(elements);
  edges_.reserve(elements);
}

int OracleTopologyBuilder::node(std::string_view name) {
  if (is_ground(name)) return 0;
  const auto [it, inserted] =
      ids_.try_emplace(name, static_cast<int>(ids_.size()) + 1);
  if (inserted) topology_.cap.resize(ids_.size() + 1, 0.0);
  return it->second;
}

void OracleTopologyBuilder::add(OracleElement::Kind kind, int a, int b,
                                double value) {
  OracleTopology& t = topology_;
  switch (kind) {
    case OracleElement::Kind::Resistor:
      t.resistances.push_back(value);
      // Edges touching ground are never traversed (ground is a
      // potential sink, not a tree branch).
      if (a != 0 && b != 0 && value > 0.0 && std::isfinite(value)) {
        edges_.push_back({a, b, value});
      }
      break;
    case OracleElement::Kind::Capacitor:
      t.cap_sum += value;
      if (a != 0) t.cap[static_cast<std::size_t>(a)] += value;
      if (b != 0) t.cap[static_cast<std::size_t>(b)] += value;
      break;
    case OracleElement::Kind::Inductor:
      t.has_inductor = true;
      break;
  }
}

OracleTopology OracleTopologyBuilder::build(int source, int driver,
                                            bool nonequilibrium_ic) && {
  OracleTopology t = std::move(topology_);
  t.nodes = ids_.size() + 1;
  t.cap.resize(t.nodes, 0.0);
  t.source = source;
  t.driver = driver;
  t.nonequilibrium_ic = nonequilibrium_ic;
  if (source <= 0 || t.has_inductor) return t;  // never a tree

  // Resistive adjacency as compressed rows, each row in element order.
  const std::size_t n = t.nodes;
  std::vector<std::size_t> start(n + 1, 0);
  for (const Edge& e : edges_) {
    ++start[static_cast<std::size_t>(e.a) + 1];
    ++start[static_cast<std::size_t>(e.b) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<std::pair<int, double>> adj(start[n]);
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (const Edge& e : edges_) {
      adj[fill[static_cast<std::size_t>(e.a)]++] = {e.b, e.r};
      adj[fill[static_cast<std::size_t>(e.b)]++] = {e.a, e.r};
    }
  }

  // BFS from the source.  With the driver edge it is the first element,
  // so it leads both endpoints' rows.
  const auto walk = [&](bool with_driver) {
    OracleTopology::Walk w;
    w.parent.assign(n, -1);
    w.edge_r.assign(n, 0.0);
    std::vector<char> seen(n, 0);
    seen[static_cast<std::size_t>(source)] = 1;
    w.order.push_back(source);
    bool tree = true;
    for (std::size_t head = 0; head < w.order.size() && tree; ++head) {
      const int u = w.order[head];
      const auto visit = [&](int v, double r) {
        if (v == w.parent[static_cast<std::size_t>(u)]) return true;
        if (seen[static_cast<std::size_t>(v)]) return false;  // a loop
        seen[static_cast<std::size_t>(v)] = 1;
        w.parent[static_cast<std::size_t>(v)] = u;
        w.edge_r[static_cast<std::size_t>(v)] = r;
        w.order.push_back(v);
        return true;
      };
      if (with_driver && u == source) tree = visit(driver, 0.0);
      if (tree && with_driver && u == driver) tree = visit(source, 0.0);
      const std::size_t row = static_cast<std::size_t>(u);
      for (std::size_t k = start[row]; k < start[row + 1] && tree; ++k) {
        tree = visit(adj[k].first, adj[k].second);
      }
    }
    w.tree = tree;
    if (!tree) w = OracleTopology::Walk{};  // only the verdict is read
    return w;
  };
  t.bare = walk(false);
  // A driver edge to ground is never traversed, as any ground tie.
  if (driver > 0) t.driven = walk(true);
  return t;
}

ConditioningEstimate assess(const OracleTopology& topology,
                            const OracleInstance& instance,
                            const OracleOptions& options) {
  ConditioningEstimate est;
  est.nonequilibrium_ic = topology.nonequilibrium_ic;

  // Per-node grounded capacitance: the topology's, then the pin caps.
  std::vector<double> cap = topology.cap;
  for (const auto& [node, c] : instance.pin_caps) {
    if (node != 0) cap[static_cast<std::size_t>(node)] += c;
  }
  const bool driven = topology.driver > 0 && instance.drive > 0.0 &&
                      std::isfinite(instance.drive);
  const OracleTopology::Walk& walk = driven ? topology.driven
                                            : topology.bare;
  const std::vector<int>& order = walk.order;
  const std::vector<int>& parent = walk.parent;
  const std::size_t n = topology.nodes;
  const int source = topology.source;

  if (walk.tree) {
    est.rc_tree = true;
    std::vector<double> edge_r = walk.edge_r;
    if (driven) edge_r[static_cast<std::size_t>(topology.driver)] =
        instance.drive;
    std::vector<double> r_path(n, 0.0);
    for (std::size_t i = 1; i < order.size(); ++i) {
      const auto v = static_cast<std::size_t>(order[i]);
      r_path[v] = r_path[static_cast<std::size_t>(parent[v])] + edge_r[v];
    }
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
    // Coarse lumped estimate: one time constant, no spread signal.  The
    // sums run in element order: driver edge, topology, pin caps.
    double sum_r = 0.0;
    if (topology.driver >= 0) sum_r += instance.drive;
    for (const double r : topology.resistances) sum_r += r;
    double sum_c = topology.cap_sum;
    for (const auto& pin : instance.pin_caps) sum_c += pin.second;
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

ConditioningEstimate assess(const OracleInput& input,
                            const OracleOptions& options) {
  OracleTopologyBuilder builder(input.elements.size());
  for (const OracleElement& e : input.elements) {
    const int a = builder.node(e.node_a);
    const int b = builder.node(e.node_b);
    builder.add(e.kind, a, b, e.value);
  }
  const int source = input.source.empty() ? -1 : builder.node(input.source);
  return assess(std::move(builder).build(source == 0 ? -1 : source,
                                         /*driver=*/-1,
                                         input.nonequilibrium_ic),
                {}, options);
}

ConditioningEstimate assess_circuit(const circuit::Circuit& circuit,
                                    const OracleOptions& options) {
  OracleInput input;
  for (const circuit::Element& e : circuit.elements()) {
    OracleElement oe;
    switch (e.kind) {
      case circuit::ElementKind::Resistor:
        oe.kind = OracleElement::Kind::Resistor;
        break;
      case circuit::ElementKind::Capacitor:
        oe.kind = OracleElement::Kind::Capacitor;
        break;
      case circuit::ElementKind::Inductor:
        oe.kind = OracleElement::Kind::Inductor;
        break;
      case circuit::ElementKind::VoltageSource:
      case circuit::ElementKind::CurrentSource:
        if (input.source.empty()) {
          const circuit::NodeId anchor =
              e.pos != circuit::kGround ? e.pos : e.neg;
          if (anchor != circuit::kGround) {
            input.source = circuit.node_name(anchor);
          }
        }
        continue;
      default:
        continue;  // controlled sources: conditioning is not tau-driven
    }
    oe.node_a = circuit.node_name(e.pos);
    oe.node_b = circuit.node_name(e.neg);
    oe.value = e.value;
    if (e.initial_condition.has_value() && *e.initial_condition != 0.0) {
      input.nonequilibrium_ic = true;
    }
    input.elements.push_back(std::move(oe));
  }
  for (const auto& [node, volts] : circuit.initial_node_voltages()) {
    (void)node;
    if (volts != 0.0) input.nonequilibrium_ic = true;
  }
  if (input.source.empty()) {
    ConditioningEstimate est;
    est.detail = "no independent source; nothing to assess";
    return est;
  }
  return assess(input, options);
}

}  // namespace awesim::check
