#include "timing/graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <ranges>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.h"

namespace awesim::timing {

namespace {

// Index of `name` among `count` name-sorted keys (key(i) is the i-th, a
// std::string_view), or TimingGraph::npos.  std::string's `<` is the
// order std::map and std::set sort their keys in, so the graph's pins
// search like the report maps they were built from.
template <typename Key>
std::size_t sorted_find(std::size_t count, std::string_view name, Key key) {
  const auto ids = std::views::iota(std::size_t{0}, count);
  const auto it = std::ranges::lower_bound(ids, name, std::less<>{}, key);
  return it != ids.end() && key(*it) == name ? *it : TimingGraph::npos;
}

}  // namespace

std::size_t TimingGraph::add_node(std::string name, std::string owner,
                                  PinKind kind) {
  const std::size_t id = nodes_.size();
  TimingNode node;
  node.name = std::move(name);
  node.owner = std::move(owner);
  node.kind = kind;
  nodes_.push_back(std::move(node));
  return id;
}

std::size_t TimingGraph::gate_ordinal(std::string_view gate) const {
  return sorted_find(gate_count_, gate, [&](std::size_t k) {
    return std::string_view(nodes_[2 * k].owner);
  });
}

std::size_t TimingGraph::port_node(std::string_view port) const {
  const std::size_t first = 2 * gate_count_;
  const std::size_t k =
      sorted_find(nodes_.size() - first, port, [&](std::size_t i) {
        return std::string_view(nodes_[first + i].name);
      });
  return k == npos ? npos : first + k;
}

std::size_t TimingGraph::find(const std::string& pin_name) const {
  // A gate pin is "<gate>:in" or "<gate>:out"; the suffix follows the
  // last ':', so a gate whose own name holds a ':' still splits right.
  const std::string_view pin(pin_name);
  const std::size_t colon = pin.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string_view suffix = pin.substr(colon + 1);
    if (suffix == "in" || suffix == "out") {
      const std::size_t k = gate_ordinal(pin.substr(0, colon));
      if (k != npos) return 2 * k + (suffix == "out" ? 1 : 0);
    }
  }
  return port_node(pin);
}

bool TimingGraph::has_owner(const std::string& name) const {
  return gate_ordinal(name) != npos || port_node(name) != npos;
}

const TimingNode& TimingGraph::gate_input(const std::string& gate) const {
  const std::size_t k = gate_ordinal(gate);
  if (k == npos) {
    throw std::invalid_argument("TimingGraph: unknown gate '" + gate + "'");
  }
  return nodes_[2 * k];
}

double TimingGraph::arrival_at(const std::string& gate) const {
  return gate_input(gate).arrival;
}

double TimingGraph::slack_at(const std::string& gate) const {
  return gate_input(gate).slack;
}

TimingGraph TimingGraph::build(const TimingReport& report,
                               const GraphOptions& options) {
  AWESIM_TRACE_SPAN("graph.build");
  TimingGraph g;

  // Gate ordinals, in the (sorted) gate_arrival order: gate k owns pins
  // 2k and 2k+1.  Drivers, sinks, port membership and sources all
  // resolve through this one table (lookup only; ids come from the map
  // order).  Its keys view the report's, which outlive this build.
  g.gate_count_ = report.gate_arrival.size();
  std::unordered_map<std::string_view, std::size_t> ordinal;
  ordinal.reserve(g.gate_count_);
  std::size_t k = 0;
  for (const auto& [gate, t] : report.gate_arrival) ordinal.emplace(gate, k++);
  auto ordinal_of = [&](std::string_view gate) {
    const auto it = ordinal.find(gate);
    return it == ordinal.end() ? npos : it->second;
  };

  // Port nodes for design-output sinks, name-sorted for determinism.
  // A port named like a gate pin stays its own node.
  std::vector<std::string_view> ports;
  std::size_t net_arcs = 0;
  for (const auto& st : report.stages) {
    net_arcs += st.sinks.size();
    for (const auto& s : st.sinks) {
      if (ordinal_of(s.gate) == npos) ports.push_back(s.gate);
    }
  }
  std::sort(ports.begin(), ports.end());
  ports.erase(std::unique(ports.begin(), ports.end()), ports.end());

  g.nodes_.reserve(2 * g.gate_count_ + ports.size());
  g.arcs_.reserve(g.gate_count_ + net_arcs);

  // Gate pins, with the gate arc <g>:in -> <g>:out alongside.  Delay 0:
  // the stage model reports sink delays measured from the *driver gate
  // input* (intrinsic delay folded in), so re-propagation reproduces the
  // wavefront's arithmetic exactly -- arrival(g:out) = arrival(g:in) +
  // 0.0 is bitwise arrival(g:in) for the non-negative times involved.
  for (const auto& [gate, t] : report.gate_arrival) {
    const std::size_t in =
        g.add_node(gate + ":in", gate, PinKind::GateInput);
    const std::size_t out =
        g.add_node(gate + ":out", gate, PinKind::GateOutput);
    TimingArc arc;
    arc.from = in;
    arc.to = out;
    arc.kind = ArcKind::Gate;
    const std::size_t arc_id = g.arcs_.size();
    g.arcs_.push_back(std::move(arc));
    g.nodes_[in].fanout.push_back(arc_id);
    g.nodes_[out].fanin.push_back(arc_id);
  }
  for (const std::string_view p : ports) {
    g.add_node(std::string(p), std::string(p), PinKind::Port);
  }

  // Net arcs in report-stage order (the deterministic reduction order of
  // the wavefront), one per stage sink.
  for (const auto& st : report.stages) {
    const std::size_t driver = ordinal_of(st.driver_gate);
    if (driver == npos) {
      throw std::invalid_argument(
          "TimingGraph: stage driver '" + st.driver_gate +
          "' is not in the report's gate_arrival map");
    }
    const std::size_t from = 2 * driver + 1;
    for (const auto& s : st.sinks) {
      const std::size_t sink = ordinal_of(s.gate);
      const std::size_t to =
          sink != npos ? 2 * sink : g.port_node(s.gate);
      TimingArc arc;
      arc.from = from;
      arc.to = to;
      arc.kind = ArcKind::Net;
      arc.net = st.net;
      arc.delay = s.stage_delay;
      arc.slew = s.slew;
      arc.degraded = st.degraded;
      arc.failed = st.failed;
      const std::size_t arc_id = g.arcs_.size();
      g.arcs_.push_back(std::move(arc));
      g.nodes_[from].fanout.push_back(arc_id);
      g.nodes_[to].fanin.push_back(arc_id);
    }
  }

  // Sources: the wave-0 gates the report recorded (their input pins are
  // pinned to t = 0 even if something feeds them), plus any pin with no
  // fanin at all.
  for (const auto& gate : report.source_gates) {
    const std::size_t source = ordinal_of(gate);
    if (source != npos) g.nodes_[2 * source].is_source = true;
  }
  for (auto& node : g.nodes_) {
    if (node.fanin.empty()) node.is_source = true;
    if (node.fanout.empty()) node.is_endpoint = true;
  }
  for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
    if (g.nodes_[i].is_source) g.sources_.push_back(i);
    if (g.nodes_[i].is_endpoint) g.endpoints_.push_back(i);
  }

  g.propagate_arrivals();
  g.propagate_required(options);
  return g;
}

void TimingGraph::propagate_arrivals() {
  // Kahn levelization over the pin DAG; within a level, nodes process in
  // index order, so topo_ is a pure function of the graph.  Arcs *into* a
  // source pin are not levelization edges: the source's arrival is pinned
  // at 0 no matter what feeds it -- the edge rule the wavefront applies
  // to the gate graph (timing/design_graph.h), so feedback through a
  // declared primary input levels here exactly when it levels there.
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const TimingArc& arc : arcs_) {
    if (!nodes_[arc.to].is_source) ++indegree[arc.to];
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  topo_.clear();
  topo_.reserve(nodes_.size());
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t id : frontier) {
      topo_.push_back(id);
      for (const std::size_t arc_id : nodes_[id].fanout) {
        const std::size_t to = arcs_[arc_id].to;
        if (nodes_[to].is_source) continue;
        if (--indegree[to] == 0) next.push_back(to);
      }
    }
    std::sort(next.begin(), next.end());
    frontier = std::move(next);
  }
  if (topo_.size() != nodes_.size()) {
    throw std::invalid_argument("TimingGraph: cycle in the pin DAG");
  }

  // Forward pass.  max() over the fanin set is order-independent at the
  // bit level, and each operand is the same arrival(from) + delay sum the
  // wavefront computed, so gate-input arrivals reproduce the
  // wavefront's map exactly.
  for (const std::size_t id : topo_) {
    TimingNode& node = nodes_[id];
    if (node.is_source) {
      node.arrival = 0.0;
      continue;
    }
    double at = -std::numeric_limits<double>::infinity();
    for (const std::size_t arc_id : node.fanin) {
      const TimingArc& arc = arcs_[arc_id];
      const double t = nodes_[arc.from].arrival + arc.delay;
      if (t > at) at = t;
    }
    node.arrival = at;
  }

  max_arrival_ = 0.0;
  for (const std::size_t id : endpoints_) {
    max_arrival_ = std::max(max_arrival_, nodes_[id].arrival);
  }
}

void TimingGraph::propagate_required(const GraphOptions& options) {
  const double required = std::isnan(options.required_time)
                              ? max_arrival_
                              : options.required_time;
  for (const std::size_t id : endpoints_) {
    nodes_[id].required = required;
  }
  // Backward pass in reverse topological order: min() over the fanout
  // set, as order-independent as the forward max.
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    TimingNode& node = nodes_[*it];
    if (!node.is_endpoint) {
      double rat = std::numeric_limits<double>::infinity();
      for (const std::size_t arc_id : node.fanout) {
        const TimingArc& arc = arcs_[arc_id];
        // An arc into a source pin carries no path (the pin is pinned to
        // t = 0), so it places no requirement on its driver.
        if (nodes_[arc.to].is_source) continue;
        const double r = nodes_[arc.to].required - arc.delay;
        if (r < rat) rat = r;
      }
      node.required = rat;
    }
    node.slack = node.required - node.arrival;
  }
  for (TimingArc& arc : arcs_) {
    arc.slack = nodes_[arc.to].required - arc.delay - nodes_[arc.from].arrival;
  }

  worst_slack_ = 0.0;
  worst_endpoint_.clear();
  bool first = true;
  for (const std::size_t id : endpoints_) {
    const TimingNode& node = nodes_[id];
    const bool better =
        first || node.slack < worst_slack_ ||
        (node.slack == worst_slack_ && node.name < worst_endpoint_);
    if (better) {
      worst_slack_ = node.slack;
      worst_endpoint_ = node.name;
      first = false;
    }
  }
}

}  // namespace awesim::timing
