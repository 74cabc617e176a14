#include "timing/graph.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "obs/trace.h"

namespace awesim::timing {

std::size_t TimingGraph::add_node(std::string name, const std::string& owner,
                                  PinKind kind,
                                  std::map<std::string, std::size_t>& index) {
  const std::size_t id = nodes_.size();
  index.emplace(name, id);
  TimingNode node;
  node.name = std::move(name);
  node.owner = owner;
  node.kind = kind;
  nodes_.push_back(std::move(node));
  return id;
}

std::size_t TimingGraph::find(const std::string& pin_name) const {
  if (const auto it = index_.find(pin_name); it != index_.end()) {
    return it->second;
  }
  const auto it = port_index_.find(pin_name);
  return it == port_index_.end() ? npos : it->second;
}

bool TimingGraph::has_owner(const std::string& name) const {
  return index_.count(name + ":in") > 0 || port_index_.count(name) > 0;
}

const TimingNode& TimingGraph::gate_input(const std::string& gate) const {
  const auto it = index_.find(gate + ":in");
  if (it == index_.end()) {
    throw std::invalid_argument("TimingGraph: unknown gate '" + gate + "'");
  }
  return nodes_[it->second];
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

  // Gate pins first, in the (sorted) gate_arrival order; the gate arc
  // <g>:in -> <g>:out is created alongside.  Delay 0: the stage model
  // reports sink delays measured from the *driver gate input* (intrinsic
  // delay folded in), so re-propagation reproduces the wavefront's
  // arithmetic exactly -- arrival(g:out) = arrival(g:in) + 0.0 is
  // bitwise arrival(g:in) for the non-negative times involved.
  for (const auto& [gate, t] : report.gate_arrival) {
    const std::size_t in =
        g.add_node(gate + ":in", gate, PinKind::GateInput, g.index_);
    const std::size_t out =
        g.add_node(gate + ":out", gate, PinKind::GateOutput, g.index_);
    TimingArc arc;
    arc.from = in;
    arc.to = out;
    arc.kind = ArcKind::Gate;
    const std::size_t arc_id = g.arcs_.size();
    g.arcs_.push_back(std::move(arc));
    g.nodes_[in].fanout.push_back(arc_id);
    g.nodes_[out].fanin.push_back(arc_id);
  }

  // Port nodes for design-output sinks, name-sorted for determinism.
  // Their own index: a port named like a gate pin stays its own node.
  {
    std::set<std::string> ports;
    for (const auto& st : report.stages) {
      for (const auto& s : st.sinks) {
        if (report.gate_arrival.count(s.gate) == 0) ports.insert(s.gate);
      }
    }
    for (const auto& p : ports) g.add_node(p, p, PinKind::Port, g.port_index_);
  }

  // Net arcs in report-stage order (the deterministic reduction order of
  // the wavefront), one per stage sink.
  for (const auto& st : report.stages) {
    const auto driver = g.index_.find(st.driver_gate + ":out");
    if (driver == g.index_.end()) {
      throw std::invalid_argument(
          "TimingGraph: stage driver '" + st.driver_gate +
          "' is not in the report's gate_arrival map");
    }
    const std::size_t from = driver->second;
    for (const auto& s : st.sinks) {
      const bool is_gate = report.gate_arrival.count(s.gate) > 0;
      const std::size_t to = is_gate ? g.index_.at(s.gate + ":in")
                                     : g.port_index_.at(s.gate);
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
    const auto it = g.index_.find(gate + ":in");
    if (it != g.index_.end()) g.nodes_[it->second].is_source = true;
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
