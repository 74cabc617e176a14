// The explicit timing graph: the "other half" of a static timing engine.
//
// The levelized wavefront in timing/analyzer.cpp answers the *forward*
// question -- when does every pin switch -- but a real STA engine also
// answers the backward one (how late could it have switched: required
// arrival time) and their difference (slack), and it can enumerate the
// paths behind those numbers.  TimingGraph is the explicit pin-level DAG
// those queries run on:
//
//   nodes: one GateInput and one GateOutput pin per gate, plus one Port
//          node per design-output sink name (its own node even when
//          the name is also a gate pin's);
//   arcs:  a Gate arc  <g>:in -> <g>:out   (delay 0 -- the stage model
//          folds the driver's intrinsic delay into its net delays, and
//          the graph preserves that arithmetic exactly), and
//          a Net arc   <drv>:out -> <sink>:in  per stage sink, carrying
//          that sink's stage delay, slew, and the stage's
//          degraded/failed flags (a degraded stage taints every path
//          through it -- see paths.h).
//
// The graph is built from a finished TimingReport, then *re-propagates*
// arrival times from the arc delays -- it does not copy the wavefront's
// arrival map.  That makes equality with the wavefront a real
// differential check, which tests/test_graph_sta.cpp performs bitwise:
// max() over a fixed operand set is order-independent at the bit level,
// and every sum is the same `arrival(from) + delay` the wavefront
// computed, so the graph's arrival at each gate input equals
// TimingReport::gate_arrival exactly, at every thread count.
//
// Backward pass: endpoints (nodes with no outgoing arc -- ports and the
// output pins of sink-less gates) get required = required_time, or the
// latest endpoint arrival when required_time is NaN (floating mode:
// worst slack 0, slacks rank criticality).  Interior nodes take
// required = min over outgoing arcs of (required(to) - delay); slack is
// required - arrival per node and required(to) - delay - arrival(from)
// per arc.  Everything is deterministic: nodes sort by name, arcs
// follow report-stage order.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "timing/analyzer.h"

namespace awesim::timing {

enum class PinKind { GateInput, GateOutput, Port };
enum class ArcKind { Gate, Net };

struct TimingNode {
  /// Pin name: "<gate>:in", "<gate>:out", or "<port>" for design outputs.
  std::string name;
  /// The gate (or port) this pin belongs to -- the name path queries use.
  std::string owner;
  PinKind kind = PinKind::GateInput;

  double arrival = 0.0;
  double required = std::numeric_limits<double>::infinity();
  double slack = std::numeric_limits<double>::infinity();

  /// Arc indices into TimingGraph::arcs().
  std::vector<std::size_t> fanin;
  std::vector<std::size_t> fanout;

  bool is_source = false;    // pinned to arrival 0
  bool is_endpoint = false;  // no fanout: slack is measured here
};

struct TimingArc {
  std::size_t from = 0;
  std::size_t to = 0;
  ArcKind kind = ArcKind::Gate;
  /// Net name for Net arcs; empty for Gate arcs.
  std::string net;
  double delay = 0.0;
  double slew = 0.0;  // slew at `to` (Net arcs only)
  double slack = std::numeric_limits<double>::infinity();
  /// Promoted from the owning StageTiming: a stage answered below full
  /// quality (or from the failure fallback) taints this arc, and
  /// paths.h taints every path using it.
  bool degraded = false;
  bool failed = false;
};

struct GraphOptions {
  /// Required arrival time at every endpoint; NaN floats it to the
  /// latest endpoint arrival (worst slack exactly 0).
  double required_time = std::numeric_limits<double>::quiet_NaN();
};

class TimingGraph {
 public:
  /// Build the pin DAG from a finished report and run both propagation
  /// passes.  Throws std::invalid_argument if the report's stages name a
  /// driver absent from gate_arrival (a malformed report).
  static TimingGraph build(const TimingReport& report,
                           const GraphOptions& options = {});

  const std::vector<TimingNode>& nodes() const { return nodes_; }
  const std::vector<TimingArc>& arcs() const { return arcs_; }

  /// Node index by pin name; npos when absent.  Gate pins and ports are
  /// separate nodes, so a design output may carry a gate pin's name
  /// ("<gate>:in"); the gate pin then shadows that port here -- reach
  /// the port through endpoints().
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(const std::string& pin_name) const;

  /// True when a gate (its "<name>:in" pin) or a design-output port is
  /// named `name` -- the owners path filters accept.
  bool has_owner(const std::string& name) const;

  /// Arrival / slack at a gate's input pin (the values the wavefront
  /// reports per gate).  Throws std::invalid_argument for an
  /// unknown gate, whatever ports exist.
  double arrival_at(const std::string& gate) const;
  double slack_at(const std::string& gate) const;

  /// Minimum slack over all endpoints and the endpoint node holding it
  /// (ties break toward the lexicographically smallest pin name).
  double worst_slack() const { return worst_slack_; }
  const std::string& worst_endpoint() const { return worst_endpoint_; }

  /// The latest endpoint arrival -- the graph's critical delay.
  double max_arrival() const { return max_arrival_; }

  /// Endpoint node indices, in node order (name-sorted).
  const std::vector<std::size_t>& endpoints() const { return endpoints_; }
  /// Source node indices (arrival pinned to 0), in node order.
  const std::vector<std::size_t>& sources() const { return sources_; }

  /// Nodes in topological (level, then index) order -- the order both
  /// propagation passes walk; exposed for the path enumerator.
  const std::vector<std::size_t>& topological_order() const {
    return topo_;
  }

 private:
  std::size_t add_node(std::string name, std::string owner, PinKind kind);
  /// Gate ordinal (its pins are nodes 2k and 2k+1) or port node index by
  /// name; npos when absent.  Binary searches over the name-sorted pins.
  std::size_t gate_ordinal(std::string_view gate) const;
  std::size_t port_node(std::string_view port) const;
  const TimingNode& gate_input(const std::string& gate) const;
  void propagate_arrivals();
  void propagate_required(const GraphOptions& options);

  std::vector<TimingNode> nodes_;
  std::vector<TimingArc> arcs_;
  // Gate k's pins are nodes 2k (input) and 2k+1 (output), gates in name
  // order; the name-sorted ports follow them.
  std::size_t gate_count_ = 0;
  std::vector<std::size_t> sources_;
  std::vector<std::size_t> endpoints_;
  std::vector<std::size_t> topo_;
  double worst_slack_ = 0.0;
  double max_arrival_ = 0.0;
  std::string worst_endpoint_;
};

}  // namespace awesim::timing
