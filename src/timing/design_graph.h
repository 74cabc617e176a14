// The design's gate graph, and the audit's graph-scope rules over it.
//
// GateGraph is the one integer-id view of a Design's connectivity: the
// analyzer levelizes it into wavefronts and names its cycle error from
// it, and audit_graph runs every rule below on it.  One edge rule holds
// throughout, as in TimingGraph and k_worst_paths: a *source* gate (a
// declared primary input, or a gate with no fan-in) is pinned at t = 0,
// so an arc into a source is not an edge -- it neither orders
// levelization nor closes a loop.
//
// The audit rules, purely from connectivity (no matrices, no values):
//
//   * combinational cycles: one ordered loop path per strongly
//     connected component -- exactly the loops analyze() throws on;
//   * undriven endpoints: gates with no incoming net that were never
//     declared primary inputs (the analyzer silently pins their
//     arrival to 0 -- usually a missing connection, not a decision);
//   * dead logic: gates unreachable from any source -- only cycles can
//     produce these -- plus nets that drive no sink at all;
//   * fanout explosions: nets whose sink count exceeds a threshold;
//   * reconvergent fanout: source-to-gate path counts from a
//     saturating DP over the analyzer's waves -- past the threshold,
//     path-based STA is exponential there.
//
// Everything is deterministic: gate ids follow name order (the Design's
// gate map is ordered), nets keep insertion order, and every result
// list is sorted by its natural key.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "timing/analyzer.h"

namespace awesim::timing {

/// Integer-id gate graph of one Design, built per call.  Borrows the
/// gate names from the Design, which must outlive it.
struct GateGraph {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// id -> the Design's gate entry; ids follow gate-name order.
  std::vector<const std::map<std::string, Gate>::value_type*> gates;
  /// Per net (Design net order): the driver's id, and the sink ids in
  /// sink_node order -- npos for a design-output sink.
  std::vector<std::size_t> net_driver;
  std::vector<std::vector<std::size_t>> net_sinks;
  /// Per gate: the nets it drives, in insertion order.
  std::vector<std::vector<std::size_t>> drives;
  /// Per gate: declared primary input; source (declared primary input
  /// or no fan-in).
  std::vector<char> primary_input;
  std::vector<char> is_source;

  static GateGraph build(const Design& design);

  std::size_t size() const { return gates.size(); }
  const std::string& name(std::size_t id) const { return gates[id]->first; }

  /// The edge rule: an arc into `sink` is an edge unless the sink is a
  /// design output or a source gate.
  bool is_edge(std::size_t sink) const {
    return sink != npos && !is_source[sink];
  }
};

/// Kahn levelization under the edge rule.  Wave 0 is the source set;
/// every other gate lands one wave past its last driver.  Each wave
/// lists ascending ids.
struct Levelization {
  std::vector<std::vector<std::size_t>> waves;
  /// Gates that never leveled: each sits on or downstream of a loop of
  /// non-source gates, so find_cycles() is nonempty whenever this is.
  std::size_t unleveled = 0;
};

Levelization levelize(const GateGraph& graph);

/// One combinational cycle: the ordered gate names around the loop,
/// starting from the lexicographically smallest member; the edge from
/// the last entry back to the first closes the loop.
struct CyclePath {
  std::vector<std::string> gates;
};

/// One representative loop per strongly connected component with >= 2
/// gates (or a self loop), under the edge rule, sorted by gate list.
std::vector<CyclePath> find_cycles(const GateGraph& graph);

/// "a -> b -> a": the loop with its closing edge written out.
std::string format_loop(const CyclePath& cycle);

struct DesignGraphOptions {
  /// Nets with more sinks than this are reported as fanout explosions.
  std::size_t fanout_threshold = 32;
  /// Gates whose source-to-pin path count reaches this are reported as
  /// reconvergence hot spots (counts saturate; 0 disables the rule).
  std::size_t reconvergence_paths = 1024;
};

/// A net whose sink count passed the fanout threshold.
struct FanoutRecord {
  std::string net;
  std::string driver;
  std::size_t fanout = 0;
};

/// A gate input sitting behind heavy reconvergence.
struct ReconvergenceRecord {
  std::string gate;
  /// Saturating count of distinct source-to-pin paths; every source,
  /// driven primary inputs included, starts its own count at 1.
  std::size_t paths = 0;
  /// Levelized depth of the gate (longest edge count from a source).
  std::size_t depth = 0;
};

struct GraphFindings {
  /// find_cycles(): the loops analyze() would name.
  std::vector<CyclePath> cycles;
  /// Name-sorted gates with no incoming net and no primary-input
  /// declaration.
  std::vector<std::string> undriven;
  /// Name-sorted gates unreachable from every source.
  std::vector<std::string> unreachable;
  /// Nets (insertion order) whose sink map is empty: the driver's
  /// output is computed and dropped.
  std::vector<std::string> sinkless_nets;
  std::vector<FanoutRecord> fanout_explosions;
  std::vector<ReconvergenceRecord> reconvergences;

  bool clean() const {
    return cycles.empty() && undriven.empty() && unreachable.empty() &&
           sinkless_nets.empty() && fanout_explosions.empty() &&
           reconvergences.empty();
  }
};

/// Run every graph rule over the design's gate-level connectivity.
/// Never throws on content: a cyclic design yields CyclePath records,
/// not an exception.
GraphFindings audit_graph(const Design& design,
                          const DesignGraphOptions& options = {});

}  // namespace awesim::timing
