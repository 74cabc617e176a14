#include "timing/paths.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>

#include "core/cancel.h"
#include "obs/trace.h"

namespace awesim::timing {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

struct Candidate {
  double bound = kNegInf;  // prefix arrival + exact best completion
  double arrival = 0.0;    // prefix arrival at `node`
  std::size_t node = 0;
  std::uint64_t mask = 0;  // through-points visited so far
  std::vector<std::size_t> arcs;
};

// Max-heap on bound; ties go to the lexicographically smaller arc
// sequence, so the pop order (and therefore the K-worst list) is a pure
// function of the graph.
struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    return std::lexicographical_compare(b.arcs.begin(), b.arcs.end(),
                                        a.arcs.begin(), a.arcs.end());
  }
};

}  // namespace

PathsResult k_worst_paths(const TimingGraph& graph, const PathQuery& query) {
  AWESIM_TRACE_SPAN("paths.search");
  if (query.through.size() > 64) {
    throw std::invalid_argument(
        "k_worst_paths: at most 64 through-points are supported");
  }
  const auto& nodes = graph.nodes();
  const auto& arcs = graph.arcs();

  // Validate filter names against the owners actually present.
  auto check = [&graph](const std::string& name, const char* what) {
    if (!name.empty() && !graph.has_owner(name)) {
      throw std::invalid_argument(std::string("k_worst_paths: unknown ") +
                                  what + " '" + name + "'");
    }
  };
  check(query.from, "from-point");
  check(query.to, "to-point");
  for (const auto& t : query.through) check(t, "through-point");

  PathsResult result;
  if (query.k == 0 || nodes.empty()) return result;

  // Paths never *enter* a source pin: sources switch at t = 0 by
  // definition (the pinned-primary-input contract), so an arc into one
  // carries no path semantics.
  auto traversable = [&nodes, &arcs](std::size_t arc_id) {
    return !nodes[arcs[arc_id].to].is_source;
  };

  // Through-point reachability masks.  fwd[n]: through-points owning a
  // pin that reaches n (or n itself); bwd[n]: through-points n reaches.
  // A pin can lie on a conforming path only if every through-point is in
  // fwd[n] | bwd[n] -- the standard SFXT-style prune; exact enforcement
  // happens at emission via the visited mask.
  const std::uint64_t full_mask =
      query.through.empty()
          ? 0
          : (query.through.size() == 64
                 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << query.through.size()) - 1);
  std::vector<std::uint64_t> own_bits(nodes.size(), 0);
  for (std::size_t b = 0; b < query.through.size(); ++b) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].owner == query.through[b]) {
        own_bits[i] |= std::uint64_t{1} << b;
      }
    }
  }
  const auto& topo = graph.topological_order();
  std::vector<std::uint64_t> fwd(nodes.size(), 0);
  std::vector<std::uint64_t> bwd(nodes.size(), 0);
  if (!query.through.empty()) {
    for (const std::size_t id : topo) {
      fwd[id] |= own_bits[id];
      for (const std::size_t arc_id : nodes[id].fanout) {
        if (traversable(arc_id)) fwd[arcs[arc_id].to] |= fwd[id];
      }
    }
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      bwd[*it] |= own_bits[*it];
      for (const std::size_t arc_id : nodes[*it].fanin) {
        if (traversable(arc_id)) bwd[arcs[arc_id].from] |= bwd[*it];
      }
    }
  }

  // Suffix values against allowed endpoints: the exact best completion
  // arrival from each pin.  -inf = no allowed endpoint reachable; such
  // pins are never pushed.
  std::vector<double> suffix(nodes.size(), kNegInf);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const std::size_t id = *it;
    const TimingNode& node = nodes[id];
    if (node.is_endpoint &&
        (query.to.empty() || node.owner == query.to)) {
      suffix[id] = 0.0;
    }
    for (const std::size_t arc_id : node.fanout) {
      if (!traversable(arc_id)) continue;
      const TimingArc& arc = arcs[arc_id];
      if (suffix[arc.to] == kNegInf) continue;
      suffix[id] = std::max(suffix[id], arc.delay + suffix[arc.to]);
    }
  }

  auto admissible = [&](std::size_t id) {
    if (suffix[id] == kNegInf) return false;
    return query.through.empty() ||
           ((fwd[id] | bwd[id]) & full_mask) == full_mask;
  };

  std::priority_queue<Candidate, std::vector<Candidate>, CandidateLess> heap;
  for (const std::size_t id : graph.sources()) {
    if (!query.from.empty() && nodes[id].owner != query.from) continue;
    if (!admissible(id)) continue;
    Candidate c;
    c.node = id;
    c.arrival = 0.0;
    c.mask = own_bits[id];
    c.bound = suffix[id];
    heap.push(std::move(c));
  }

  while (!heap.empty() && result.paths.size() < query.k) {
    if (result.expansions >= query.max_expansions) {
      result.truncated = true;
      break;
    }
    if (query.cancel != nullptr) query.cancel->charge("paths.expand");
    ++result.expansions;
    Candidate c = heap.top();
    heap.pop();
    const TimingNode& node = nodes[c.node];
    if (node.is_endpoint) {
      // Complete.  The bound was exact, so this is the worst remaining
      // path; emit if it visited every through-point.
      if (query.through.empty() || c.mask == full_mask) {
        Path p;
        p.arcs = c.arcs;
        p.arrival = c.arrival;
        p.slack = node.required - c.arrival;
        p.endpoint = node.owner;
        double at = 0.0;
        const std::size_t first =
            c.arcs.empty() ? c.node : arcs[c.arcs.front()].from;
        p.source = nodes[first].owner;
        p.points.push_back({nodes[first].name, 0.0, 0.0, ""});
        for (const std::size_t arc_id : c.arcs) {
          const TimingArc& arc = arcs[arc_id];
          at += arc.delay;
          p.points.push_back({nodes[arc.to].name, at, arc.delay, arc.net});
          p.degraded = p.degraded || arc.degraded || arc.failed;
          p.failed = p.failed || arc.failed;
        }
        result.paths.push_back(std::move(p));
      }
      continue;
    }
    for (const std::size_t arc_id : node.fanout) {
      if (!traversable(arc_id)) continue;
      const TimingArc& arc = arcs[arc_id];
      if (!admissible(arc.to)) continue;
      Candidate child;
      child.node = arc.to;
      child.arrival = c.arrival + arc.delay;
      child.mask = c.mask | own_bits[arc.to];
      child.bound = child.arrival + suffix[arc.to];
      child.arcs = c.arcs;
      child.arcs.push_back(arc_id);
      heap.push(std::move(child));
    }
  }
  return result;
}

}  // namespace awesim::timing
