#include "timing/design_graph.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace awesim::timing {

GateGraph GateGraph::build(const Design& design) {
  GateGraph g;
  const std::size_t n = design.gates().size();
  g.gates.reserve(n);
  for (const auto& entry : design.gates()) g.gates.push_back(&entry);
  // Name -> id by binary search over the name-ordered entries.
  auto find = [&g](const std::string& name) {
    const auto it = std::lower_bound(
        g.gates.begin(), g.gates.end(), name,
        [](const auto* entry, const std::string& key) {
          return entry->first < key;
        });
    if (it == g.gates.end() || (*it)->first != name) return npos;
    return static_cast<std::size_t>(it - g.gates.begin());
  };
  g.drives.assign(n, {});
  g.primary_input.assign(n, 0);
  std::vector<char> driven(n, 0);
  g.net_driver.reserve(design.net_count());
  g.net_sinks.reserve(design.net_count());
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    // Design::add_net rejects unknown drivers, so the id is always valid.
    const std::size_t driver = find(design.net_driver(i));
    g.net_driver.push_back(driver);
    g.drives[driver].push_back(i);
    std::vector<std::size_t> sinks;
    sinks.reserve(design.net_at(i).sink_node.size());
    for (const auto& [sink, node] : design.net_at(i).sink_node) {
      (void)node;
      const std::size_t id = find(sink);
      if (id != npos) driven[id] = 1;
      sinks.push_back(id);
    }
    g.net_sinks.push_back(std::move(sinks));
  }
  for (const std::string& pi : design.primary_inputs()) {
    g.primary_input[find(pi)] = 1;
  }
  g.is_source.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    g.is_source[v] = g.primary_input[v] || !driven[v];
  }
  return g;
}

Levelization levelize(const GateGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<std::size_t> pending(n, 0);
  for (const auto& sinks : graph.net_sinks) {
    for (const std::size_t s : sinks) {
      if (graph.is_edge(s)) ++pending[s];
    }
  }
  Levelization out;
  std::vector<std::size_t> frontier;
  for (std::size_t v = 0; v < n; ++v) {
    if (pending[v] == 0) frontier.push_back(v);
  }
  std::size_t leveled = 0;
  while (!frontier.empty()) {
    leveled += frontier.size();
    std::vector<std::size_t> next;
    for (const std::size_t u : frontier) {
      for (const std::size_t net : graph.drives[u]) {
        for (const std::size_t s : graph.net_sinks[net]) {
          if (graph.is_edge(s) && --pending[s] == 0) next.push_back(s);
        }
      }
    }
    std::sort(next.begin(), next.end());
    out.waves.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  out.unleveled = n - leveled;
  return out;
}

namespace {

/// Deduplicated, sorted successor lists under the edge rule.
std::vector<std::vector<std::size_t>> successors(const GateGraph& g) {
  std::vector<std::vector<std::size_t>> out(g.size());
  for (std::size_t u = 0; u < g.size(); ++u) {
    for (const std::size_t net : g.drives[u]) {
      for (const std::size_t s : g.net_sinks[net]) {
        if (g.is_edge(s)) out[u].push_back(s);
      }
    }
    std::sort(out[u].begin(), out[u].end());
    out[u].erase(std::unique(out[u].begin(), out[u].end()), out[u].end());
  }
  return out;
}

/// Iterative Tarjan strongly-connected components, visiting roots in
/// index (= gate name) order so component discovery is deterministic.
std::vector<std::vector<std::size_t>> strongly_connected(
    const std::vector<std::vector<std::size_t>>& out) {
  const std::size_t n = out.size();
  constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> index(n, kUnset), lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> components;
  std::size_t next_index = 0;

  struct Frame {
    std::size_t v;
    std::size_t edge = 0;
  };
  std::vector<Frame> call;
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnset) continue;
    call.push_back({root});
    while (!call.empty()) {
      Frame& f = call.back();
      if (f.edge == 0) {
        index[f.v] = lowlink[f.v] = next_index++;
        stack.push_back(f.v);
        on_stack[f.v] = 1;
      }
      bool descended = false;
      while (f.edge < out[f.v].size()) {
        const std::size_t w = out[f.v][f.edge++];
        if (index[w] == kUnset) {
          call.push_back({w});
          descended = true;
          break;
        }
        if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      }
      if (descended) continue;
      if (lowlink[f.v] == index[f.v]) {
        std::vector<std::size_t> comp;
        for (;;) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp.push_back(w);
          if (w == f.v) break;
        }
        std::sort(comp.begin(), comp.end());
        components.push_back(std::move(comp));
      }
      const std::size_t done = f.v;
      call.pop_back();
      if (!call.empty()) {
        lowlink[call.back().v] =
            std::min(lowlink[call.back().v], lowlink[done]);
      }
    }
  }
  return components;
}

/// Shortest loop through `start` restricted to `members`: BFS with
/// sorted adjacency, then walk parents back from the predecessor of
/// the closing edge.
std::vector<std::size_t> loop_through(
    const std::vector<std::vector<std::size_t>>& out, std::size_t start,
    const std::set<std::size_t>& members) {
  constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> queue{start};
  std::map<std::size_t, std::size_t> parent;  // node -> predecessor
  std::size_t closer = kUnset;
  for (std::size_t head = 0; head < queue.size() && closer == kUnset;
       ++head) {
    const std::size_t u = queue[head];
    for (const std::size_t v : out[u]) {
      if (v == start) {
        closer = u;
        break;
      }
      if (members.count(v) == 0 || parent.count(v) != 0) continue;
      parent.emplace(v, u);
      queue.push_back(v);
    }
  }
  std::vector<std::size_t> path;
  if (closer == kUnset) return path;  // cannot happen inside an SCC
  for (std::size_t v = closer; v != start; v = parent.at(v)) {
    path.push_back(v);
  }
  path.push_back(start);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

std::vector<CyclePath> find_cycles(const GateGraph& graph) {
  const auto out = successors(graph);
  std::vector<CyclePath> cycles;
  for (const auto& comp : strongly_connected(out)) {
    const bool self_loop =
        comp.size() == 1 &&
        std::binary_search(out[comp[0]].begin(), out[comp[0]].end(),
                           comp[0]);
    if (comp.size() < 2 && !self_loop) continue;
    const std::set<std::size_t> members(comp.begin(), comp.end());
    CyclePath cycle;
    for (const std::size_t v : loop_through(out, comp[0], members)) {
      cycle.gates.push_back(graph.name(v));
    }
    cycles.push_back(std::move(cycle));
  }
  std::sort(cycles.begin(), cycles.end(),
            [](const CyclePath& a, const CyclePath& b) {
              return a.gates < b.gates;
            });
  return cycles;
}

std::string format_loop(const CyclePath& cycle) {
  std::string path;
  for (const std::string& gate : cycle.gates) {
    if (!path.empty()) path += " -> ";
    path += gate;
  }
  if (!cycle.gates.empty()) path += " -> " + cycle.gates.front();
  return path;
}

GraphFindings audit_graph(const Design& design,
                          const DesignGraphOptions& options) {
  GraphFindings out;
  const GateGraph g = GateGraph::build(design);
  const std::size_t n = g.size();

  out.cycles = find_cycles(g);

  // --- Undriven: sources that were never declared.
  for (std::size_t v = 0; v < n; ++v) {
    if (g.is_source[v] && !g.primary_input[v]) {
      out.undriven.push_back(g.name(v));
    }
  }

  // --- Forward reachability from every source.
  std::vector<char> reached(n, 0);
  std::vector<std::size_t> queue;
  for (std::size_t v = 0; v < n; ++v) {
    if (g.is_source[v]) {
      reached[v] = 1;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const std::size_t net : g.drives[queue[head]]) {
      for (const std::size_t w : g.net_sinks[net]) {
        if (g.is_edge(w) && !reached[w]) {
          reached[w] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!reached[v]) out.unreachable.push_back(g.name(v));
  }

  // --- Per-net rules: sinkless nets and fanout explosions.
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const Net& net = design.net_at(i);
    if (net.sink_node.empty()) out.sinkless_nets.push_back(net.name);
    if (net.sink_node.size() > options.fanout_threshold) {
      out.fanout_explosions.push_back(
          {net.name, design.net_driver(i), net.sink_node.size()});
    }
  }

  // --- Reconvergence: saturating path counts (one per net sink, so
  // parallel nets count twice) over the analyzer's waves.  Sources
  // start at one path; gates that never level keep whatever their
  // leveled drivers contributed.
  if (options.reconvergence_paths > 0) {
    constexpr std::size_t kCap = std::numeric_limits<std::size_t>::max() / 2;
    std::vector<std::size_t> paths(n, 0), depth(n, 0);
    for (const auto& wave : levelize(g).waves) {
      for (const std::size_t u : wave) {
        if (g.is_source[u]) paths[u] = 1;
        for (const std::size_t net : g.drives[u]) {
          for (const std::size_t v : g.net_sinks[net]) {
            if (!g.is_edge(v)) continue;
            paths[v] = std::min(kCap, paths[v] + paths[u]);
            depth[v] = std::max(depth[v], depth[u] + 1);
          }
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (paths[v] >= options.reconvergence_paths) {
        out.reconvergences.push_back({g.name(v), paths[v], depth[v]});
      }
    }
  }
  return out;
}

}  // namespace awesim::timing
