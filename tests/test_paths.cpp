// Property tests for K-worst path enumeration, against brute force.
//
// TimingGraph::build needs only a finished TimingReport, so these tests
// synthesize reports directly -- seeded random DAGs with known arc
// delays, no AWE engine anywhere -- and check the enumerator against an
// exhaustive DFS:
//   * the K-worst list is exactly the first K of the brute-force list
//     sorted by (arrival desc, arc-sequence lex asc);
//   * it is duplicate-free and ordered;
//   * from/to/through filters match post-hoc filtering of brute force;
//   * K = 1 is the worst-slack endpoint's path;
//   * everything is deterministic run-to-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "timing/graph.h"
#include "timing/paths.h"
#include "util/random_circuits.h"

namespace awesim::timing {

namespace {

// The seeded DAG-report generator and gate labels come from the shared
// test utility (tests/util/random_circuits.*).
using testutil::gate_name;
using testutil::random_report;

struct BrutePath {
  double arrival = 0.0;
  std::vector<std::size_t> arcs;
};

void dfs(const TimingGraph& g, std::size_t node, double arrival,
         std::vector<std::size_t>& arcs, std::vector<BrutePath>& out) {
  const TimingNode& n = g.nodes()[node];
  if (n.is_endpoint) {
    out.push_back({arrival, arcs});
    return;
  }
  for (const std::size_t arc_id : n.fanout) {
    const TimingArc& arc = g.arcs()[arc_id];
    if (g.nodes()[arc.to].is_source) continue;  // pinned pin: no path
    arcs.push_back(arc_id);
    dfs(g, arc.to, arrival + arc.delay, arcs, out);
    arcs.pop_back();
  }
}

// Every source-to-endpoint path, sorted exactly as k_worst_paths emits:
// descending arrival, ties to the lexicographically smaller arc list.
std::vector<BrutePath> brute_force(const TimingGraph& g) {
  std::vector<BrutePath> out;
  std::vector<std::size_t> arcs;
  for (const std::size_t src : g.sources()) dfs(g, src, 0.0, arcs, out);
  std::sort(out.begin(), out.end(), [](const BrutePath& a,
                                       const BrutePath& b) {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return std::lexicographical_compare(a.arcs.begin(), a.arcs.end(),
                                        b.arcs.begin(), b.arcs.end());
  });
  return out;
}

// Owners visited by a path (source pin plus every arc target).
std::set<std::string> owners_of(const TimingGraph& g, const BrutePath& p,
                                std::size_t source_fallback) {
  std::set<std::string> owners;
  const std::size_t first =
      p.arcs.empty() ? source_fallback : g.arcs()[p.arcs.front()].from;
  owners.insert(g.nodes()[first].owner);
  for (const std::size_t arc_id : p.arcs) {
    owners.insert(g.nodes()[g.arcs()[arc_id].to].owner);
  }
  return owners;
}

}  // namespace

TEST(Paths, KWorstMatchesBruteForceOnRandomDags) {
  for (std::uint32_t seed : {1u, 7u, 23u, 101u, 4242u}) {
    const TimingReport report = random_report(seed, 14, 0.25);
    const TimingGraph graph = TimingGraph::build(report);
    const std::vector<BrutePath> all = brute_force(graph);
    ASSERT_FALSE(all.empty()) << "seed " << seed;

    PathQuery q;
    q.k = all.size();
    const PathsResult result = k_worst_paths(graph, q);
    EXPECT_FALSE(result.truncated);
    ASSERT_EQ(result.paths.size(), all.size()) << "seed " << seed;
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(result.paths[i].arrival, all[i].arrival)
          << "seed " << seed << " path " << i;
      EXPECT_EQ(result.paths[i].arcs, all[i].arcs)
          << "seed " << seed << " path " << i;
    }
    // Point arithmetic is consistent: last point's arrival is the path
    // arrival, and deltas sum to it.
    for (const Path& p : result.paths) {
      ASSERT_FALSE(p.points.empty());
      EXPECT_EQ(p.points.back().arrival, p.arrival);
      double sum = 0.0;
      for (const PathPoint& pt : p.points) sum += pt.delay;
      EXPECT_EQ(sum, p.arrival);
    }
  }
}

TEST(Paths, ResultsAreSortedAndDuplicateFree) {
  for (std::uint32_t seed : {3u, 9u, 77u}) {
    const TimingReport report = random_report(seed, 16, 0.3);
    const TimingGraph graph = TimingGraph::build(report);
    PathQuery q;
    q.k = 500;
    const PathsResult result = k_worst_paths(graph, q);
    std::set<std::vector<std::size_t>> seen;
    for (std::size_t i = 0; i < result.paths.size(); ++i) {
      if (i > 0) {
        EXPECT_GE(result.paths[i - 1].arrival, result.paths[i].arrival);
        EXPECT_LE(result.paths[i - 1].slack, result.paths[i].slack);
      }
      EXPECT_TRUE(seen.insert(result.paths[i].arcs).second)
          << "duplicate path at " << i << " (seed " << seed << ")";
    }
  }
}

TEST(Paths, FiltersMatchBruteForcePostFiltering) {
  for (std::uint32_t seed : {5u, 31u, 99u}) {
    const TimingReport report = random_report(seed, 14, 0.3);
    const TimingGraph graph = TimingGraph::build(report);
    const std::vector<BrutePath> all = brute_force(graph);

    // Pick the most-visited interior owner as the through point, and the
    // first path's source/endpoint owners for from/to.
    ASSERT_FALSE(all.empty());
    const BrutePath& widest = *std::max_element(
        all.begin(), all.end(), [](const BrutePath& a, const BrutePath& b) {
          return a.arcs.size() < b.arcs.size();
        });
    ASSERT_GE(widest.arcs.size(), 2u) << "seed " << seed;
    const std::string through_owner =
        graph.nodes()[graph.arcs()[widest.arcs[widest.arcs.size() / 2]].to]
            .owner;
    const std::string from_owner =
        graph.nodes()[graph.arcs()[widest.arcs.front()].from].owner;
    const std::string to_owner =
        graph.nodes()[graph.arcs()[widest.arcs.back()].to].owner;

    auto expect_matches = [&](const PathQuery& q,
                              auto&& keep) {
      std::vector<BrutePath> want;
      for (const BrutePath& p : all) {
        if (keep(p)) want.push_back(p);
      }
      PathQuery query = q;
      query.k = all.size() + 1;
      const PathsResult got = k_worst_paths(graph, query);
      ASSERT_EQ(got.paths.size(), want.size()) << "seed " << seed;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.paths[i].arcs, want[i].arcs) << "seed " << seed;
      }
    };

    PathQuery through_q;
    through_q.through = {through_owner};
    expect_matches(through_q, [&](const BrutePath& p) {
      return owners_of(graph, p, 0).count(through_owner) > 0;
    });

    PathQuery from_q;
    from_q.from = from_owner;
    expect_matches(from_q, [&](const BrutePath& p) {
      if (p.arcs.empty()) return false;
      return graph.nodes()[graph.arcs()[p.arcs.front()].from].owner ==
             from_owner;
    });

    PathQuery to_q;
    to_q.to = to_owner;
    expect_matches(to_q, [&](const BrutePath& p) {
      const std::size_t last =
          p.arcs.empty() ? TimingGraph::npos : graph.arcs()[p.arcs.back()].to;
      return last != TimingGraph::npos &&
             graph.nodes()[last].owner == to_owner;
    });

    PathQuery both;
    both.from = from_owner;
    both.to = to_owner;
    both.through = {through_owner};
    expect_matches(both, [&](const BrutePath& p) {
      if (p.arcs.empty()) return false;
      return graph.nodes()[graph.arcs()[p.arcs.front()].from].owner ==
                 from_owner &&
             graph.nodes()[graph.arcs()[p.arcs.back()].to].owner ==
                 to_owner &&
             owners_of(graph, p, 0).count(through_owner) > 0;
    });
  }
}

TEST(Paths, KOneIsTheWorstSlackEndpointPath) {
  for (std::uint32_t seed : {2u, 44u, 1234u}) {
    const TimingReport report = random_report(seed, 12, 0.35);
    const TimingGraph graph = TimingGraph::build(report);
    PathQuery q;
    q.k = 1;
    const PathsResult result = k_worst_paths(graph, q);
    ASSERT_EQ(result.paths.size(), 1u);
    const Path& worst = result.paths.front();
    // Floating required time: the worst path's arrival is the graph's
    // critical delay and its slack is exactly 0.
    EXPECT_EQ(worst.arrival, graph.max_arrival());
    EXPECT_EQ(worst.slack, 0.0);
    // The endpoint it lands on holds the graph's minimum slack.
    const std::size_t end = graph.find(worst.points.back().pin);
    ASSERT_NE(end, TimingGraph::npos);
    EXPECT_EQ(graph.nodes()[end].slack, graph.worst_slack());
  }
}

TEST(Paths, DeterministicAcrossRepeatedRunsAndRebuilds) {
  const TimingReport report = random_report(8675309u, 15, 0.3);
  const TimingGraph g1 = TimingGraph::build(report);
  const TimingGraph g2 = TimingGraph::build(report);
  PathQuery q;
  q.k = 64;
  const PathsResult a = k_worst_paths(g1, q);
  const PathsResult b = k_worst_paths(g1, q);
  const PathsResult c = k_worst_paths(g2, q);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  ASSERT_EQ(a.paths.size(), c.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].arcs, b.paths[i].arcs);
    EXPECT_EQ(a.paths[i].arcs, c.paths[i].arcs);
    EXPECT_EQ(a.paths[i].arrival, b.paths[i].arrival);
    EXPECT_EQ(a.paths[i].arrival, c.paths[i].arrival);
  }
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.expansions, c.expansions);
}

TEST(Paths, ExpansionCapTruncates) {
  const TimingReport report = random_report(17u, 14, 0.4);
  const TimingGraph graph = TimingGraph::build(report);
  const std::size_t total = brute_force(graph).size();
  ASSERT_GT(total, 2u);
  PathQuery q;
  q.k = total;
  q.max_expansions = 2;
  const PathsResult result = k_worst_paths(graph, q);
  EXPECT_TRUE(result.truncated);
  EXPECT_LT(result.paths.size(), total);
  // The prefix that did come back is still the true worst prefix.
  const std::vector<BrutePath> all = brute_force(graph);
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    EXPECT_EQ(result.paths[i].arcs, all[i].arcs);
  }
}

TEST(Paths, QueryValidation) {
  const TimingReport report = random_report(5u, 8, 0.3);
  const TimingGraph graph = TimingGraph::build(report);
  PathQuery unknown_from;
  unknown_from.from = "nope";
  EXPECT_THROW(k_worst_paths(graph, unknown_from), std::invalid_argument);
  PathQuery unknown_through;
  unknown_through.through = {"ghost"};
  EXPECT_THROW(k_worst_paths(graph, unknown_through),
               std::invalid_argument);
  PathQuery too_many;
  too_many.through.assign(65, gate_name(0));
  EXPECT_THROW(k_worst_paths(graph, too_many), std::invalid_argument);
  PathQuery zero;
  zero.k = 0;
  EXPECT_TRUE(k_worst_paths(graph, zero).paths.empty());

  // A design output named like a gate pin ("b:in") is a port owner of
  // its own: filters resolve "b:in" to the port and "b" to the gate,
  // and pin names that own nothing stay unknown.
  TimingReport pin_named;
  pin_named.gate_arrival = {{"a", 0.0}, {"b", 1e-12}};
  pin_named.source_gates = {"a"};
  StageTiming st;
  st.driver_gate = "a";
  st.net = "n";
  st.sinks = {{"b", 1e-12, 1e-12, 1e-12}, {"b:in", 2e-12, 1e-12, 2e-12}};
  pin_named.stages = {st};
  const TimingGraph pins = TimingGraph::build(pin_named);
  PathQuery to_port;
  to_port.k = 4;
  to_port.to = "b:in";
  const PathsResult port_paths = k_worst_paths(pins, to_port);
  ASSERT_EQ(port_paths.paths.size(), 1u);
  EXPECT_EQ(port_paths.paths[0].endpoint, "b:in");
  EXPECT_EQ(port_paths.paths[0].points.back().pin, "b:in");
  PathQuery to_gate;
  to_gate.k = 4;
  to_gate.to = "b";
  const PathsResult gate_paths = k_worst_paths(pins, to_gate);
  ASSERT_EQ(gate_paths.paths.size(), 1u);
  EXPECT_EQ(gate_paths.paths[0].endpoint, "b");
  EXPECT_EQ(gate_paths.paths[0].points.back().pin, "b:out");
  PathQuery through_port;
  through_port.k = 4;
  through_port.from = "a";
  through_port.through = {"b:in"};
  EXPECT_EQ(k_worst_paths(pins, through_port).paths.size(), 1u);
  PathQuery through_both;
  through_both.through = {"b", "b:in"};  // no path visits both
  EXPECT_TRUE(k_worst_paths(pins, through_both).paths.empty());
  for (const char* ghost : {"b:out", "a:in", "a:out", "n"}) {
    SCOPED_TRACE(ghost);
    PathQuery from;
    from.from = ghost;
    EXPECT_THROW(k_worst_paths(pins, from), std::invalid_argument);
    PathQuery to;
    to.to = ghost;
    EXPECT_THROW(k_worst_paths(pins, to), std::invalid_argument);
    PathQuery through;
    through.through = {ghost};
    EXPECT_THROW(k_worst_paths(pins, through), std::invalid_argument);
  }
}

}  // namespace awesim::timing
