#include "gen.h"

#include <cstdio>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

struct Card {
  char kind;  // 'R' or 'C'
  std::string a;
  std::string b;
  double value;
};

std::string node(std::size_t j) { return "m" + std::to_string(j); }

/// One net's parasitics between the driver hookup "DRV" and the sink
/// hookups "S0" (and "S1" when two sinks attach).
std::vector<Card> net_cards(Rng& rng, DesignSpec::NetShape shape,
                            std::size_t n, std::size_t sinks) {
  std::vector<Card> cards;
  const auto r = [&](std::string a, std::string b, double lo, double hi) {
    cards.push_back({'R', std::move(a), std::move(b), rng.uniform(lo, hi)});
  };
  const auto c = [&](std::string a, std::string b, double lo, double hi) {
    cards.push_back({'C', std::move(a), std::move(b), rng.uniform(lo, hi)});
  };
  r("DRV", node(0), 5.0, 40.0);
  for (std::size_t j = 1; j < n; ++j) {
    // Trees attach each node to one of the few previous nodes, so they
    // branch; meshes are a line that the cross-links below close.
    const std::size_t parent =
        shape == DesignSpec::NetShape::RcTree
            ? j - 1 - rng.below(j < 6 ? j : 6)
            : j - 1;
    r(node(parent), node(j), 5.0, 40.0);
  }
  for (std::size_t j = 0; j < n; ++j) c(node(j), "0", 1e-15, 5e-15);
  if (shape == DesignSpec::NetShape::Mesh) {
    for (std::size_t k = 0; k < n / 25; ++k) {
      const std::size_t a = rng.below(n - 21);
      r(node(a), node(a + 3 + rng.below(18)), 20.0, 200.0);
    }
    for (std::size_t k = 0; k < n / 50; ++k) {
      const std::size_t a = rng.below(n - 21);
      c(node(a), node(a + 3 + rng.below(18)), 0.2e-15, 1e-15);
    }
  }
  r(node(n - 1), "S0", 5.0, 40.0);
  if (sinks > 1) r(node(n / 2 + rng.below(n / 2)), "S1", 5.0, 40.0);
  return cards;
}

void append_cards(std::string& out, const std::vector<Card>& cards) {
  char line[128];
  std::size_t index = 0;
  for (const Card& card : cards) {
    const int len =
        std::snprintf(line, sizeof(line), "%c%zu %s %s %.6g\n", card.kind,
                      index++, card.a.c_str(), card.b.c_str(), card.value);
    out.append(line, static_cast<std::size_t>(len));
  }
}

}  // namespace

std::string design_text(const DesignSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const bool tree = spec.topology == DesignSpec::Topology::BinaryTree;
  const std::size_t sinks = tree ? 2 : 1;
  const auto nodes = [&] {
    return spec.nodes_lo + rng.below(spec.nodes_hi - spec.nodes_lo + 1);
  };
  std::vector<std::vector<Card>> cells;
  for (std::size_t v = 0; v < spec.variants; ++v) {
    cells.push_back(net_cards(rng, spec.shape, nodes(), sinks));
  }

  std::string out = "* perfbench generated design\n";
  char line[160];
  const auto gate = [](std::size_t r, std::size_t i) {
    return "g" + std::to_string(r) + "_" + std::to_string(i);
  };
  for (std::size_t r = 0; r < spec.roots; ++r) {
    for (std::size_t i = 0; i < spec.gates_per_root; ++i) {
      const int len = std::snprintf(
          line, sizeof(line), ".gate %s rdrive=%.6g cin=%.6g delay=%.6g\n",
          gate(r, i).c_str(), rng.uniform(200.0, 2000.0),
          rng.uniform(2e-15, 8e-15), rng.uniform(5e-12, 20e-12));
      out.append(line, static_cast<std::size_t>(len));
    }
    out += ".input " + gate(r, 0) + "\n";
  }
  for (std::size_t r = 0; r < spec.roots; ++r) {
    for (std::size_t i = 0; i < spec.gates_per_root; ++i) {
      out += ".net " + gate(r, i) + " n" + std::to_string(r) + "_" +
             std::to_string(i) + "\n";
      if (spec.variants == 0) {
        append_cards(out, net_cards(rng, spec.shape, nodes(), sinks));
      } else {
        append_cards(out, cells[rng.below(cells.size())]);
      }
      for (std::size_t k = 0; k < sinks; ++k) {
        const std::size_t child = tree ? 2 * i + 1 + k : i + 1;
        const std::string sink =
            child < spec.gates_per_root
                ? gate(r, child)
                : "o" + std::to_string(r) + "_" + std::to_string(i) + "_" +
                      std::to_string(k);
        out += ".sink " + sink + " S" + std::to_string(k) + "\n";
      }
      out += ".endnet\n";
    }
  }
  return out;
}

}  // namespace perfbench
