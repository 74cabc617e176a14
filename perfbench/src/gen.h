// Seeded design generators.  Designs are emitted as design-netlist text
// (.gate/.input/.net/.sink cards, src/audit/design_netlist.h), so the
// program receives only the generated input and parsing is part of the
// measured flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

struct DesignSpec {
  enum class Topology {
    BinaryTree,  // gate i drives gates 2i+1 and 2i+2 of its tree
    Chain,       // gate i drives gate i+1
  };
  enum class NetShape {
    RcTree,  // a random RC tree: no loops
    Mesh,    // an RC line with cross-link loops and coupling caps
  };
  Topology topology = Topology::BinaryTree;
  /// Independent trees (or chains), each with its own primary input.
  std::size_t roots = 1;
  std::size_t gates_per_root = 1;
  NetShape shape = NetShape::RcTree;
  /// Interior nodes per net, drawn uniformly from [nodes_lo, nodes_hi].
  std::size_t nodes_lo = 8;
  std::size_t nodes_hi = 8;
  /// 0: every net is distinct.  Otherwise every net is a copy of one of
  /// this many cells (identical node names and values), the repetition
  /// the reduction store deduplicates.
  std::size_t variants = 0;
};

/// Stages (= gates = nets) the spec expands to.
inline std::size_t stage_count(const DesignSpec& spec) {
  return spec.roots * spec.gates_per_root;
}

/// The design as netlist text; the same (spec, seed) gives the same
/// bytes on every platform.
std::string design_text(const DesignSpec& spec, std::uint64_t seed);

}  // namespace perfbench
