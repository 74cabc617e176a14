// Shared circuit/design generators for the test suites.
//
// Before this header existed every suite grew its own ad-hoc builders
// (test_session's fanout/chain designs, test_paths' random DAG reports);
// they live here now so the differential suites -- in particular the
// `numeric` tier in test_warm_session.cpp -- exercise the same seeded
// families the rest of the tests pin down.  Everything is deterministic
// in the seed: same seed, same Design, bit for bit, on every platform
// (std::mt19937 and the distributions below are fully specified).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "timing/analyzer.h"

namespace awesim::timing::testutil {

/// Element shorthands over net-local node names.
NetElement r(const std::string& a, const std::string& b, double v);
NetElement c(const std::string& a, double v);

/// Reconvergent fanout plus a design-output endpoint:
///   g1 -n1-> {g2, g3};  g2 -n2-> g4;  g3 -n3-> g4;  g4 -n4-> OUT.
Design fanout_design();

/// A straight chain g1 -n1-> g2 -n2-> ... with per-stage distinct
/// parasitics (distinct content keys).
Design chain_design(int gates = 4);

/// Uniform-name gate label ("g07") so lexicographic and numeric order
/// agree for up to 100 gates.
std::string gate_name(int i);

/// A random layered DAG rendered directly as a TimingReport (no AWE
/// engine anywhere): gate i may drive any higher-numbered gate, plus
/// (sometimes) an output port.  Arc delays are uniform in [1, 100] ps.
/// Gates without fan-in become graph sources automatically;
/// report.source_gates is left empty on purpose to cover that default.
TimingReport random_report(std::uint32_t seed, int n_gates,
                           double arc_probability);

/// Bitwise comparison of the timing payload the Session bit-identity
/// contract covers.  awe_stats (cost counters), phases, and
/// wall_seconds are deliberately outside the contract -- they describe
/// work performed, which is exactly what warm runs save.
void expect_same_payload(const TimingReport& a, const TimingReport& b,
                         bool compare_diagnostics = true);

/// A generated single-stage design plus the handles a mutation sequence
/// needs (Design keeps its net list private, so the generator records
/// what it built).
struct StageDesign {
  Design design;
  /// The single net's name.
  std::string net;
  /// Parasitic indices of the resistor elements, with their build-time
  /// nominal values (legal Session::set_value targets).
  std::vector<std::size_t> resistor_indices;
  std::vector<double> resistor_values;
};

/// Seeded one-stage designs for the warm-vs-cold tier.  Each is
/// a single driver gate "drv" (a primary input) plus one net "net0";
/// R/C values are jittered around nominal so no two seeds share a
/// stage-content key.
///
///   * rc_line_design: a straight RC ladder DRV -> ... -> sink "snk"
///     (`sections` R/C section pairs).
///   * rc_tree_design: a random branching tree over `nodes` nodes;
///     every leaf is a sink.
///   * rc_mesh_design: the line plus `cross_links` random
///     cross-coupling resistors (non-tree topology, exercises the
///     general solver path).
StageDesign rc_line_design(std::uint32_t seed, std::size_t sections);
StageDesign rc_tree_design(std::uint32_t seed, std::size_t nodes);
StageDesign rc_mesh_design(std::uint32_t seed, std::size_t sections,
                           std::size_t cross_links);

}  // namespace awesim::timing::testutil
