// The stage kernel's bitwise shortcuts, each against the slow path it
// replaces (ctest label `numeric`):
//
//   * la::Lu's row-span substitutions vs a full-walk dense reference,
//     on random and MNA matrices, NaN/inf right-hand sides included;
//   * mirror atoms (a ramp's t_r atom) vs their own on-demand moment
//     sequence and match;
//   * the certified crossing scan vs the per-level 4096-point scan, on
//     80 seeded RC line / tree / mesh and RLC line stages.
//
// "Equal" below means equal as numbers: a == b, or both NaN.  The
// shortcuts may move only the sign of an exact zero.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "la/lu.h"
#include "mna/system.h"
#include "util/random_circuits.h"

namespace awesim {

using circuit::Circuit;
using circuit::Stimulus;
using core::Engine;
using core::EngineOptions;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_number(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}
bool same_number(const la::Complex& a, const la::Complex& b) {
  return same_number(a.real(), b.real()) && same_number(a.imag(), b.imag());
}

// ---------------------------------------------------------------------
// Full-walk reference: the dense partial-pivoting LU and substitutions
// over the whole triangles, as la::Lu ran before it recorded row spans.

template <typename T>
struct DenseLu {
  la::Matrix<T> lu;
  std::vector<std::size_t> perm;

  explicit DenseLu(la::Matrix<T> a) : lu(std::move(a)) {
    const std::size_t n = lu.rows();
    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pivot_row = k;
      double pivot_mag = std::abs(lu(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        if (std::abs(lu(i, k)) > pivot_mag) {
          pivot_mag = std::abs(lu(i, k));
          pivot_row = i;
        }
      }
      if (pivot_row != k) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(lu(k, j), lu(pivot_row, j));
        }
        std::swap(perm[k], perm[pivot_row]);
      }
      const T pivot = lu(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const T mult = lu(i, k) / pivot;
        lu(i, k) = mult;
        if (mult == T{}) continue;
        for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= mult * lu(k, j);
      }
    }
  }

  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = lu.rows();
    std::vector<T> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
    for (std::size_t i = 1; i < n; ++i) {
      T acc = x[i];
      for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
      x[i] = acc;
    }
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
      x[ii] = acc / lu(ii, ii);
    }
    return x;
  }
};

/// solve() and solve_multi() of la::Lu against the full-walk reference
/// on every right-hand side.
template <typename T>
void expect_lu_matches_full_walk(const la::Matrix<T>& a,
                                 const std::vector<std::vector<T>>& rhs,
                                 const std::string& what) {
  const la::Lu<T> lu(a);
  const DenseLu<T> ref(a);
  const std::vector<std::vector<T>> multi = lu.solve_multi(rhs);
  ASSERT_EQ(multi.size(), rhs.size());
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    const std::vector<T> want = ref.solve(rhs[r]);
    const std::vector<T> got = lu.solve(rhs[r]);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(same_number(got[i], want[i]))
          << what << " rhs " << r << " entry " << i;
      EXPECT_TRUE(same_number(multi[r][i], want[i]))
          << what << " multi rhs " << r << " entry " << i;
    }
  }
}

/// Random right-hand sides, every fourth one poisoned with NaN or inf
/// at a random entry (so panels mix finite and non-finite columns).
template <typename T>
std::vector<std::vector<T>> random_rhs(std::mt19937& rng, std::size_t n,
                                       std::size_t count) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<std::vector<T>> rhs(count, std::vector<T>(n));
  for (std::size_t r = 0; r < count; ++r) {
    for (auto& v : rhs[r]) {
      if constexpr (std::is_same_v<T, double>) {
        v = u(rng);
      } else {
        v = T(u(rng), u(rng));
      }
    }
    // Sparse right-hand sides (one nonzero) hit the exact-zero paths.
    if (r % 4 == 1) {
      const std::size_t keep = pick(rng);
      for (std::size_t i = 0; i < n; ++i) {
        if (i != keep) rhs[r][i] = T{};
      }
    }
    if (r % 4 == 3) rhs[r][pick(rng)] = T(r % 8 == 3 ? kNan : -kInf);
  }
  return rhs;
}

/// A random matrix with a given fill fraction and a dominant diagonal
/// scaled so pivoting still swaps rows now and then.
template <typename T>
la::Matrix<T> random_sparse_matrix(std::mt19937& rng, std::size_t n,
                                   double fill) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::bernoulli_distribution keep(fill);
  la::Matrix<T> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        a(i, j) = T(0.5 + u(rng));
      } else if (keep(rng)) {
        if constexpr (std::is_same_v<T, double>) {
          a(i, j) = u(rng);
        } else {
          a(i, j) = T(u(rng), u(rng));
        }
      }
    }
  }
  return a;
}

}  // namespace

TEST(LuSpans, MatchFullWalkOnRandomMatrices) {
  std::mt19937 rng(20261017);
  for (const std::size_t n : {1u, 2u, 7u, 23u, 60u}) {
    for (const double fill : {0.0, 0.05, 0.3, 1.0}) {
      const std::string what =
          "n=" + std::to_string(n) + " fill=" + std::to_string(fill);
      expect_lu_matches_full_walk(random_sparse_matrix<double>(rng, n, fill),
                                  random_rhs<double>(rng, n, 19), what);
      expect_lu_matches_full_walk(
          random_sparse_matrix<la::Complex>(rng, n, fill),
          random_rhs<la::Complex>(rng, n, 11), what + " complex");
    }
  }
  // A non-finite matrix entry.  A NaN multiplier must update its whole
  // row, not just the pivot row's span: that row's NaNs then reach its
  // own pivot, so the determinant is NaN as in the full elimination.
  for (const double poison : {kNan, kInf}) {
    la::RealMatrix a = random_sparse_matrix<double>(rng, 23, 0.1);
    a(17, 3) = poison;
    expect_lu_matches_full_walk(a, random_rhs<double>(rng, 23, 9),
                                "poisoned " + std::to_string(poison));
    if (std::isnan(poison)) {
      EXPECT_TRUE(std::isnan(la::Lu<double>(a).determinant()));
    }
  }
}

TEST(LuSpans, MatchFullWalkOnMnaMatrices) {
  using namespace timing::testutil;
  std::mt19937 rng(7);
  const Stimulus ramp = Stimulus::ramp_step(0.0, 1.0, 50e-12);
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const std::string tag = " seed " + std::to_string(seed);
    for (const auto& [ckt, what] :
         std::vector<std::pair<Circuit, std::string>>{
             {stage_circuit(rc_line_design(seed, 30), ramp), "line"},
             {stage_circuit(rc_tree_design(seed, 60), ramp), "tree"},
             {stage_circuit(rc_mesh_design(seed, 30, 8), ramp), "mesh"},
             {stage_circuit(rc_line_design(seed, 30), ramp, true),
              "rlc line"}}) {
      const mna::MnaSystem mna(ckt);
      const std::size_t n = mna.dim();
      expect_lu_matches_full_walk(mna.G(), random_rhs<double>(rng, n, 21),
                                  what + tag);
      // The shifted pencil G + sigma C the sigma-limit walk factors.
      la::RealMatrix shifted = mna.G();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          shifted(i, j) += 1e12 * mna.C()(i, j);
        }
      }
      expect_lu_matches_full_walk(shifted, random_rhs<double>(rng, n, 9),
                                  what + " shifted" + tag);
    }
  }
}

// ---------------------------------------------------------------------
// Mirror atoms: one moment sequence per stage source.

namespace {

/// Each mirror atom's on-demand moments equal -1 x its source's, and so
/// does the match of every output; a non-mirror atom is never flagged.
void expect_mirrors_negate(const Circuit& ckt,
                           std::size_t expected_mirrors,
                           const std::string& what) {
  Engine engine(ckt);
  std::size_t mirrors = 0;
  for (std::size_t a = 0; a < engine.atom_count(); ++a) {
    const std::optional<std::size_t> source = engine.atom_mirror(a);
    if (!source) continue;
    ++mirrors;
    ASSERT_LT(*source, a) << what;
    EXPECT_FALSE(engine.atom_mirror(*source)) << what;
    core::MomentSequence& mine = engine.atom_moments(a);
    core::MomentSequence& theirs = engine.atom_moments(*source);
    const std::size_t dim = engine.system().dim();
    for (int j = -1; j <= 9; ++j) {
      for (std::size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(mine.mu(j, i), -theirs.mu(j, i))
            << what << " atom " << a << " mu_" << j << " unknown " << i;
      }
    }
    for (std::size_t i = 0; i < dim; ++i) {
      for (const int q : {1, 2, 4}) {
        std::vector<double> mu_mine;
        std::vector<double> mu_theirs;
        for (int j = -1; j < 2 * q; ++j) {
          mu_mine.push_back(mine.mu(j, i));
          mu_theirs.push_back(theirs.mu(j, i));
        }
        const core::MatchResult m = core::match_moments(mu_mine, -1, q);
        const core::MatchResult t = core::match_moments(mu_theirs, -1, q);
        ASSERT_EQ(m.order_used, t.order_used) << what;
        ASSERT_EQ(m.stable, t.stable) << what;
        ASSERT_EQ(m.terms.size(), t.terms.size()) << what;
        for (std::size_t k = 0; k < m.terms.size(); ++k) {
          EXPECT_TRUE(same_number(m.terms[k].pole, t.terms[k].pole))
              << what << " unknown " << i << " q=" << q;
          EXPECT_TRUE(same_number(m.terms[k].residue, -t.terms[k].residue))
              << what << " unknown " << i << " q=" << q;
        }
      }
    }
  }
  EXPECT_EQ(mirrors, expected_mirrors) << what;
}

}  // namespace

TEST(MirrorAtoms, MomentsAndMatchAreTheSourceNegated) {
  using namespace timing::testutil;
  const Stimulus ramp = Stimulus::ramp_step(0.0, 1.0, 50e-12);
  // Slope changes +s, -s, -s, +s: atoms 1 and 2 mirror atom 0; atom 3
  // repeats atom 0 unnegated and keeps its own sequence.
  const Stimulus pulse = Stimulus::pwl(
      {{0.0, 0.0}, {40e-12, 1.0}, {300e-12, 1.0}, {340e-12, 0.0}});
  // No slope change negates another: no mirrors.
  const Stimulus pwl =
      Stimulus::pwl({{0.0, 0.0}, {20e-12, 0.4}, {70e-12, 1.0}, {1e-9, 0.2}});
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    const std::string tag = " seed " + std::to_string(seed);
    const StageDesign line = rc_line_design(seed, 12);
    const StageDesign tree = rc_tree_design(seed, 20);
    const StageDesign mesh = rc_mesh_design(seed, 12, 4);
    expect_mirrors_negate(stage_circuit(line, ramp), 1, "line" + tag);
    expect_mirrors_negate(stage_circuit(tree, ramp), 1, "tree" + tag);
    expect_mirrors_negate(stage_circuit(mesh, pulse), 2, "mesh pulse" + tag);
    expect_mirrors_negate(stage_circuit(mesh, pwl), 0, "mesh pwl" + tag);
    expect_mirrors_negate(stage_circuit(line, ramp, true), 1,
                          "rlc line" + tag);
  }
  circuits::Drive drive;
  drive.rise_time = 0.1e-9;
  expect_mirrors_negate(circuits::fig25_rlc_ladder(drive), 1, "fig25");
  expect_mirrors_negate(circuits::fig22_floating_cap(drive), 1, "fig22");
}

TEST(MirrorAtoms, ResultTermsAreTheSourceTermsNegated) {
  using namespace timing::testutil;
  const Circuit ckt = stage_circuit(rc_tree_design(4, 40),
                                    Stimulus::ramp_step(0.0, 1.0, 80e-12));
  Engine engine(ckt);
  ASSERT_EQ(engine.atom_count(), 2u);
  ASSERT_EQ(engine.atom_mirror(1), std::optional<std::size_t>(0));
  EngineOptions opt;
  opt.order = 2;
  opt.auto_order = true;
  opt.error_tolerance = 0.01;
  opt.max_order = 6;
  std::vector<circuit::NodeId> outs;
  for (circuit::NodeId node = 1;
       static_cast<std::size_t>(node) < ckt.node_count(); ++node) {
    outs.push_back(node);
  }
  const core::BatchResult batch = engine.approximate_all(outs, opt);
  for (const core::Result& result : batch.results) {
    // atoms(): the operating-point pseudo-atom, then atoms 0 and 1.
    const auto& atoms = result.approximation.atoms();
    ASSERT_EQ(atoms.size(), 3u);
    const core::MatchResult& src = atoms[1].match;
    const core::MatchResult& mir = atoms[2].match;
    EXPECT_EQ(mir.order_used, src.order_used);
    EXPECT_EQ(mir.pole_shift, src.pole_shift);
    ASSERT_EQ(atoms[2].terms.size(), atoms[1].terms.size());
    for (std::size_t k = 0; k < atoms[1].terms.size(); ++k) {
      EXPECT_EQ(atoms[2].terms[k].pole, atoms[1].terms[k].pole);
      EXPECT_EQ(atoms[2].terms[k].residue, -atoms[1].terms[k].residue);
    }
  }
  EXPECT_EQ(engine.stats().factorizations, 1u);
}

// ---------------------------------------------------------------------
// One certified crossing scan for several levels.

namespace {

/// The per-level scan first_crossings replaces, kept verbatim as the
/// reference: 4096-point grid, first sign change, 60 bisection steps.
std::optional<double> reference_crossing(const core::Approximation& approx,
                                         double level, double t0,
                                         double t1) {
  constexpr std::size_t kScanPoints = 4096;
  if (!(t1 > t0)) return std::nullopt;
  double prev_t = t0;
  double prev_v = approx.value(t0) - level;
  if (prev_v == 0.0) return t0;
  for (std::size_t i = 1; i <= kScanPoints; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) /
                              static_cast<double>(kScanPoints);
    const double v = approx.value(t) - level;
    if ((prev_v < 0.0 && v >= 0.0) || (prev_v > 0.0 && v <= 0.0)) {
      double lo = prev_t;
      double hi = t;
      double flo = prev_v;
      for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double fm = approx.value(mid) - level;
        if ((flo < 0.0) == (fm < 0.0)) {
          lo = mid;
          flo = fm;
        } else {
          hi = mid;
        }
      }
      return 0.5 * (lo + hi);
    }
    prev_t = t;
    prev_v = v;
  }
  return std::nullopt;
}

bool same_bits(const std::optional<double>& a,
               const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

/// first_crossings and first_crossing agree with the reference scan,
/// bit for bit, on every level and window.  Returns the number of
/// levels crossed.
std::size_t expect_crossings_match_reference(
    const core::Approximation& approx, const std::vector<double>& levels,
    const std::vector<std::pair<double, double>>& windows,
    const std::string& what) {
  std::size_t crossed = 0;
  for (const auto& [t0, t1] : windows) {
    const std::vector<std::optional<double>> all =
        approx.first_crossings(levels, t0, t1);
    EXPECT_EQ(all.size(), levels.size());
    for (std::size_t k = 0; k < levels.size() && k < all.size(); ++k) {
      const std::optional<double> want =
          reference_crossing(approx, levels[k], t0, t1);
      EXPECT_TRUE(same_bits(all[k], want))
          << what << " level " << levels[k] << " on [" << t0 << ", " << t1
          << "]";
      if (all[k]) ++crossed;
    }
  }
  return crossed;
}

bool all_real_simple_stable(const core::Approximation& approx) {
  for (const auto& atom : approx.atoms()) {
    for (const auto& term : atom.terms) {
      if (term.power != 1 || term.pole.imag() != 0.0 ||
          !(term.pole.real() < 0.0)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

TEST(Approximation, FirstCrossingsMatchPerLevelScansBitwise) {
  // The underdamped Fig. 25 ladder (the Figs. 26/27 responses) rings
  // through its final value, so levels near it are crossed on the way
  // down as well as up; a fast RC for a monotone contrast.
  circuits::Drive drive;
  drive.rise_time = 0.1e-9;
  const Circuit rlc = circuits::fig25_rlc_ladder(drive);
  Circuit rc;
  {
    const auto in = rc.node("in");
    const auto out = rc.node("out");
    rc.add_vsource("V1", in, circuit::kGround, Stimulus::step(0.0, 5.0));
    rc.add_resistor("R1", in, out, 1e3);
    rc.add_capacitor("C1", out, circuit::kGround, 1e-12);
  }
  struct Case {
    const Circuit* ckt;
    const char* node;
  };
  for (const Case& c : {Case{&rlc, "n3"}, Case{&rc, "out"}}) {
    Engine engine(*c.ckt);
    EngineOptions opt;
    opt.order = 6;
    opt.auto_order = false;
    const auto result = engine.approximate(c.ckt->find_node(c.node), opt);
    const core::Approximation& approx = result.approximation;
    const double v0 = approx.value(0.0);
    // Thresholds, overshoot levels, never-crossed levels, the starting
    // value itself, repeats, and an unsorted order.
    const std::vector<double> levels = {2.5, 1.0, 4.0,  5.2, 5.6, 4.9,
                                        9.0, -1.0, v0, 2.5, 0.5, 4.99};
    const double horizon = 12.0 * approx.dominant_time_constant();
    for (const auto& [t0, t1] :
         std::vector<std::pair<double, double>>{{0.0, horizon},
                                                {0.3 * horizon, horizon},
                                                {horizon, horizon},
                                                {horizon, 0.0}}) {
      const std::size_t crossed = expect_crossings_match_reference(
          approx, levels, {{t0, t1}}, c.node);
      for (const double level : levels) {
        EXPECT_TRUE(same_bits(approx.first_crossing(level, t0, t1),
                              reference_crossing(approx, level, t0, t1)))
            << c.node << " level " << level;
      }
      if (t1 <= t0) {
        EXPECT_EQ(crossed, 0u);
      } else {
        EXPECT_LT(crossed, levels.size());  // 9.0 and -1.0 never cross
      }
    }
  }

  // 80 seeded stages, analyzed as the timing stage does: auto-order
  // AWE of every sink under a saturated ramp, crossings of the delay
  // and slew levels (plus off-grid and never-crossed ones) over the
  // stage horizon, from t = 0, from inside the ramp, and from before it.
  using namespace timing::testutil;
  EngineOptions opt;
  opt.order = 2;
  opt.auto_order = true;
  opt.error_tolerance = 0.01;
  opt.max_order = 6;
  const std::vector<double> levels = {0.5, 0.1, 0.9, 0.999, 1.2, 0.3};
  std::size_t certifiable = 0;
  std::size_t sinks = 0;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const double rise = 20e-12 * seed;
    const Stimulus ramp = Stimulus::ramp_step(0.0, 1.0, rise);
    const std::string tag = " seed " + std::to_string(seed);
    const StageDesign line = rc_line_design(seed, 10 + seed);
    const StageDesign tree = rc_tree_design(seed, 20 + seed);
    const StageDesign mesh = rc_mesh_design(seed, 12, 2 + seed % 5);
    for (const auto& [stage, inductors, what] :
         std::vector<std::tuple<const StageDesign*, bool, std::string>>{
             {&line, false, "line"},
             {&tree, false, "tree"},
             {&mesh, false, "mesh"},
             {&line, true, "rlc line"}}) {
      const Circuit ckt = stage_circuit(*stage, ramp, inductors, 100e-9);
      Engine engine(ckt);
      std::vector<circuit::NodeId> outs;
      for (const auto& [sink, node] : stage->design.net_at(0).sink_node) {
        outs.push_back(ckt.find_node(node));
        if (outs.size() == 3) break;
      }
      const core::BatchResult batch = engine.approximate_all(outs, opt);
      for (const core::Result& result : batch.results) {
        const core::Approximation& approx = result.approximation;
        const double horizon =
            12.0 * approx.dominant_time_constant() + 3.0 * rise + 1e-15;
        expect_crossings_match_reference(
            approx, levels,
            {{0.0, horizon}, {0.5 * rise, horizon}, {-0.1 * horizon, horizon}},
            what + tag);
        ++sinks;
        if (all_real_simple_stable(approx)) ++certifiable;
      }
    }
  }
  EXPECT_GE(sinks, 80u);
  // The RC sinks take the certified path; the ringing RLC lines do not.
  EXPECT_GE(certifiable, sinks / 2);
  EXPECT_LT(certifiable, sinks);
}

}  // namespace awesim
