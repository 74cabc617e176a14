// The warm-vs-cold tier -- the `numeric` suite (ctest -L numeric).
//
// A warm timing::Session has exactly two ways to a recomputed stage's
// LU: adopt the cached factorization of a content-identical circuit, or
// factor fresh.  Both give the bits a cold analysis gives, so the
// contract is bitwise, not a tolerance:
//
//   * after every edit of a seeded sequence -- element values, driver
//     resistance, sink input capacitance, intrinsic delay -- on nets of
//     at least 64 elements, Session::analyze() equals a cold
//     Design::analyze() of the edited design, at 1 and 4 threads;
//   * every Session::sweep point equals a cold analysis of the design
//     at that value;
//   * the blocked multi-RHS substitutions (dense and sparse) that every
//     moment solve goes through are bitwise identical to their
//     one-vector forms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "la/lu.h"
#include "la/sparse.h"
#include "timing/session.h"
#include "util/random_circuits.h"

namespace awesim {

namespace {

using la::Lu;
using la::Matrix;
using la::RealVector;

// A diagonally dominant random matrix: always invertible.
Matrix<double> random_dd_matrix(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> off(-1.0, 1.0);
  Matrix<double> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = off(rng);
      row += std::fabs(a(i, j));
    }
    a(i, i) = row + 1.0;
  }
  return a;
}

RealVector random_vector(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  RealVector b(n);
  for (double& x : b) x = val(rng);
  return b;
}

}  // namespace

// ---------------------------------------------------------------------
// Blocked multi-RHS substitutions: bitwise identity with the one-vector
// forms, across panel-boundary counts (kPanel = 8).

TEST(BlockedSubstitution, DenseSolveMultiBitwiseEqualsSolve) {
  for (std::size_t nrhs : {1u, 7u, 8u, 9u, 16u, 23u}) {
    const std::size_t n = 19;
    Matrix<double> a = random_dd_matrix(41u, n);
    const Lu<double> lu(a);
    std::vector<RealVector> bs;
    for (std::uint32_t s = 0; s < nrhs; ++s) {
      bs.push_back(random_vector(1000u + s, n));
    }
    const std::vector<RealVector> batched = lu.solve_multi(bs);
    ASSERT_EQ(batched.size(), nrhs);
    for (std::size_t j = 0; j < nrhs; ++j) {
      EXPECT_EQ(batched[j], lu.solve(bs[j])) << nrhs << " rhs, j=" << j;
    }
  }
}

TEST(BlockedSubstitution, SparseSolveMultiBitwiseEqualsSolve) {
  // An RC-ladder-shaped tridiagonal system, the shape SparseLu serves in
  // production.
  const std::size_t n = 40;
  std::vector<la::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({i, i, 3.0 + 0.01 * static_cast<double>(i)});
    if (i + 1 < n) {
      trips.push_back({i, i + 1, -1.0});
      trips.push_back({i + 1, i, -1.0});
    }
  }
  const la::SparseMatrix a = la::SparseMatrix::from_triplets(n, n, trips);
  const la::SparseLu lu(a);
  for (std::size_t nrhs : {1u, 8u, 11u, 24u}) {
    std::vector<RealVector> bs;
    for (std::uint32_t s = 0; s < nrhs; ++s) {
      bs.push_back(random_vector(2000u + s, n));
    }
    const std::vector<RealVector> batched = lu.solve_multi(bs);
    ASSERT_EQ(batched.size(), nrhs);
    for (std::size_t j = 0; j < nrhs; ++j) {
      EXPECT_EQ(batched[j], lu.solve(bs[j])) << nrhs << " rhs, j=" << j;
    }
  }
}

// ---------------------------------------------------------------------
// Warm Session vs cold Design::analyze, bit for bit.

namespace {

using timing::AnalysisOptions;
using timing::Session;
using timing::SweepParam;
using timing::TimingReport;
using timing::testutil::StageDesign;

// Every family is built with at least this many parasitics per net.
constexpr std::size_t kMinElements = 64;

StageDesign make_family(int family, std::uint32_t seed) {
  switch (family) {
    case 0: return timing::testutil::rc_line_design(seed, 40);
    case 1: return timing::testutil::rc_tree_design(seed, 40);
    default: return timing::testutil::rc_mesh_design(seed, 32, 6);
  }
}

// The payload contract plus the slack view folded into every report.
void expect_bitwise(const TimingReport& warm, const TimingReport& cold,
                    const std::string& what) {
  SCOPED_TRACE(what);
  timing::testutil::expect_same_payload(warm, cold);
  EXPECT_EQ(warm.gate_slack, cold.gate_slack);
  EXPECT_EQ(warm.worst_slack, cold.worst_slack);
  EXPECT_EQ(warm.worst_slack_endpoint, cold.worst_slack_endpoint);
}

// A sink gate of the stage (any one: every family has at least one).
std::string first_sink(const StageDesign& stage) {
  return stage.design.net_at(0).sink_node.begin()->first;
}

// One seeded edit: a resistor value, the driver's resistance, a sink's
// input capacitance, or the driver's intrinsic delay.  Driver
// resistance and input capacitance draw from small value sets so the
// sequence revisits circuit content, and the intrinsic delay leaves the
// circuit alone: both make later stages adopt a cached LU instead of
// factoring fresh, so the sequence covers both warm paths.
void apply_random_edit(std::mt19937& rng, const StageDesign& stage,
                       Session& session) {
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<std::size_t> pick(
      0, stage.resistor_indices.size() - 1);
  std::uniform_real_distribution<double> scale(0.7, 1.3);
  std::uniform_int_distribution<int> level(1, 3);
  switch (kind(rng)) {
    case 0: {
      const std::size_t which = pick(rng);
      session.set_value(stage.net, stage.resistor_indices[which],
                        stage.resistor_values[which] * scale(rng));
      return;
    }
    case 1:
      session.set_drive_resistance("drv", 100.0 * level(rng));
      return;
    case 2:
      session.set_input_capacitance(first_sink(stage), 2e-15 * level(rng));
      return;
    default:
      session.set_intrinsic_delay("drv", 1e-12 * level(rng));
      return;
  }
}

}  // namespace

TEST(WarmSession, EditSequencesStayBitIdenticalToCold) {
  for (const int threads : {1, 4}) {
    AnalysisOptions opt;
    opt.threads = threads;
    for (int family = 0; family < 3; ++family) {
      for (std::uint32_t seed : {1u, 2u, 3u}) {
        const StageDesign stage = make_family(family, seed);
        ASSERT_GE(stage.design.net_at(0).parasitics.size(), kMinElements);
        Session session(stage.design, opt);
        (void)session.analyze();

        std::mt19937 rng(seed * 131u + static_cast<std::uint32_t>(family));
        std::uint64_t adopted = 0;
        for (int step = 0; step < 12; ++step) {
          apply_random_edit(rng, stage, session);
          const TimingReport warm = session.analyze();
          const TimingReport cold = session.design().analyze(opt);
          expect_bitwise(warm, cold,
                         "threads " + std::to_string(threads) + " family " +
                             std::to_string(family) + " seed " +
                             std::to_string(seed) + " step " +
                             std::to_string(step));
          // A recomputed stage that factored nothing adopted a cached LU.
          if (warm.awe_stats.stages_recomputed > 0 &&
              warm.awe_stats.factorizations < cold.awe_stats.factorizations) {
            ++adopted;
          }
        }
        // Both warm paths ran: a tier that only ever factors fresh would
        // not test LU adoption.
        EXPECT_GT(adopted, 0u) << "family " << family << " seed " << seed;
      }
    }
  }
}

TEST(WarmSession, SweepPointsAreBitIdenticalToCold) {
  const StageDesign stage = timing::testutil::rc_line_design(77u, 40);
  ASSERT_GE(stage.design.net_at(0).parasitics.size(), kMinElements);
  const std::vector<double> values = {150.0, 300.0, 450.0, 600.0};
  const std::vector<SweepParam> params = {
      {SweepParam::Kind::DriveResistance, "drv", 0},
      {SweepParam::Kind::NetElementValue, stage.net,
       stage.resistor_indices[3]},
      {SweepParam::Kind::InputCapacitance, "snk", 0}};
  for (const int threads : {1, 4}) {
    AnalysisOptions opt;
    opt.threads = threads;
    Session session(stage.design, opt);
    for (const SweepParam& param : params) {
      // Input capacitances are farads; reuse the value ladder scaled.
      std::vector<double> swept = values;
      if (param.kind == SweepParam::Kind::InputCapacitance) {
        for (double& v : swept) v *= 1e-17;
      }
      const timing::SweepResult result = session.sweep(param, swept);
      ASSERT_EQ(result.points.size(), swept.size());
      for (std::size_t i = 0; i < swept.size(); ++i) {
        // Cold twin: a fresh session as the mutation vehicle only.
        Session vehicle(stage.design, opt);
        switch (param.kind) {
          case SweepParam::Kind::DriveResistance:
            vehicle.set_drive_resistance(param.name, swept[i]);
            break;
          case SweepParam::Kind::NetElementValue:
            vehicle.set_value(param.name, param.element_index, swept[i]);
            break;
          default:
            vehicle.set_input_capacitance(param.name, swept[i]);
            break;
        }
        const TimingReport cold = vehicle.design().analyze(opt);
        expect_bitwise(result.points[i].report, cold,
                       "threads " + std::to_string(threads) + " point " +
                           std::to_string(i));
        EXPECT_EQ(result.points[i].worst_slack, cold.worst_slack);
      }
    }
    // The sweep put the design back: the next analyze is the cold
    // baseline, bit for bit.
    expect_bitwise(session.analyze(), stage.design.analyze(opt),
                   "after sweeps");
  }
}

}  // namespace awesim
