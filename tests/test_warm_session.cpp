// The warm-vs-cold tier -- the `numeric` suite (ctest -L numeric).
//
// A warm timing::Session has one way to a recomputed stage's LU: factor
// G once, exactly as a cold analysis does.  So the contract is bitwise,
// not a tolerance:
//
//   * after every edit of a seeded sequence -- element values, driver
//     resistance, sink input capacitance, intrinsic delay -- on nets of
//     at least 64 elements, Session::analyze() equals a cold
//     Design::analyze() of the edited design, at 1 and 4 threads, and
//     factors G exactly once per recomputed stage;
//   * every Session::sweep point equals a cold analysis of the design
//     at that value;
//   * a Session serving unchanged stages through its per-net entry memo
//     matches one that rebuilds every key (and so clears every memo)
//     before each analysis, report for report and counter for counter,
//     through a seeded stream of every kind of edit;
//   * the blocked multi-RHS substitutions (dense and sparse) that every
//     moment solve goes through are bitwise identical to their
//     one-vector forms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
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
using timing::Design;
using timing::Net;
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
// sequence revisits circuit content (whole-stage cache hits), and the
// intrinsic delay leaves the circuit alone (a result miss whose lint
// report hits).
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
        for (int step = 0; step < 12; ++step) {
          apply_random_edit(rng, stage, session);
          const TimingReport warm = session.analyze();
          const TimingReport cold = session.design().analyze(opt);
          const std::string what =
              "threads " + std::to_string(threads) + " family " +
              std::to_string(family) + " seed " + std::to_string(seed) +
              " step " + std::to_string(step);
          expect_bitwise(warm, cold, what);
          // The paper's cost model on the warm path: every stage here is
          // ramp-driven and lint-clean, so each recomputed stage factors
          // its G exactly once and a served stage factors nothing.
          EXPECT_EQ(warm.awe_stats.factorizations,
                    warm.awe_stats.stages_recomputed)
              << what;
        }
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

// ---------------------------------------------------------------------
// Entry memo vs key path, bit for bit and counter for counter.

namespace {

constexpr int kLayers = 3;
constexpr int kWidth = 3;
constexpr int kGates = kLayers * kWidth;

// kLayers layers of kWidth gates.  Gate i drives one RC ladder of 4-6
// sections to gate i + kWidth and, half the time, to a second gate of
// the next layer; the last layer drives design outputs.  Every wave has
// kWidth stages, so an edit upstream re-keys several stages of a later
// wave and the pool runs more than one miss.
Design layered_design(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.8, 1.2);
  std::uniform_int_distribution<int> sections(4, 6);
  std::uniform_int_distribution<int> column(0, kWidth - 1);
  std::bernoulli_distribution coin(0.5);
  Design d;
  for (int i = 0; i < kGates; ++i) {
    d.add_gate({timing::testutil::gate_name(i), 600.0 + 50.0 * i, 4e-15,
                2e-12});
  }
  for (int i = 0; i < kGates; ++i) {
    Net net;
    net.name = "n" + std::to_string(i);
    const int n = sections(rng);
    std::string prev = "DRV";
    for (int k = 1; k <= n; ++k) {
      std::string node = "x";
      node += std::to_string(k);
      net.parasitics.push_back(
          timing::testutil::r(prev, node, 80.0 * jitter(rng)));
      net.parasitics.push_back(timing::testutil::c(node, 6e-15 * jitter(rng)));
      prev = node;
    }
    if (i + kWidth < kGates) {
      net.sink_node[timing::testutil::gate_name(i + kWidth)] = prev;
      const int other = (i / kWidth + 1) * kWidth + column(rng);
      if (coin(rng)) net.sink_node[timing::testutil::gate_name(other)] = "x2";
    } else {
      net.sink_node["OUT" + std::to_string(i)] = prev;
    }
    d.add_net(timing::testutil::gate_name(i), net);
  }
  return d;
}

// Applies one seeded edit to both sessions; returns which kind it was.
// Values come from small ladders so the stream revisits stage content
// (hits through a rebuilt key), an undo restores the previous
// set_value, and remove_element only removes capacitors add_element
// appended, so every net stays a connected RC ladder.
struct EditStream {
  const Design& original;
  std::mt19937 rng;
  std::vector<std::size_t> added;  // capacitors appended, per net
  struct Undo {
    std::string net;
    std::size_t element = 0;
    double value = 0.0;
  };
  std::optional<Undo> undo;

  EditStream(std::uint32_t seed, const Design& design)
      : original(design), rng(seed), added(design.net_count(), 0) {}

  int apply(Session& a, Session& b) {
    std::uniform_int_distribution<int> kind(0, 6);
    std::uniform_int_distribution<std::size_t> net_pick(
        0, original.net_count() - 1);
    std::uniform_int_distribution<int> gate_pick(0, kGates - 1);
    std::uniform_int_distribution<int> level(1, 5);
    const int k = kind(rng);
    const std::size_t net = net_pick(rng);
    const std::string net_name = a.design().net_at(net).name;
    const std::string gate = timing::testutil::gate_name(gate_pick(rng));
    switch (k) {
      case 0:
      case 1: {
        if (k == 1 && undo) {
          a.set_value(undo->net, undo->element, undo->value);
          b.set_value(undo->net, undo->element, undo->value);
          undo.reset();
          return 1;
        }
        std::uniform_int_distribution<std::size_t> element(
            0, original.net_at(net).parasitics.size() - 1);
        const std::size_t e = element(rng);
        const double value =
            original.net_at(net).parasitics[e].value * 0.2 *
            (2 + level(rng));
        undo = Undo{net_name, e, a.design().net_at(net).parasitics[e].value};
        a.set_value(net_name, e, value);
        b.set_value(net_name, e, value);
        return 0;
      }
      case 2: {
        const double resistance = 150.0 * level(rng);
        a.set_drive_resistance(gate, resistance);
        b.set_drive_resistance(gate, resistance);
        return 2;
      }
      case 3: {
        const double cin = 1e-15 * level(rng);
        a.set_input_capacitance(gate, cin);
        b.set_input_capacitance(gate, cin);
        return 3;
      }
      case 4: {
        const double delay = 1e-12 * level(rng);
        a.set_intrinsic_delay(gate, delay);
        b.set_intrinsic_delay(gate, delay);
        return 4;
      }
      case 5:
      default: {
        if (k == 6 && added[net] > 0) {
          const std::size_t last = a.design().net_at(net).parasitics.size() - 1;
          a.remove_element(net_name, last);
          b.remove_element(net_name, last);
          --added[net];
          return 6;
        }
        const timing::NetElement cap = timing::testutil::c(
            "x" + std::to_string(level(rng) % 4 + 1), 2e-15 * level(rng));
        a.add_element(net_name, cap);
        b.add_element(net_name, cap);
        ++added[net];
        return 5;
      }
    }
  }
};

}  // namespace

TEST(WarmSession, EntryMemoMatchesTheKeyPathThroughEveryEdit) {
  constexpr int kSteps = 320;
  const Design design = layered_design(23u);
  for (const int threads : {1, 4}) {
    AnalysisOptions opt;
    opt.threads = threads;
    // Separate caches.  `memo` calls analyze(), serving unchanged stages
    // through their entry memos; `keyed` calls analyze(options()),
    // which rebuilds every key and so clears every memo first.
    Session memo(design, opt);
    Session keyed(design, opt);
    EditStream stream(2024u, design);
    std::vector<int> kinds(7, 0);
    std::uint64_t reused = 0;
    for (int step = 0; step <= kSteps; ++step) {
      const std::string what = "threads " + std::to_string(threads) +
                               " step " + std::to_string(step);
      SCOPED_TRACE(what);
      if (step > 0) ++kinds[stream.apply(memo, keyed)];
      const TimingReport a = memo.analyze();
      const TimingReport b = keyed.analyze(keyed.options());
      expect_bitwise(a, b, what);
      timing::testutil::expect_same_work_counters(a.awe_stats, b.awe_stats);
      timing::testutil::expect_same_cache_stats(memo, keyed);
      expect_bitwise(a, memo.design().analyze(opt), what + " vs cold");
      reused += a.awe_stats.stages_reused;
      ASSERT_FALSE(HasFailure()) << what;
    }
    for (int k = 0; k < 7; ++k) EXPECT_GT(kinds[k], 0) << "edit kind " << k;
    EXPECT_GT(reused, 0u);
  }
}

}  // namespace awesim
