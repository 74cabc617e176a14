// Property-based suites over randomly generated RC trees (deterministic
// seeds): the structural invariants AWE promises, checked wholesale.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "core/moments.h"
#include "rctree/rctree.h"
#include "sim/transient.h"
#include "util/random_circuits.h"

namespace awesim {

using circuit::Stimulus;
using core::Engine;
using core::EngineOptions;

class RandomTreeProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  rctree::RcTree tree_ = rctree::random_tree(18, GetParam());
  circuit::Circuit ckt_ =
      rctree::to_circuit(tree_, Stimulus::step(0.0, 5.0));

  // Index of some deep node (largest Elmore delay) in the tree.
  std::size_t deep_node() const {
    const auto d = rctree::elmore_delays(tree_);
    return static_cast<std::size_t>(
        std::max_element(d.begin(), d.end()) - d.begin());
  }

  circuit::NodeId circuit_node(std::size_t tree_idx) const {
    return ckt_.find_node("n" + std::to_string(tree_idx));
  }
};

TEST_P(RandomTreeProperty, TreeWalkElmoreEqualsMnaMoment) {
  // The O(n) tree walk and the full MNA moment recursion must agree: the
  // paper's Section 4.1 equivalence.
  Engine engine(ckt_);
  const auto tree_elmore = rctree::elmore_delays(tree_);
  for (std::size_t v = 1; v < tree_.size(); ++v) {
    const double mna_elmore = engine.elmore_delay(circuit_node(v));
    EXPECT_NEAR(mna_elmore, tree_elmore[v],
                1e-9 * std::max(tree_elmore[v], 1e-15))
        << "node " << v;
  }
}

TEST_P(RandomTreeProperty, TreeWalkMomentsEqualMnaMoments) {
  // Higher moments too, orders 1..4, at every node.
  mna::MnaSystem mna(ckt_);
  const auto walk = rctree::transfer_moments(tree_, 5);
  // Build the step-response homogeneous vector: xh0 = -5 at all nodes.
  la::RealVector xh0(mna.dim(), 0.0);
  const auto ss = mna.solve(mna.rhs_at(1.0));
  for (std::size_t i = 0; i < xh0.size(); ++i) xh0[i] = -ss[i];
  core::MomentSequence seq(mna, xh0);
  for (std::size_t v = 1; v < tree_.size(); ++v) {
    const auto out = mna.node_index(circuit_node(v));
    for (int j = 0; j <= 3; ++j) {
      // mu_j = 5 * m_{j+1} (source amplitude times transfer moment).
      const double expected = 5.0 * walk[static_cast<std::size_t>(j) + 1][v];
      const double got = seq.mu(j, out);
      EXPECT_NEAR(got, expected,
                  1e-9 * std::max(std::abs(expected), 1e-30))
          << "node " << v << " j " << j;
    }
  }
}

TEST_P(RandomTreeProperty, FirstOrderAwePoleIsReciprocalElmore) {
  Engine engine(ckt_);
  const std::size_t v = deep_node();
  EngineOptions opt;
  opt.order = 1;
  const auto result = engine.approximate(circuit_node(v), opt);
  const auto& terms = result.approximation.atoms()[1].terms;
  ASSERT_EQ(terms.size(), 1u);
  const double elmore = rctree::elmore_delays(tree_)[v];
  EXPECT_NEAR(terms[0].pole.real(), -1.0 / elmore, 1e-6 / elmore);
  EXPECT_NEAR(terms[0].pole.imag(), 0.0, 1e-9 / elmore);
  EXPECT_NEAR(terms[0].residue.real(), -5.0, 1e-6);
}

TEST_P(RandomTreeProperty, FinalValueIsExact) {
  // m_0 matching forces the exact final value (paper Section 3.3).
  Engine engine(ckt_);
  for (int q : {1, 2, 3}) {
    EngineOptions opt;
    opt.order = q;
    const auto result =
        engine.approximate(circuit_node(deep_node()), opt);
    EXPECT_NEAR(result.approximation.final_value(), 5.0, 1e-7)
        << "q=" << q;
  }
}

TEST_P(RandomTreeProperty, MatchedMomentsReproduced) {
  Engine engine(ckt_);
  for (int q : {1, 2, 3}) {
    EngineOptions opt;
    opt.order = q;
    const auto result =
        engine.approximate(circuit_node(deep_node()), opt);
    EXPECT_LT(result.approximation.atoms()[1].match.moment_residual, 1e-6)
        << "q=" << q;
  }
}

TEST_P(RandomTreeProperty, StableRealPolesOnRcTrees) {
  // RC circuits have real negative natural frequencies; the matched
  // models on these trees must come out stable.
  Engine engine(ckt_);
  for (int q : {1, 2, 3}) {
    EngineOptions opt;
    opt.order = q;
    const auto result =
        engine.approximate(circuit_node(deep_node()), opt);
    EXPECT_TRUE(result.stable) << "q=" << q;
    for (const auto& t : result.approximation.atoms()[1].terms) {
      EXPECT_LT(t.pole.real(), 0.0);
    }
  }
}

TEST_P(RandomTreeProperty, PoleCreepTowardActualDominant) {
  // Section 5.1: as q grows, the dominant approximate pole converges to
  // the true dominant pole (monotone improvement not guaranteed, but by
  // q=3 it must be within 1%).
  Engine engine(ckt_);
  const auto actual = engine.actual_poles();
  ASSERT_FALSE(actual.empty());
  const double dominant = actual.front().real();
  EngineOptions opt;
  opt.order = 3;
  const auto result = engine.approximate(circuit_node(deep_node()), opt);
  double best = 1e300;
  for (const auto& t : result.approximation.atoms()[1].terms) {
    best = std::min(best, std::abs(t.pole.real() - dominant));
  }
  EXPECT_LT(best, 0.01 * std::abs(dominant));
}

TEST_P(RandomTreeProperty, DelayBoundsBracketSimulatedDelay) {
  const std::size_t v = deep_node();
  const auto bounds = rctree::delay_bounds(tree_, v, 0.5);
  sim::TransientSimulator sim(ckt_);
  const double elmore = rctree::elmore_delays(tree_)[v];
  const auto wave =
      sim.run_adaptive({circuit_node(v)}, 10.0 * elmore);
  const auto d = wave.first_crossing(2.5);
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(bounds.lower, *d * 1.0000001);
  EXPECT_GE(bounds.upper, *d * 0.9999999);
}

TEST_P(RandomTreeProperty, SecondOrderBeatsFirstOrderVsSimulator) {
  const std::size_t v = deep_node();
  const double elmore = rctree::elmore_delays(tree_)[v];
  sim::TransientSimulator sim(ckt_);
  const auto ref = sim.run_adaptive({circuit_node(v)}, 8.0 * elmore);
  Engine engine(ckt_);
  double err[3];
  for (int q : {1, 2}) {
    EngineOptions opt;
    opt.order = q;
    const auto result = engine.approximate(circuit_node(v), opt);
    const auto wave =
        result.approximation.sample(0.0, 8.0 * elmore, 1501);
    err[q] = wave.relative_error_vs(ref);
  }
  EXPECT_LT(err[2], err[1] * 1.05);  // allow ties on near-1-pole trees
  EXPECT_LT(err[2], 0.05);
}


// Large-circuit sanity: the sparse factorization path produces the same
// answers as the dense one (same Elmore, same AWE poles).
TEST(SparsePath, LargeRcLineMatchesDenseResults) {
  auto big = circuits::rc_line(300, 300e3, 300e-12);  // above threshold
  const auto out = big.find_node("n300");
  mna::Options dense_opt;
  dense_opt.sparse_threshold = 100000;  // force dense
  mna::Options sparse_opt;
  sparse_opt.sparse_threshold = 1;  // force sparse

  Engine e_dense(big, dense_opt);
  Engine e_sparse(big, sparse_opt);
  EXPECT_TRUE(e_sparse.system().uses_sparse());
  EXPECT_FALSE(e_dense.system().uses_sparse());
  EXPECT_NEAR(e_dense.elmore_delay(out), e_sparse.elmore_delay(out),
              1e-9 * e_dense.elmore_delay(out));

  EngineOptions opt;
  opt.order = 3;
  const auto rd = e_dense.approximate(out, opt);
  const auto rs = e_sparse.approximate(out, opt);
  ASSERT_EQ(rd.approximation.atoms()[1].terms.size(),
            rs.approximation.atoms()[1].terms.size());
  for (std::size_t i = 0; i < rd.approximation.atoms()[1].terms.size();
       ++i) {
    const auto& td = rd.approximation.atoms()[1].terms[i];
    const auto& ts = rs.approximation.atoms()[1].terms[i];
    EXPECT_NEAR(std::abs(td.pole - ts.pole), 0.0,
                1e-6 * std::abs(td.pole));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Seeded design-generator determinism: the shared test-utility circuit
// families (tests/util/random_circuits.*) must be reproducible in the
// seed, and analysis over them bit-identical at any thread count -- the
// warm-vs-cold tier (test_warm_session.cpp) leans on both.
TEST(RandomCircuits, SeededGeneratorsAndAnalysisAreDeterministic) {
  for (std::uint32_t seed : {1u, 7u, 42u}) {
    timing::testutil::StageDesign a = timing::testutil::rc_tree_design(seed, 24);
    timing::testutil::StageDesign b = timing::testutil::rc_tree_design(seed, 24);
    ASSERT_EQ(a.resistor_indices, b.resistor_indices);
    ASSERT_EQ(a.resistor_values, b.resistor_values);
    timing::AnalysisOptions opt;
    opt.threads = 1;
    const timing::TimingReport ra = a.design.analyze(opt);
    opt.threads = 4;
    const timing::TimingReport rb = b.design.analyze(opt);
    timing::testutil::expect_same_payload(ra, rb);
  }
}

}  // namespace awesim
