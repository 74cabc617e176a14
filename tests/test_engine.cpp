// End-to-end AWE engine tests on analytically solvable circuits.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/lint.h"
#include "circuit/circuit.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "util/random_circuits.h"

namespace awesim {

using circuit::Circuit;
using circuit::kGround;
using circuit::Stimulus;
using core::Engine;
using core::EngineOptions;

namespace {

// Single RC: V -- R -- out -- C -- gnd.  Step v0 -> v1.
Circuit single_rc(double r, double c, double v0, double v1) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(v0, v1));
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, kGround, c);
  return ckt;
}

}  // namespace

TEST(Engine, SingleRcFirstOrderIsExact) {
  // One pole circuit: AWE q=1 must be *exact*: p = -1/RC, v = 5(1-e^-t/RC).
  Circuit ckt = single_rc(1e3, 1e-9, 0.0, 5.0);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 1;
  const auto result = engine.approximate(ckt.find_node("out"), opt);

  ASSERT_TRUE(result.stable);
  EXPECT_EQ(result.order_used, 1);
  const double tau = 1e3 * 1e-9;
  // Check the waveform against the analytic response at several times.
  for (double t : {0.0, 0.5 * tau, tau, 2.0 * tau, 5.0 * tau}) {
    const double exact = 5.0 * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(result.approximation.value(t), exact, 1e-9) << "t=" << t;
  }
  EXPECT_NEAR(result.approximation.final_value(), 5.0, 1e-9);
}

TEST(Engine, SingleRcPoleAndResidue) {
  Circuit ckt = single_rc(2e3, 3e-12, 0.0, 1.0);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 1;
  const auto result = engine.approximate(ckt.find_node("out"), opt);
  const auto& atoms = result.approximation.atoms();
  // Base pseudo-atom + the t=0 atom.
  ASSERT_EQ(atoms.size(), 2u);
  ASSERT_EQ(atoms[1].terms.size(), 1u);
  const double tau = 2e3 * 3e-12;
  EXPECT_NEAR(atoms[1].terms[0].pole.real(), -1.0 / tau, 1e-3 / tau);
  EXPECT_NEAR(atoms[1].terms[0].pole.imag(), 0.0, 1e-9 / tau);
  EXPECT_NEAR(atoms[1].terms[0].residue.real(), -1.0, 1e-9);
}

TEST(Engine, FallingStepWorks) {
  Circuit ckt = single_rc(1e3, 1e-9, 5.0, 0.0);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 1;
  const auto result = engine.approximate(ckt.find_node("out"), opt);
  const double tau = 1e-6;
  EXPECT_NEAR(result.approximation.value(0.0), 5.0, 1e-9);
  EXPECT_NEAR(result.approximation.value(tau), 5.0 * std::exp(-1.0), 1e-6);
  EXPECT_NEAR(result.approximation.final_value(), 0.0, 1e-9);
}

TEST(Engine, ElmoreDelayMatchesHandComputation) {
  // Fig. 4 tree designed so T_D(n4) = 0.6 ms (eq. 50 by hand).
  auto ckt = circuits::fig4_rc_tree();
  Engine engine(ckt);
  EXPECT_NEAR(engine.elmore_delay(ckt.find_node("n4")), 0.6e-3, 1e-9);
  // And at n2: R1*(C1+..+C4) + R2*C2 = 1k*300n + 1k*50n = 0.35 ms.
  EXPECT_NEAR(engine.elmore_delay(ckt.find_node("n2")), 0.35e-3, 1e-9);
}

TEST(Engine, FirstOrderPoleIsReciprocalElmoreOnRcTree) {
  // The paper's Section IV claim: q=1 AWE == Elmore methods.
  auto ckt = circuits::fig4_rc_tree();
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 1;
  const auto result = engine.approximate(ckt.find_node("n4"), opt);
  const auto& terms = result.approximation.atoms()[1].terms;
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_NEAR(terms[0].pole.real(), -1.0 / 0.6e-3, 1.0);
  EXPECT_NEAR(terms[0].residue.real(), -5.0, 1e-6);
}

TEST(Engine, SecondOrderMatchesFirstFourMoments) {
  auto ckt = circuits::fig4_rc_tree();
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;
  const auto result = engine.approximate(ckt.find_node("n4"), opt);
  ASSERT_TRUE(result.stable);
  EXPECT_EQ(result.order_used, 2);
  const auto& match = result.approximation.atoms()[1].match;
  EXPECT_LT(match.moment_residual, 1e-9);
}

TEST(Engine, FinalValueExactWithGroundedResistor) {
  // Fig. 9: steady state is a resistive divider: 5 * 4k/(3k+4k) at n4
  // (path R1+R3+R4 = 3k against R5 = 4k).
  auto ckt = circuits::fig9_grounded_resistor();
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;
  const auto result = engine.approximate(ckt.find_node("n4"), opt);
  EXPECT_NEAR(result.approximation.final_value(), 5.0 * 4.0 / 7.0, 1e-9);
}

TEST(Engine, ErrorEstimateDecreasesWithOrder) {
  auto ckt = circuits::fig16_mos_interconnect();
  Engine engine(ckt);
  double last = 1e9;
  for (int q = 1; q <= 3; ++q) {
    EngineOptions opt;
    opt.order = q;
    const auto result = engine.approximate(ckt.find_node("n7"), opt);
    if (q > 1) {
      EXPECT_LT(result.error_estimate, last) << "q=" << q;
    }
    last = result.error_estimate;
  }
  EXPECT_LT(last, 0.02);  // third order is plenty for this tree
}

TEST(Engine, AutoOrderEscalatesUntilTolerance) {
  auto ckt = circuits::fig25_rlc_ladder();
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 1;
  opt.auto_order = true;
  opt.error_tolerance = 0.01;
  opt.max_order = 6;
  const auto result = engine.approximate(ckt.find_node("n3"), opt);
  EXPECT_TRUE(result.stable);
  // The underdamped ladder needs at least 4 poles (the paper's Fig. 26).
  EXPECT_GE(result.order_used, 4);
  EXPECT_LE(result.error_estimate, 0.01);
}

TEST(Engine, ActualPolesOfSingleRc) {
  Circuit ckt = single_rc(1e3, 1e-9, 0.0, 5.0);
  Engine engine(ckt);
  const auto poles = engine.actual_poles();
  ASSERT_EQ(poles.size(), 1u);
  EXPECT_NEAR(poles[0].real(), -1e6, 1.0);
}

TEST(Engine, ActualPolesOfRlcSeries) {
  // Series RLC: R=2, L=1, C=0.25 -> s^2 + 2s + 4 -> -1 +- sqrt(3) i.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 1.0));
  ckt.add_resistor("R1", in, mid, 2.0);
  ckt.add_inductor("L1", mid, out, 1.0);
  ckt.add_capacitor("C1", out, kGround, 0.25);
  Engine engine(ckt);
  auto poles = engine.actual_poles();
  ASSERT_EQ(poles.size(), 2u);
  for (const auto& p : poles) {
    EXPECT_NEAR(p.real(), -1.0, 1e-8);
    EXPECT_NEAR(std::abs(p.imag()), std::sqrt(3.0), 1e-8);
  }
}

TEST(Engine, RlcSecondOrderIsExactOnTwoPoleCircuit) {
  // Series RLC has exactly 2 poles; AWE q=2 must nail them.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 1.0));
  ckt.add_resistor("R1", in, mid, 2.0);
  ckt.add_inductor("L1", mid, out, 1.0);
  ckt.add_capacitor("C1", out, kGround, 0.25);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;
  const auto result = engine.approximate(ckt.find_node("out"), opt);
  const auto& terms = result.approximation.atoms()[1].terms;
  ASSERT_EQ(terms.size(), 2u);
  for (const auto& t : terms) {
    EXPECT_NEAR(t.pole.real(), -1.0, 1e-6);
    EXPECT_NEAR(std::abs(t.pole.imag()), std::sqrt(3.0), 1e-6);
  }
}

TEST(Engine, RequestingTooHighOrderDegradesGracefully) {
  // Single-pole circuit, q=3 requested: the Hankel matrix is rank 1, so
  // the match must come back at order 1 and still be exact.
  Circuit ckt = single_rc(1e3, 1e-9, 0.0, 5.0);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 3;
  const auto result = engine.approximate(ckt.find_node("out"), opt);
  EXPECT_EQ(result.order_used, 1);
  const double tau = 1e-6;
  EXPECT_NEAR(result.approximation.value(tau), 5.0 * (1.0 - std::exp(-1.0)),
              1e-6);
}

TEST(Engine, DcOnlyCircuitHasConstantResponse) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::dc(3.0));
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C1", out, kGround, 1e-9);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;
  const auto result = engine.approximate(ckt.find_node("out"), opt);
  EXPECT_NEAR(result.approximation.value(0.0), 3.0, 1e-12);
  EXPECT_NEAR(result.approximation.value(1.0), 3.0, 1e-12);
}

TEST(Engine, ChargeSharingBetweenCapacitors) {
  // Two caps joined by a resistor, no source: C1 at 4 V dumps into C2 at
  // 0 V.  Final value = Q/(C1+C2) = 4*1n/3n.  Needs the gmin fallback
  // because G alone is singular (no DC path to ground).
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add_resistor("R1", a, b, 1e3);
  ckt.add_capacitor("C1", a, kGround, 1e-9, 4.0);
  ckt.add_capacitor("C2", b, kGround, 2e-9);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;
  const auto result = engine.approximate(b, opt);
  EXPECT_TRUE(result.used_gmin);
  // Equalization tau = R * (C1*C2)/(C1+C2) = 1e3 * 2/3 n = 0.667 us.
  const double expected_final = 4.0 / 3.0;
  EXPECT_NEAR(result.approximation.value(20e-6), expected_final, 1e-3);
  EXPECT_NEAR(result.approximation.value(0.0), 0.0, 1e-6);
}

TEST(Engine, ThrowsOnGroundProbe) {
  Circuit ckt = single_rc(1.0, 1.0, 0.0, 1.0);
  Engine engine(ckt);
  EngineOptions opt;
  EXPECT_THROW(engine.approximate(kGround, opt), std::invalid_argument);
}

TEST(Engine, ThrowsOnBadOrder) {
  Circuit ckt = single_rc(1.0, 1.0, 0.0, 1.0);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 0;
  EXPECT_THROW(engine.approximate(ckt.find_node("out"), opt),
               std::invalid_argument);
}


TEST(Engine, SettlingAreaEqualsMinusElmoreTimesSwing) {
  // For a step response, int (v - v_final) dt = -V * T_D exactly
  // (the Elmore delay is the first moment).
  auto ckt = circuits::fig4_rc_tree();
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;
  const auto result = engine.approximate(ckt.find_node("n4"), opt);
  const double elmore = engine.elmore_delay(ckt.find_node("n4"));
  EXPECT_NEAR(result.approximation.settling_area(), -5.0 * elmore,
              1e-9 * 5.0 * elmore);
}

TEST(Engine, SettlingAreaWithRampInput) {
  // Finite rise time: the area deficit grows by half the rise time
  // (the centroid of the two-ramp input shifts by rise/2).
  circuits::Drive drive;
  drive.rise_time = 1e-3;
  auto ckt = circuits::fig4_rc_tree(drive);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;
  const auto result = engine.approximate(ckt.find_node("n4"), opt);
  const double elmore = 0.6e-3;
  EXPECT_NEAR(result.approximation.settling_area(),
              -5.0 * (elmore + 0.5e-3), 1e-6);
}

TEST(Engine, SettlingAreaIsChargeConservationExact) {
  // C1 (charged to 4 V) equalizes into C2 and then everything leaks out
  // through R_leak at node b.  Every coulomb of the initial charge
  // Q0 = 4V * 1nF exits through R_leak, so int v_b dt = R_leak * Q0
  // exactly -- and settling_area() is closed-form exact by m_0 matching.
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add_resistor("R1", a, b, 1e3);
  ckt.add_capacitor("C1", a, kGround, 1e-9, 4.0);
  ckt.add_capacitor("C2", b, kGround, 2e-9);
  ckt.add_resistor("Rleak", b, kGround, 1e6);
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 2;  // two modes: equalization + leak
  const auto result = engine.approximate(b, opt);
  EXPECT_FALSE(result.used_gmin);
  const double expected = 1e6 * 4.0 * 1e-9;
  EXPECT_NEAR(result.approximation.settling_area(), expected,
              1e-6 * expected);
}

// ---------------------------------------------------------------------
// Consistent-by-construction atoms: ramp atoms skip the sigma-limit.

namespace {

/// Every atom of `ckt` is flagged consistent, and the sigma-limit agrees:
/// no unknown of any atom jumps at its start.
void expect_consistent_atoms_never_jump(const Circuit& ckt,
                                        const std::string& what) {
  Engine engine(ckt);
  ASSERT_GE(engine.atom_count(), 1u) << what;
  for (std::size_t a = 0; a < engine.atom_count(); ++a) {
    EXPECT_TRUE(engine.atom_consistent(a)) << what << " atom " << a;
    core::MomentSequence& moments = engine.atom_moments(a);
    for (std::size_t i = 0; i < engine.system().dim(); ++i) {
      EXPECT_FALSE(moments.has_jump(i))
          << what << " atom " << a << " unknown " << i;
    }
  }
}

}  // namespace

TEST(EngineJump, ConsistentRampAtomsNeverJumpOnRandomCircuits) {
  using namespace timing::testutil;
  const Stimulus ramp = Stimulus::ramp_step(0.0, 1.0, 50e-12);
  const Stimulus pwl =
      Stimulus::pwl({{0.0, 0.0}, {20e-12, 0.4}, {70e-12, 1.0}, {1e-9, 0.2}});
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const std::string tag = " seed " + std::to_string(seed);
    const StageDesign line = rc_line_design(seed, 12);
    const StageDesign tree = rc_tree_design(seed, 20);
    const StageDesign mesh = rc_mesh_design(seed, 12, 4);
    expect_consistent_atoms_never_jump(timing::testutil::stage_circuit(line, ramp),
                                       "line" + tag);
    expect_consistent_atoms_never_jump(timing::testutil::stage_circuit(tree, ramp),
                                       "tree" + tag);
    expect_consistent_atoms_never_jump(timing::testutil::stage_circuit(mesh, pwl),
                                       "mesh pwl" + tag);
    expect_consistent_atoms_never_jump(timing::testutil::stage_circuit(line, ramp, true),
                                       "rlc line" + tag);
    expect_consistent_atoms_never_jump(timing::testutil::stage_circuit(mesh, pwl, true),
                                       "rlc mesh pwl" + tag);
  }
  // The paper's floating coupling capacitor (Fig. 22) under a finite
  // rise time.
  circuits::Drive drive;
  drive.rise_time = 0.1e-9;
  expect_consistent_atoms_never_jump(circuits::fig22_floating_cap(drive),
                                     "fig22");
  // The Fig. 25 RLC ladder is flagged too.  Here the sigma-limit is no
  // reference: at the capacitor-free nodes between its R and L elements
  // (a, b2, b3) the walk settles on values far from x_h0 although those
  // voltages are continuous (v_a = v_in - R1 i_L1), so the old path
  // substituted a wrong mu_{-1} there.
  const Circuit ladder = circuits::fig25_rlc_ladder(drive);
  Engine fig25(ladder);
  ASSERT_EQ(fig25.atom_count(), 2u);
  EXPECT_TRUE(fig25.atom_consistent(0));
  EXPECT_TRUE(fig25.atom_consistent(1));
}

TEST(EngineJump, ConsistentRampStageFactorsOnlyG) {
  const Circuit ckt = timing::testutil::stage_circuit(
      timing::testutil::rc_tree_design(3, 30),
      Stimulus::ramp_step(0.0, 1.0, 50e-12));
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = 3;
  engine.approximate(ckt.find_node("DRV"), opt);
  EXPECT_EQ(engine.stats().factorizations, 1u);
}

TEST(EngineJump, StepIcAndLoopAtomsKeepTheSigmaWalk) {
  EngineOptions opt;
  opt.order = 2;
  auto expect_sigma_walk = [&](const Circuit& ckt, const std::string& probe,
                               const std::string& what) {
    Engine engine(ckt);
    ASSERT_GE(engine.atom_count(), 1u) << what;
    EXPECT_FALSE(engine.atom_consistent(0)) << what;
    engine.approximate(ckt.find_node(probe), opt);
    // G once, plus the shifted (G + sigma C) factors of the walk.
    EXPECT_GT(engine.stats().factorizations, 1u) << what;
  };

  // An ideal step jumps by construction.
  expect_sigma_walk(single_rc(1e3, 1e-9, 0.0, 5.0), "out", "step");

  // A ramp on a capacitor held off equilibrium by an initial condition.
  Circuit ic = single_rc(1e3, 1e-9, 0.0, 0.0);
  ic.add_capacitor("C2", ic.find_node("out"), kGround, 1e-9, 2.0);
  expect_sigma_walk(ic, "out", "ic");
  {
    Circuit ramp_ic;
    const auto in = ramp_ic.node("in");
    const auto out = ramp_ic.node("out");
    ramp_ic.add_vsource("V1", in, kGround,
                        Stimulus::ramp_step(0.0, 1.0, 1e-6));
    ramp_ic.add_resistor("R1", in, out, 1e3);
    ramp_ic.add_capacitor("C1", out, kGround, 1e-9, 0.5);
    expect_sigma_walk(ramp_ic, "out", "ramp + ic");
  }

  // A ramp across a capacitor/voltage-source loop: the loop current
  // jumps to C dV/dt at t = 0+.
  {
    Circuit loop;
    const auto in = loop.node("in");
    const auto out = loop.node("out");
    loop.add_vsource("V1", in, kGround, Stimulus::ramp_step(0.0, 1.0, 1e-6));
    loop.add_capacitor("Cloop", in, kGround, 1e-9);
    loop.add_resistor("R1", in, out, 1e3);
    loop.add_capacitor("C1", out, kGround, 1e-9);
    EXPECT_FALSE(check::index_one_structure(loop));
    expect_sigma_walk(loop, "out", "capacitor/V-source loop");
  }
}

TEST(EngineJump, IndexOneStructureRules) {
  const Stimulus ramp = Stimulus::ramp_step(0.0, 1.0, 1e-6);
  Circuit rc;
  const auto in = rc.node("in");
  const auto out = rc.node("out");
  rc.add_vsource("V1", in, kGround, ramp);
  rc.add_resistor("R1", in, out, 1e3);
  rc.add_capacitor("C1", out, kGround, 1e-9);
  EXPECT_TRUE(check::index_one_structure(rc));

  // A floating capacitor into a resistively grounded node closes no
  // loop with the source ...
  Circuit coupled = rc;
  const auto x = coupled.node("x");
  coupled.add_capacitor("Cx", out, x, 1e-12);
  coupled.add_resistor("Rx", x, kGround, 1e3);
  EXPECT_TRUE(check::index_one_structure(coupled));
  // ... but a capacitor across the source does, and so does a
  // capacitive divider fed straight from it.
  Circuit across = rc;
  across.add_capacitor("C3", in, kGround, 1e-12);
  EXPECT_FALSE(check::index_one_structure(across));
  Circuit divider = rc;
  divider.add_capacitor("C2", in, out, 1e-12);
  EXPECT_FALSE(check::index_one_structure(divider));

  // A current source feeding an inductor-only cutset.
  Circuit li;
  const auto a = li.node("a");
  const auto b = li.node("b");
  li.add_isource("I1", kGround, a, ramp);
  li.add_inductor("L1", a, b, 1e-9);
  li.add_resistor("R1", b, kGround, 1e3);
  EXPECT_FALSE(check::index_one_structure(li));
  Circuit li_shunted = li;
  li_shunted.add_resistor("R2", a, kGround, 1e3);
  EXPECT_TRUE(check::index_one_structure(li_shunted));

  // Controlled sources are never taken on trust.
  Circuit vcvs = rc;
  vcvs.add_vcvs("E1", vcvs.node("buf"), kGround, out, kGround, 2.0);
  vcvs.add_resistor("R2", vcvs.find_node("buf"), kGround, 1e3);
  EXPECT_FALSE(check::index_one_structure(vcvs));
}

}  // namespace awesim
