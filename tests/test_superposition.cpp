// Section 4.3's superposition, carried by the engine itself: a
// stimulus decomposes into step/ramp atoms, and an atom that negates an
// earlier one (a ramp's slope-off at t_r) reuses that atom's response.
// These tests pin the engine's answers to the closed forms and to
// explicit sums of shifted unit-ramp responses.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "circuits/paper_circuits.h"
#include "core/engine.h"

namespace awesim::core {

using circuit::Circuit;
using circuit::kGround;
using circuit::Stimulus;

namespace {

Circuit single_rc(double r, double c, const Stimulus& stimulus) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, stimulus);
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, kGround, c);
  return ckt;
}

// A unit ramp (1 V/s) that stays a ramp for a second: far beyond every
// horizon below, so over them it is the unbounded unit ramp.
const Stimulus kUnitRamp = Stimulus::pwl({{0.0, 0.0}, {1.0, 1.0}});

Result approximate(const Circuit& ckt, const char* node, int order) {
  Engine engine(ckt);
  EngineOptions opt;
  opt.order = order;
  return engine.approximate(ckt.find_node(node), opt);
}

}  // namespace

TEST(Superposition, SingleRcStepIsExact) {
  const Result r =
      approximate(single_rc(1e3, 1e-9, Stimulus::step(0.0, 1.0)), "out", 1);
  EXPECT_TRUE(r.stable);
  EXPECT_EQ(r.order_used, 1);
  EXPECT_NEAR(r.approximation.final_value(), 1.0, 1e-12);
  const double tau = 1e-6;
  for (double t : {0.0, 0.3 * tau, tau, 4.0 * tau}) {
    EXPECT_NEAR(r.approximation.value(t), 1.0 - std::exp(-t / tau), 1e-9);
  }
  EXPECT_EQ(r.approximation.value(-1.0), 0.0);
}

TEST(Superposition, RampResponseIsIntegralOfStepResponse) {
  const Result step =
      approximate(single_rc(1e3, 1e-9, Stimulus::step(0.0, 1.0)), "out", 2);
  const Result ramp = approximate(single_rc(1e3, 1e-9, kUnitRamp), "out", 2);
  // Trapezoidal integral of the unit-step response vs the engine's own
  // unit-ramp response.
  const double t_end = 3e-6;
  const int n = 20000;
  double acc = 0.0;
  double prev = step.approximation.value(0.0);
  for (int i = 1; i <= n; ++i) {
    const double t = t_end * i / n;
    const double cur = step.approximation.value(t);
    acc += 0.5 * (prev + cur) * (t_end / n);
    prev = cur;
    if (i % 4000 == 0) {
      EXPECT_NEAR(ramp.approximation.value(t), acc,
                  1e-4 * std::max(acc, 1e-12))
          << "t=" << t;
    }
  }
}

TEST(Superposition, FiniteRiseIsOneRampResponseAndItsMirror) {
  // A 1 ns rise is the unit-ramp response scaled by the slope, minus its
  // copy delayed by t_r -- and the engine builds it that way: the t_r
  // atom mirrors the t = 0 atom, its terms the negated source terms.
  const double rise = 1e-9;
  const Circuit ckt = circuits::fig16_mos_interconnect({0.0, 5.0, rise});
  Engine engine(ckt);
  ASSERT_EQ(engine.atom_count(), 2u);
  EXPECT_EQ(engine.atom_mirror(1), std::optional<std::size_t>(0));
  EngineOptions opt;
  opt.order = 3;
  const Result full = engine.approximate(ckt.find_node("n7"), opt);
  const auto& atoms = full.approximation.atoms();
  ASSERT_EQ(atoms.size(), 3u);  // operating point, t = 0, t = t_r
  ASSERT_EQ(atoms[2].terms.size(), atoms[1].terms.size());
  for (std::size_t k = 0; k < atoms[1].terms.size(); ++k) {
    EXPECT_EQ(atoms[2].terms[k].pole, atoms[1].terms[k].pole);
    EXPECT_EQ(atoms[2].terms[k].residue, -atoms[1].terms[k].residue);
  }

  const Result unit = approximate(
      circuits::fig16_mos_interconnect({0.0, 1.0, 1.0}), "n7", 3);
  const double slope = 5.0 / rise;
  auto r = [&](double t) {
    return t < 0.0 ? 0.0 : unit.approximation.value(t);
  };
  for (double t : {0.2e-9, 0.5e-9, 1.0e-9, 2e-9, 5e-9}) {
    EXPECT_NEAR(slope * (r(t) - r(t - rise)), full.approximation.value(t),
                5e-3)
        << "t=" << t;
  }
}

TEST(Superposition, RiseTimeSweepOrdersBySpeed) {
  // Responses for different rise times all settle to the same final
  // value and order by speed.
  const double t_obs = 1.0e-3;
  double prev = 1e300;
  for (double rise : {0.1e-3, 0.5e-3, 1.5e-3}) {
    const Circuit ckt = circuits::fig4_rc_tree({0.0, 5.0, rise});
    Engine engine(ckt);
    ASSERT_EQ(engine.atom_count(), 2u);
    EXPECT_EQ(engine.atom_mirror(1), std::optional<std::size_t>(0));
    EngineOptions opt;
    opt.order = 2;
    const Result res = engine.approximate(ckt.find_node("n4"), opt);
    const double v = res.approximation.value(t_obs);
    EXPECT_LT(v, prev);  // slower input -> lower value at fixed time
    prev = v;
    EXPECT_NEAR(res.approximation.value(50e-3), 5.0, 1e-6);
  }
}

TEST(Superposition, CurrentSourceStepIntoRc) {
  // I source into an RC: transimpedance R at DC; tau = RC.
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_isource("I1", kGround, a, Stimulus::step(0.0, 1e-3));
  ckt.add_resistor("R1", a, kGround, 2e3);
  ckt.add_capacitor("C1", a, kGround, 1e-9);
  const Result r = approximate(ckt, "a", 1);
  EXPECT_NEAR(r.approximation.final_value(), 2.0, 1e-12);
  const double tau = 2e3 * 1e-9;
  EXPECT_NEAR(r.approximation.value(tau), 2.0 * (1.0 - std::exp(-1.0)),
              1e-9);
}

TEST(Superposition, PwlTrainIsShiftedRampResponses) {
  // A two-pulse train: the engine's answer is the sum of the unit-ramp
  // response shifted to each breakpoint and scaled by its slope change.
  const std::vector<std::pair<double, double>> points = {
      {0.0, 0.0}, {1e-6, 1.0}, {2e-6, 1.0}, {3e-6, 0.0}, {5e-6, 0.8}};
  const Result full =
      approximate(single_rc(1e3, 1e-9, Stimulus::pwl(points)), "out", 1);
  const Result unit = approximate(single_rc(1e3, 1e-9, kUnitRamp), "out", 1);
  auto r = [&](double t) {
    return t < 0.0 ? 0.0 : unit.approximation.value(t);
  };
  for (double t : {0.5e-6, 1.5e-6, 2.5e-6, 4e-6, 6e-6, 10e-6}) {
    double want = 0.0;
    double slope = 0.0;
    for (std::size_t k = 0; k < points.size(); ++k) {
      const double next =
          k + 1 < points.size()
              ? (points[k + 1].second - points[k].second) /
                    (points[k + 1].first - points[k].first)
              : 0.0;
      want += (next - slope) * r(t - points[k].first);
      slope = next;
    }
    EXPECT_NEAR(want, full.approximation.value(t), 1e-6) << "t=" << t;
  }
}

}  // namespace awesim::core
