// Circuit model and stimulus descriptions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

#include "circuit/circuit.h"

namespace awesim::circuit {

TEST(Stimulus, DcIsFlat) {
  const auto s = Stimulus::dc(3.3);
  EXPECT_EQ(s.value(-1.0), 3.3);
  EXPECT_EQ(s.value(100.0), 3.3);
  EXPECT_EQ(s.slope_after(0.0), 0.0);
  EXPECT_FALSE(s.has_unbounded_ramp());
  EXPECT_EQ(s.final_value(), 3.3);
}

TEST(Stimulus, StepJumpsAtDelay) {
  const auto s = Stimulus::step(1.0, 5.0, 2.0);
  EXPECT_EQ(s.value(1.999), 1.0);
  EXPECT_EQ(s.value(2.0), 5.0);
  EXPECT_EQ(s.final_value(), 5.0);
  EXPECT_EQ(s.last_breakpoint(), 2.0);
}

TEST(Stimulus, RampStepIsPiecewiseLinear) {
  const auto s = Stimulus::ramp_step(0.0, 4.0, 2.0, 1.0);
  EXPECT_EQ(s.value(0.5), 0.0);
  EXPECT_NEAR(s.value(2.0), 2.0, 1e-12);  // halfway up
  EXPECT_NEAR(s.value(3.0), 4.0, 1e-12);
  EXPECT_NEAR(s.value(10.0), 4.0, 1e-12);
  EXPECT_EQ(s.slope_after(1.5), 2.0);
  EXPECT_EQ(s.slope_after(4.0), 0.0);
}

TEST(Stimulus, RampStepZeroRiseIsStep) {
  const auto s = Stimulus::ramp_step(0.0, 4.0, 0.0);
  EXPECT_EQ(s.value(0.0), 4.0);
  EXPECT_EQ(s.value(-0.1), 0.0);
}

TEST(Stimulus, PwlInterpolatesAndClamps) {
  const auto s = Stimulus::pwl({{0.0, 0.0}, {1.0, 2.0}, {2.0, -1.0}});
  EXPECT_NEAR(s.value(0.5), 1.0, 1e-12);
  EXPECT_NEAR(s.value(1.5), 0.5, 1e-12);
  EXPECT_NEAR(s.value(5.0), -1.0, 1e-12);
  EXPECT_EQ(s.value(-1.0), 0.0);
  EXPECT_FALSE(s.has_unbounded_ramp());
  EXPECT_NEAR(s.final_value(), -1.0, 1e-12);
}

TEST(Stimulus, PwlRejectsNonIncreasingTimes) {
  EXPECT_THROW(Stimulus::pwl({{1.0, 0.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(Stimulus::pwl({}), std::invalid_argument);
}

TEST(Circuit, NodeNamesAndAliases) {
  Circuit ckt;
  EXPECT_EQ(ckt.node("0"), kGround);
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_EQ(ckt.node("GND"), kGround);
  const auto a = ckt.node("a");
  EXPECT_EQ(ckt.node("a"), a);  // idempotent
  EXPECT_EQ(ckt.find_node("a"), a);
  EXPECT_EQ(ckt.node_name(a), "a");
  EXPECT_THROW(ckt.find_node("missing"), std::out_of_range);
  EXPECT_EQ(ckt.node_count(), 2u);
}

TEST(Circuit, FindElement) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 5.0);
  ASSERT_NE(ckt.find_element("R1"), nullptr);
  EXPECT_EQ(ckt.find_element("R1")->value, 5.0);
  EXPECT_EQ(ckt.find_element("R2"), nullptr);
}

TEST(Circuit, ValidateCatchesSelfLoop) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("R1", a, a, 1.0);
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

TEST(Circuit, ValidateCatchesNonPositiveValues) {
  Circuit ckt;
  ckt.add_capacitor("C1", ckt.node("a"), kGround, 0.0);
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

TEST(Circuit, ValidateCatchesControlledSourceTargets) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("Rc", a, kGround, 1.0);
  ckt.add_cccs("F1", a, kGround, "Rc", 2.0);  // control must be V or L
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

TEST(Circuit, InitialConditions) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.set_initial_node_voltage(a, 2.5);
  EXPECT_EQ(ckt.initial_node_voltages().at(a), 2.5);
  EXPECT_THROW(ckt.set_initial_node_voltage(kGround, 1.0),
               std::invalid_argument);
}

TEST(Circuit, ElementIcStorage) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto& c = ckt.add_capacitor("C1", a, kGround, 1e-12, 1.8);
  EXPECT_TRUE(c.initial_condition.has_value());
  EXPECT_EQ(*c.initial_condition, 1.8);
  const auto& l = ckt.add_inductor("L1", a, kGround, 1e-9);
  EXPECT_FALSE(l.initial_condition.has_value());
}


TEST(Circuit, ValidateCatchesDanglingNode) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1.0);
  ckt.node("orphan");  // registered but never used
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

// validate() reports the first problem it meets: dangling nodes (lowest
// id first) before any element rule, then element rules in element
// order.  These pin the exact message and the offender named.
std::string validate_error(const Circuit& ckt) {
  try {
    ckt.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CircuitValidate, DanglingNodeLowestIdFirst) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.node("b");  // dangling, id 2
  const auto c = ckt.node("c");
  ckt.node("d");  // dangling, id 4
  ckt.add_resistor("R1", a, c, 1.0);
  ckt.add_resistor("R1", c, kGround, -1.0);  // element rules come later
  EXPECT_EQ(validate_error(ckt),
            "Circuit: node 'b' is not connected to any element");
}

TEST(CircuitValidate, DuplicateReportedAtSecondOccurrence) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("R1", a, kGround, 1.0);
  ckt.add_resistor("R2", a, kGround, 1.0);
  ckt.add_resistor("R1", a, kGround, -1.0);  // duplicate checked first
  ckt.add_resistor("R2", a, a, 1.0);
  EXPECT_EQ(validate_error(ckt), "Circuit: duplicate element name 'R1'");
}

TEST(CircuitValidate, EarlierElementRuleBeatsLaterDuplicate) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_capacitor("C1", a, kGround, 0.0);
  ckt.add_resistor("R1", a, kGround, 1.0);
  ckt.add_resistor("R1", a, kGround, 1.0);
  EXPECT_EQ(validate_error(ckt),
            "Circuit: element 'C1' must have a positive value");
}

TEST(CircuitValidate, EmptyName) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("R1", a, kGround, 1.0);
  ckt.add_resistor("", a, kGround, -1.0);
  ckt.add_resistor("", a, kGround, 1.0);
  EXPECT_EQ(validate_error(ckt), "Circuit: element with empty name");
}

TEST(CircuitValidate, NonPositiveValues) {
  const double bad[] = {0.0, -1.0, std::nan("")};
  for (const double v : bad) {
    Circuit r;
    r.add_resistor("R1", r.node("a"), kGround, v);
    EXPECT_EQ(validate_error(r),
              "Circuit: element 'R1' must have a positive value");
    Circuit c;
    c.add_capacitor("C1", c.node("a"), kGround, v);
    EXPECT_EQ(validate_error(c),
              "Circuit: element 'C1' must have a positive value");
    Circuit l;
    l.add_inductor("L1", l.node("a"), kGround, v);
    EXPECT_EQ(validate_error(l),
              "Circuit: element 'L1' must have a positive value");
  }
}

TEST(CircuitValidate, SelfShort) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("R1", a, kGround, 1.0);
  ckt.add_vsource("V1", a, a, Stimulus::dc(1.0));
  ckt.add_resistor("R2", a, a, 1.0);
  EXPECT_EQ(validate_error(ckt),
            "Circuit: element 'V1' shorts a node to itself");
}

TEST(CircuitValidate, ControlSources) {
  {
    Circuit ckt;
    const auto a = ckt.node("a");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_cccs("F1", a, kGround, "nosuch", 1.0);
    ckt.add_ccvs("H1", a, kGround, "R1", 1.0);
    EXPECT_EQ(validate_error(ckt),
              "Circuit: 'F1' references unknown control source 'nosuch'");
  }
  {
    Circuit ckt;
    const auto a = ckt.node("a");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_ccvs("H1", a, kGround, "R1", 1.0);
    EXPECT_EQ(validate_error(ckt),
              "Circuit: 'H1' control element must be a voltage source or "
              "inductor");
  }
  {
    // A control may name an element declared after it, a voltage source
    // or an inductor; the first element of a name is the one checked.
    Circuit ckt;
    const auto a = ckt.node("a");
    const auto b = ckt.node("b");
    ckt.add_cccs("F1", a, kGround, "V1", 1.0);
    ckt.add_ccvs("H1", b, kGround, "L1", 1.0);
    ckt.add_vsource("V1", a, kGround, Stimulus::dc(1.0));
    ckt.add_inductor("L1", a, b, 1e-9);
    EXPECT_EQ(validate_error(ckt), "");
  }
}

TEST(CircuitValidate, MacroPortTouchesNode) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto p = ckt.node("p");  // touched only by the macro
  ckt.add_resistor("R1", a, kGround, 1.0);
  MacroElement m;
  m.name = "M1";
  m.ports = {a, p};
  m.g = {1.0, -1.0, -1.0, 1.0};
  m.c = {0.0, 0.0, 0.0, 1e-12};
  ckt.add_macro(std::move(m));
  EXPECT_EQ(validate_error(ckt), "");
}

TEST(Circuit, NodeIdsFollowFirstAppearance) {
  Circuit ckt;
  ckt.reserve(4, 3);  // a hint only; growth past it keeps every id
  EXPECT_EQ(ckt.node("x"), 1);
  EXPECT_EQ(ckt.node("y"), 2);
  EXPECT_EQ(ckt.node("x"), 1);
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_EQ(ckt.node("GND"), kGround);
  EXPECT_EQ(ckt.node("0"), kGround);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(ckt.node("n" + std::to_string(i)), 3 + i);
  }
  EXPECT_EQ(ckt.node_count(), 1003u);
  EXPECT_EQ(ckt.node_name(kGround), "0");
  EXPECT_EQ(ckt.node_name(2), "y");
  EXPECT_EQ(ckt.node_name(1002), "n999");
  // string_view probes need no terminator: "y" out of a longer buffer.
  const std::string buffer = "xyz";
  EXPECT_EQ(ckt.find_node(std::string_view(buffer).substr(1, 1)), 2);
  EXPECT_EQ(ckt.find_node("n500"), 503);
  EXPECT_EQ(ckt.find_node("gnd"), kGround);
  EXPECT_EQ(ckt.find_node("GND"), kGround);
  EXPECT_THROW(ckt.find_node("xy"), std::out_of_range);
  EXPECT_THROW(ckt.find_node(""), std::out_of_range);
}

}  // namespace awesim::circuit
