// SPICE-like netlist parsing: cards, units, stimuli, ICs, errors,
// round-tripping.
#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "netlist/parser.h"

namespace awesim::netlist {

using circuit::ElementKind;

namespace {

/// Happy-path parse through the error-collecting API.
circuit::Circuit parse_ok(std::string_view text) {
  ParseResult result = parse_collect(text);
  EXPECT_TRUE(result.ok()) << core::to_string(result.diagnostics);
  return std::move(result.circuit.value());
}

/// Expects the text to be rejected and returns its first Error record.
core::Diagnostic first_error(std::string_view text) {
  ParseResult result = parse_collect(text);
  EXPECT_FALSE(result.ok()) << "unexpectedly parsed:\n" << text;
  for (const auto& d : result.diagnostics) {
    if (d.severity >= core::Severity::Error) return d;
  }
  ADD_FAILURE() << "rejected with no Error diagnostic:\n" << text;
  return {};
}

bool rejected(std::string_view text) {
  return !parse_collect(text).ok();
}

}  // namespace

TEST(ParseValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("4.7"), 4.7);
  EXPECT_DOUBLE_EQ(parse_value("2k"), 2e3);
  EXPECT_DOUBLE_EQ(parse_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("1MEG"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_value("3n"), 3e-9);
  EXPECT_DOUBLE_EQ(parse_value("5u"), 5e-6);
  EXPECT_DOUBLE_EQ(parse_value("7m"), 7e-3);
  EXPECT_DOUBLE_EQ(parse_value("2f"), 2e-15);
  EXPECT_DOUBLE_EQ(parse_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_value("-3.3k"), -3300.0);
  // Trailing unit letters after the scale are ignored (pF, kOhm).
  EXPECT_DOUBLE_EQ(parse_value("10pF"), 10e-12);
  EXPECT_THROW(parse_value("abc"), std::invalid_argument);
  EXPECT_THROW(parse_value(""), std::invalid_argument);
  EXPECT_THROW(parse_value("1x"), std::invalid_argument);
}

TEST(Parser, BasicRcNetlist) {
  const auto ckt = parse_ok(R"(
* simple rc
V1 in 0 STEP(0 5)
R1 in out 1k
C1 out 0 1p
.end
)");
  EXPECT_EQ(ckt.elements().size(), 3u);
  EXPECT_EQ(ckt.find_element("R1")->value, 1e3);
  EXPECT_EQ(ckt.find_element("C1")->value, 1e-12);
  EXPECT_EQ(ckt.find_element("V1")->stimulus.value(1.0), 5.0);
}

TEST(Parser, CommentsAndContinuation) {
  const auto ckt = parse_ok(
      "V1 a 0 DC 1 ; inline comment\n"
      "* full comment\n"
      "R1 a\n"
      "+ 0 2k\n");
  EXPECT_EQ(ckt.elements().size(), 2u);
  EXPECT_EQ(ckt.find_element("R1")->value, 2e3);
}

TEST(Parser, BareValueIsDc) {
  const auto ckt = parse_ok("V1 a 0 3.3\nR1 a 0 1k\n");
  EXPECT_EQ(ckt.find_element("V1")->stimulus.value(0.0), 3.3);
}

TEST(Parser, StepWithDelayAndRise) {
  const auto ckt = parse_ok("V1 a 0 STEP(0 5 1n 2n)\nR1 a 0 1k\n");
  const auto& s = ckt.find_element("V1")->stimulus;
  EXPECT_NEAR(s.value(0.5e-9), 0.0, 1e-12);
  EXPECT_NEAR(s.value(2e-9), 2.5, 1e-9);
  EXPECT_NEAR(s.value(5e-9), 5.0, 1e-12);
}

TEST(Parser, Pwl) {
  const auto ckt = parse_ok("I1 0 a PWL(0 0 1u 1m 2u 0)\nR1 a 0 1k\n");
  const auto& s = ckt.find_element("I1")->stimulus;
  EXPECT_NEAR(s.value(0.5e-6), 0.5e-3, 1e-15);
  EXPECT_NEAR(s.value(3e-6), 0.0, 1e-15);
}

TEST(Parser, CapacitorIc) {
  const auto ckt = parse_ok("C1 a 0 1p IC=2.5\nR1 a 0 1k\n");
  ASSERT_TRUE(ckt.find_element("C1")->initial_condition.has_value());
  EXPECT_EQ(*ckt.find_element("C1")->initial_condition, 2.5);
}

TEST(Parser, InductorAndControlledSources) {
  const auto ckt = parse_ok(R"(
V1 in 0 DC 1
L1 in a 10n IC=1m
E1 b 0 a 0 2.0
G1 c 0 b 0 1m
F1 d 0 V1 3
H1 e 0 V1 50
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
R5 e 0 1k
)");
  EXPECT_EQ(ckt.find_element("L1")->kind, ElementKind::Inductor);
  EXPECT_EQ(*ckt.find_element("L1")->initial_condition, 1e-3);
  EXPECT_EQ(ckt.find_element("E1")->kind, ElementKind::Vcvs);
  EXPECT_EQ(ckt.find_element("G1")->kind, ElementKind::Vccs);
  EXPECT_EQ(ckt.find_element("F1")->ctrl_source, "V1");
  EXPECT_EQ(ckt.find_element("H1")->value, 50.0);
}

TEST(Parser, IcDirective) {
  const auto ckt = parse_ok(
      "V1 in 0 DC 0\n"
      "R1 in out 1k\n"
      "C1 out 0 1p\n"
      ".ic V(out)=1.5\n");
  EXPECT_EQ(ckt.initial_node_voltages().at(ckt.find_node("out")), 1.5);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  // missing value on line 2
  EXPECT_EQ(first_error("V1 a 0 DC 1\nR1 a 0\n").line, 2u);
}

TEST(Parser, UnknownElementRejected) {
  EXPECT_TRUE(rejected("X1 a b c\n"));
  EXPECT_TRUE(rejected("V1 a 0 WIGGLE(1 2)\nR1 a 0 1\n"));
  EXPECT_TRUE(rejected(".option foo\n"));
  EXPECT_TRUE(rejected("+ continuation first\n"));
}

TEST(Parser, DuplicateNamesRejectedByValidate) {
  EXPECT_EQ(first_error("R1 a 0 1k\nR1 a 0 2k\n").code,
            core::DiagCode::ValidationError);
}

TEST(Parser, FileNotFound) {
  const ParseResult result = parse_file_collect("/nonexistent/foo.sp");
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].code, core::DiagCode::ParseError);
}

TEST(Writer, RoundTripPreservesBehaviour) {
  const auto original = parse_ok(R"(
V1 in 0 STEP(0 5 0 1n)
R1 in a 1k
C1 a 0 1p IC=0.5
L1 a out 10n
R2 out 0 50
.ic V(a)=0.25
)");
  const std::string text = write(original);
  const auto reparsed = parse_ok(text);
  ASSERT_EQ(reparsed.elements().size(), original.elements().size());
  // Stimulus behaviour preserved at sample times.
  const auto& s1 = original.find_element("V1")->stimulus;
  const auto& s2 = reparsed.find_element("V1")->stimulus;
  for (double t : {0.0, 0.5e-9, 1e-9, 5e-9}) {
    EXPECT_NEAR(s1.value(t), s2.value(t), 1e-9) << "t=" << t;
  }
  EXPECT_EQ(*reparsed.find_element("C1")->initial_condition, 0.5);
  EXPECT_EQ(reparsed.initial_node_voltages().at(reparsed.find_node("a")),
            0.25);
}


TEST(Subckt, BasicExpansion) {
  const auto ckt = parse_ok(R"(
.subckt rcseg in out
Rseg in out 1k
Cseg out 0 1p
.ends
V1 a 0 STEP(0 5)
X1 a b rcseg
X2 b c rcseg
)");
  // 2 instances x 2 elements + the source.
  EXPECT_EQ(ckt.elements().size(), 5u);
  ASSERT_NE(ckt.find_element("X1.Rseg"), nullptr);
  ASSERT_NE(ckt.find_element("X2.Cseg"), nullptr);
  // Shared node b connects X1's out to X2's in.
  EXPECT_EQ(ckt.find_element("X1.Rseg")->neg, ckt.find_node("b"));
  EXPECT_EQ(ckt.find_element("X2.Rseg")->pos, ckt.find_node("b"));
  // X1's internal cap hangs on b too (out port), X2's on c.
  EXPECT_EQ(ckt.find_element("X2.Cseg")->pos, ckt.find_node("c"));
}

TEST(Subckt, LocalNodesArePrefixedAndIsolated) {
  const auto ckt = parse_ok(R"(
.subckt pi a b
R1 a mid 500
R2 mid b 500
Cm mid 0 2p
.ends
V1 in 0 DC 1
X1 in out pi
X2 out far pi
)");
  // Each instance has its own private "mid" node.
  EXPECT_NE(ckt.find_node("X1.mid"), ckt.find_node("X2.mid"));
  EXPECT_EQ(ckt.find_element("X1.Cm")->pos, ckt.find_node("X1.mid"));
}

TEST(Subckt, NestedInstances) {
  const auto ckt = parse_ok(R"(
.subckt seg a b
Rs a b 100
Cs b 0 1p
.ends
.subckt chain2 a b
X1 a m seg
X2 m b seg
.ends
V1 p 0 DC 1
Xc p q chain2
)");
  EXPECT_EQ(ckt.elements().size(), 5u);
  ASSERT_NE(ckt.find_element("Xc.X1.Rs"), nullptr);
  ASSERT_NE(ckt.find_element("Xc.X2.Cs"), nullptr);
  // The chain's internal m is private to Xc.
  EXPECT_NO_THROW(ckt.find_node("Xc.m"));
}

TEST(Subckt, GroundPassesThrough) {
  const auto ckt = parse_ok(R"(
.subckt shunt a
Rsh a 0 1k
.ends
V1 n 0 DC 1
X1 n shunt
)");
  EXPECT_EQ(ckt.find_element("X1.Rsh")->neg, circuit::kGround);
}

TEST(Subckt, IcInsideSubcircuit) {
  const auto ckt = parse_ok(R"(
.subckt cell in
Rc in s 1k
Cc s 0 1p
.ic V(s)=2.5
.ends
V1 top 0 DC 0
X1 top cell
)");
  EXPECT_EQ(ckt.initial_node_voltages().at(ckt.find_node("X1.s")), 2.5);
}

TEST(Subckt, Errors) {
  EXPECT_TRUE(rejected(".subckt foo\n.ends\n"));          // no port
  EXPECT_TRUE(rejected(".subckt foo a\nR1 a 0 1k\n"));    // open
  EXPECT_TRUE(rejected("V1 a 0 DC 1\nX1 a nosuch\n"));
  EXPECT_TRUE(rejected(R"(
.subckt s a
R1 a 0 1k
.ends
V1 n 0 DC 1
X1 n q s
)"));  // wrong port count
  EXPECT_TRUE(rejected(R"(
.subckt loop a
X1 a loop
.ends
V1 n 0 DC 1
X1 n loop
)"));  // self-recursion
}

}  // namespace awesim::netlist
