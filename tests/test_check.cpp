// The src/check static lint pipeline: the topology-lint corpus under
// netlists/bad/lint/ must be caught before any matrix is assembled, with
// exact file:line:column locations; clean paper circuits must lint clean
// and classify as expected; the engine and timing pre-flights must turn
// structural singularities into named, located diagnostics instead of
// bare singular-matrix errors.  Registered under the ctest label "lint".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "check/lint.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "netlist/parser.h"
#include "obs/json.h"
#include "timing/analyzer.h"
#include "timing/session.h"

namespace awesim::check {

namespace {

std::string corpus_path(const std::string& name) {
  return std::string(AWESIM_NETLIST_DIR) + "/bad/lint/" + name;
}

std::string netlist_path(const std::string& name) {
  return std::string(AWESIM_NETLIST_DIR) + "/" + name;
}

const core::Diagnostic* find_code(const LintReport& report,
                                  core::DiagCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------
// Corpus: each file trips exactly its rule, at the exact source line.

TEST(LintCorpus, FloatingIslandIsAnErrorAtTheIslandSource) {
  const std::string path = corpus_path("floating_island.sp");
  const LintReport report = lint_file(path);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.errors, 1u);
  const auto* d = find_code(report, core::DiagCode::FloatingIsland);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Error);
  EXPECT_EQ(d->file, path);
  EXPECT_EQ(d->line, 5u);  // the V2 card
  EXPECT_EQ(d->column, 1u);
  EXPECT_NE(d->element.find("V2"), std::string::npos);
  EXPECT_NE(d->element.find("R2"), std::string::npos);
  EXPECT_NE(d->node.find("a"), std::string::npos);
  EXPECT_NE(d->node.find("b"), std::string::npos);
}

TEST(LintCorpus, InductorLoopNamesEveryLoopMember) {
  const std::string path = corpus_path("inductor_loop.sp");
  const LintReport report = lint_file(path);
  EXPECT_FALSE(report.ok());
  const auto* d = find_code(report, core::DiagCode::InductorLoop);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Error);
  EXPECT_EQ(d->file, path);
  EXPECT_EQ(d->line, 4u);  // the L2 card closes the loop
  EXPECT_EQ(d->column, 1u);
  EXPECT_NE(d->element.find("V1"), std::string::npos);
  EXPECT_NE(d->element.find("L1"), std::string::npos);
  EXPECT_NE(d->element.find("L2"), std::string::npos);
  EXPECT_NE(d->message.find("structurally singular"), std::string::npos);
}

TEST(LintCorpus, CapacitorCutsetPointsAtTheCurrentSource) {
  const std::string path = corpus_path("capacitor_cutset.sp");
  const LintReport report = lint_file(path);
  EXPECT_FALSE(report.ok());
  const auto* d = find_code(report, core::DiagCode::CapacitorCutset);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Error);
  EXPECT_EQ(d->file, path);
  EXPECT_EQ(d->line, 5u);  // the I1 card
  EXPECT_EQ(d->column, 1u);
  EXPECT_NE(d->element.find("I1"), std::string::npos);
  EXPECT_EQ(d->node, "x");
}

TEST(LintCorpus, DanglingControlReferenceIsAnError) {
  const std::string path = corpus_path("dangling_control.sp");
  const LintReport report = lint_file(path);
  EXPECT_FALSE(report.ok());
  const auto* d = find_code(report, core::DiagCode::DanglingControl);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Error);
  EXPECT_EQ(d->file, path);
  EXPECT_EQ(d->line, 5u);  // the F1 card
  EXPECT_EQ(d->column, 1u);
  EXPECT_EQ(d->element, "F1");
  EXPECT_NE(d->message.find("Vmissing"), std::string::npos);
}

TEST(LintCorpus, NegativeValueIsLocatedDespiteSkippedValidate) {
  // Circuit::validate() would throw (line-less) on this netlist; the
  // lint front end skips that gate so the rule pipeline can point at
  // the exact card instead.
  const std::string path = corpus_path("negative_value.sp");
  const LintReport report = lint_file(path);
  EXPECT_FALSE(report.ok());
  const auto* d = find_code(report, core::DiagCode::ValueOutOfRange);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Error);
  EXPECT_EQ(d->file, path);
  EXPECT_EQ(d->line, 3u);  // the R1 card
  EXPECT_EQ(d->column, 1u);
  EXPECT_EQ(d->element, "R1");
}

// ---------------------------------------------------------------------
// Positive path: the paper circuits lint clean and classify as expected.

TEST(LintClassify, PaperCircuitsClassifyByStructure) {
  EXPECT_EQ(lint(circuits::fig4_rc_tree()).topology, TopologyClass::RcTree);
  EXPECT_EQ(lint(circuits::fig9_grounded_resistor()).topology,
            TopologyClass::RcMesh);  // R5 closes a resistive loop via ground
  EXPECT_EQ(lint(circuits::fig16_mos_interconnect()).topology,
            TopologyClass::RcTree);
  EXPECT_EQ(lint(circuits::fig22_floating_cap()).topology,
            TopologyClass::RcMesh);  // floating coupling capacitor
  EXPECT_EQ(lint(circuits::fig25_rlc_ladder()).topology,
            TopologyClass::Rlc);
  EXPECT_EQ(lint(circuits::rc_line(50, 1e3, 1e-12)).topology,
            TopologyClass::RcTree);
  EXPECT_EQ(lint(circuit::Circuit()).topology, TopologyClass::Empty);
}

TEST(LintClassify, PaperCircuitsLintClean) {
  for (const auto& ckt :
       {circuits::fig4_rc_tree(), circuits::fig9_grounded_resistor(),
        circuits::fig16_mos_interconnect(), circuits::fig22_floating_cap(),
        circuits::fig25_rlc_ladder()}) {
    const LintReport report = lint(ckt);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.errors, 0u);
    EXPECT_EQ(report.warnings, 0u);
  }
}

TEST(LintClassify, NetlistFilesLintCleanWithTopologyNote) {
  const LintReport fig4 = lint_file(netlist_path("fig4_rc_tree.sp"));
  EXPECT_TRUE(fig4.ok());
  EXPECT_EQ(fig4.warnings, 0u);
  EXPECT_EQ(fig4.topology, TopologyClass::RcTree);
  const auto* note = find_code(fig4, core::DiagCode::TopologyNote);
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->severity, core::Severity::Info);
  EXPECT_NE(note->message.find("rc-tree"), std::string::npos);

  const LintReport fig25 = lint_file(netlist_path("fig25_rlc_ladder.sp"));
  EXPECT_TRUE(fig25.ok());
  EXPECT_EQ(fig25.topology, TopologyClass::Rlc);

  LintOptions quiet;
  quiet.classify_note = false;
  const LintReport silent =
      lint_file(netlist_path("fig4_rc_tree.sp"), quiet);
  EXPECT_EQ(find_code(silent, core::DiagCode::TopologyNote), nullptr);
}

// ---------------------------------------------------------------------
// Individual rules on programmatic circuits (no source locations).

TEST(LintRules, SuspiciousValueIsAWarningNotAnError) {
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::step(0, 5));
  ckt.add_resistor("R1", in, out, 1e15);  // a petaohm: forgotten suffix?
  ckt.add_capacitor("C1", out, circuit::kGround, 1e-12);
  const LintReport report = lint(ckt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings, 1u);
  const auto* d = find_code(report, core::DiagCode::SuspiciousValue);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "R1");
  EXPECT_EQ(d->line, 0u);  // programmatic circuits carry no locations
}

// The six fixed plausibility bounds are inclusive: a value exactly at a
// bound is silent, the next representable value outside it warns.
struct PlausibilityCase {
  const char* name;
  circuit::ElementKind kind;
  double bound;
  bool upper;
};

void PrintTo(const PlausibilityCase& tc, std::ostream* os) { *os << tc.name; }

class PlausibilityBound : public ::testing::TestWithParam<PlausibilityCase> {
 protected:
  // V1 -> X1 -> out, closed to ground by a plausible partner element; X1
  // is the element under test.
  static LintReport lint_with(circuit::ElementKind kind, double value) {
    circuit::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("V1", in, circuit::kGround,
                    circuit::Stimulus::step(0, 5));
    switch (kind) {
      case circuit::ElementKind::Resistor:
        ckt.add_resistor("X1", in, out, value);
        ckt.add_capacitor("C1", out, circuit::kGround, 1e-12);
        break;
      case circuit::ElementKind::Capacitor:
        ckt.add_resistor("R1", in, out, 1e3);
        ckt.add_capacitor("X1", out, circuit::kGround, value);
        break;
      default:
        ckt.add_inductor("X1", in, out, value);
        ckt.add_resistor("R1", out, circuit::kGround, 1e3);
        break;
    }
    return lint(ckt);
  }
};

TEST_P(PlausibilityBound, AtBoundIsSilentJustOutsideWarns) {
  const PlausibilityCase& tc = GetParam();
  const LintReport at = lint_with(tc.kind, tc.bound);
  EXPECT_TRUE(at.ok());
  EXPECT_EQ(at.warnings, 0u);
  EXPECT_EQ(find_code(at, core::DiagCode::SuspiciousValue), nullptr);

  const double outside = std::nextafter(
      tc.bound, tc.upper ? std::numeric_limits<double>::infinity() : 0.0);
  const LintReport past = lint_with(tc.kind, outside);
  EXPECT_TRUE(past.ok());
  EXPECT_EQ(past.warnings, 1u);
  const auto* d = find_code(past, core::DiagCode::SuspiciousValue);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "X1");
}

INSTANTIATE_TEST_SUITE_P(
    LintRules, PlausibilityBound,
    ::testing::Values(
        PlausibilityCase{"ResistorMin", circuit::ElementKind::Resistor, 1e-6,
                         false},
        PlausibilityCase{"ResistorMax", circuit::ElementKind::Resistor, 1e12,
                         true},
        PlausibilityCase{"CapacitorMin", circuit::ElementKind::Capacitor,
                         1e-21, false},
        PlausibilityCase{"CapacitorMax", circuit::ElementKind::Capacitor,
                         1e-2, true},
        PlausibilityCase{"InductorMin", circuit::ElementKind::Inductor,
                         1e-15, false},
        PlausibilityCase{"InductorMax", circuit::ElementKind::Inductor, 1e2,
                         true}));

TEST(LintRules, DuplicateNamesAndSelfShortsAreErrors) {
  circuit::Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_vsource("V1", a, circuit::kGround, circuit::Stimulus::step(0, 1));
  ckt.add_resistor("R1", a, circuit::kGround, 1e3);
  ckt.add_resistor("R1", a, a, 2e3);  // duplicate name AND self-short
  const LintReport report = lint(ckt);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.errors, 2u);
  ASSERT_NE(find_code(report, core::DiagCode::ValidationError), nullptr);
}

TEST(LintRules, GminRescuableFloatingNodeIsAWarning) {
  // A node reachable only through a capacitor: the classic gmin case.
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::step(0, 5));
  ckt.add_capacitor("C1", in, mid, 1e-12);
  ckt.add_capacitor("C2", mid, circuit::kGround, 1e-12);
  const LintReport report = lint(ckt);
  EXPECT_TRUE(report.ok()) << core::to_string(report.diagnostics);
  const auto* d = find_code(report, core::DiagCode::FloatingNodes);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->node, "mid");
}

TEST(LintRules, SourcelessIslandIsAWarningAndUnusedNodeFlagged) {
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::step(0, 1));
  ckt.add_resistor("R1", in, circuit::kGround, 1e3);
  const auto a = ckt.node("isl_a");
  const auto b = ckt.node("isl_b");
  ckt.add_resistor("R2", a, b, 1e3);  // sourceless island: gmin pins it
  ckt.node("unused");                 // registered, touched by nothing
  const LintReport report = lint(ckt);
  EXPECT_TRUE(report.ok()) << core::to_string(report.diagnostics);
  EXPECT_EQ(report.warnings, 2u);
  const auto* island = find_code(report, core::DiagCode::FloatingIsland);
  ASSERT_NE(island, nullptr);
  EXPECT_EQ(island->severity, core::Severity::Warning);
}

TEST(LintRules, ControlCycleIsAWarningNamingMembers) {
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  const auto x = ckt.node("x");
  const auto y = ckt.node("y");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::step(0, 1));
  ckt.add_resistor("R1", in, x, 1e3);
  ckt.add_resistor("R2", in, y, 1e3);
  ckt.add_resistor("R3", x, circuit::kGround, 1e3);
  ckt.add_resistor("R4", y, circuit::kGround, 1e3);
  // E1 drives x sensing y; E2 drives y sensing x: a dependency cycle.
  ckt.add_vcvs("E1", x, circuit::kGround, y, circuit::kGround, 0.5);
  ckt.add_vcvs("E2", y, circuit::kGround, x, circuit::kGround, 0.5);
  const LintReport report = lint(ckt);
  const auto* d = find_code(report, core::DiagCode::ControlCycle);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_NE(d->element.find("E1"), std::string::npos);
  EXPECT_NE(d->element.find("E2"), std::string::npos);
}

TEST(LintRules, VcvsSensingUntouchedNodeIsDangling) {
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  const auto nowhere = ckt.node("nowhere");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::step(0, 1));
  ckt.add_resistor("R1", in, circuit::kGround, 1e3);
  ckt.add_vcvs("E1", in, circuit::kGround, nowhere, circuit::kGround, 2.0);
  const LintReport report = lint(ckt);
  EXPECT_FALSE(report.ok());
  const auto* d = find_code(report, core::DiagCode::DanglingControl);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->element, "E1");
  EXPECT_EQ(d->node, "nowhere");
}

TEST(LintRules, ParseErrorsMergeAheadOfRuleDiagnostics) {
  const LintReport report =
      lint_text("V1 in 0 DC 1\nR1 in out\nC1 out 0 1p\n", "inline.sp");
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_EQ(report.diagnostics.front().code, core::DiagCode::ParseError);
  EXPECT_EQ(report.diagnostics.front().line, 2u);
}

// ---------------------------------------------------------------------
// Engine pre-flight: structural problems become named diagnostics.

namespace {

circuit::Circuit inductor_loop_circuit() {
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::step(0, 5));
  ckt.add_inductor("L1", in, out, 1e-9);
  ckt.add_inductor("L2", out, circuit::kGround, 2e-9);
  ckt.add_resistor("R1", out, circuit::kGround, 1e3);
  ckt.add_capacitor("C1", out, circuit::kGround, 1e-12);
  return ckt;
}

}  // namespace

TEST(EnginePreflight, InductorLoopThrowsTheLintRecord) {
  // The circuit must outlive the engine (MnaSystem keeps a reference).
  const circuit::Circuit ckt = inductor_loop_circuit();
  core::Engine engine(ckt);
  core::EngineOptions options;
  try {
    engine.approximate(ckt.find_node("out"), options);
    FAIL() << "expected DiagnosticError";
  } catch (const core::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().code, core::DiagCode::InductorLoop);
    EXPECT_EQ(e.diagnostic().severity, core::Severity::Fatal);
    EXPECT_NE(e.diagnostic().element.find("L1"), std::string::npos);
  }
  EXPECT_EQ(engine.stats().lint_errors, 1u);
}

TEST(EnginePreflight, EscapeHatchSkipsTheLint) {
  const circuit::Circuit ckt = inductor_loop_circuit();
  core::Engine engine(ckt);
  core::EngineOptions options;
  options.preflight_lint = false;
  // Raw behavior: whatever the LU makes of the singular system -- but
  // never the lint record, and no lint tallies.
  try {
    engine.approximate(ckt.find_node("out"), options);
  } catch (const core::DiagnosticError& e) {
    EXPECT_NE(e.diagnostic().code, core::DiagCode::InductorLoop);
  } catch (const std::exception&) {
  }
  EXPECT_EQ(engine.stats().lint_errors, 0u);
}

TEST(EnginePreflight, LintRunsOnceAndCountsWarnings) {
  circuit::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, circuit::kGround, circuit::Stimulus::step(0, 5));
  ckt.add_resistor("R1", in, out, 1e15);  // suspicious, not fatal
  ckt.add_capacitor("C1", out, circuit::kGround, 1e-12);
  core::Engine engine(ckt);
  core::EngineOptions options;
  engine.approximate(out, options);
  engine.approximate(out, options);  // memoized: no second lint
  EXPECT_EQ(engine.stats().lint_errors, 0u);
  EXPECT_EQ(engine.stats().lint_warnings, 1u);
}

// ---------------------------------------------------------------------
// Timing pre-flight: the Design::analyze bugfix and the Session cache.

namespace {

timing::Design inductor_loop_design() {
  timing::Design design;
  design.add_gate({"U1", 100.0, 5e-15, 0.0});
  design.add_gate({"U2", 100.0, 5e-15, 0.0});
  timing::Net net;
  net.name = "bad_net";
  // Two parallel inductors DRV -> x: a loop of voltage-defined branches.
  net.parasitics.push_back(
      {timing::NetElement::Kind::Inductor, "DRV", "x", 1e-9});
  net.parasitics.push_back(
      {timing::NetElement::Kind::Inductor, "DRV", "x", 2e-9});
  net.parasitics.push_back(
      {timing::NetElement::Kind::Capacitor, "x", "0", 1e-13});
  net.sink_node["U2"] = "x";
  design.add_net("U1", std::move(net));
  design.set_primary_input("U1");
  return design;
}

const core::Diagnostic* find_code(const core::Diagnostics& diags,
                                  core::DiagCode code) {
  for (const auto& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

}  // namespace

TEST(TimingPreflight, SingularStageReportsTheOffendingElements) {
  const timing::Design design = inductor_loop_design();
  timing::AnalysisOptions options;
  options.threads = 1;
  const timing::TimingReport report = design.analyze(options);
  EXPECT_EQ(report.failed_stages, 1u);
  ASSERT_EQ(report.stages.size(), 1u);
  const timing::StageTiming& stage = report.stages.front();
  EXPECT_TRUE(stage.failed);

  // The bugfix under test: the report names the loop elements instead
  // of answering with a bare singular-system error.
  const auto* loop = find_code(stage.diagnostics,
                               core::DiagCode::InductorLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_NE(loop->element.find("__p0"), std::string::npos);
  EXPECT_NE(loop->element.find("__p1"), std::string::npos);
  const auto* failed = find_code(stage.diagnostics,
                                 core::DiagCode::StageFailed);
  ASSERT_NE(failed, nullptr);
  EXPECT_NE(failed->message.find("pre-flight lint"), std::string::npos);
  EXPECT_NE(failed->message.find("__p"), std::string::npos);
  EXPECT_GE(report.awe_stats.lint_errors, 1u);

  // Downstream timing still finite: the Elmore bound kept the wavefront
  // moving.
  ASSERT_EQ(stage.sinks.size(), 1u);
  EXPECT_TRUE(std::isfinite(stage.sinks.front().arrival));
}

TEST(TimingPreflight, SessionCachesLintReportsByContent) {
  timing::AnalysisOptions options;
  options.threads = 1;
  timing::Session session(inductor_loop_design(), options);
  const timing::TimingReport cold = session.analyze();
  EXPECT_EQ(cold.failed_stages, 1u);
  const auto after_cold = session.cache_stats();
  EXPECT_EQ(after_cold.lint_entries, 1u);
  EXPECT_GE(after_cold.lint_misses, 1u);
  EXPECT_EQ(after_cold.lint_hits, 0u);

  const timing::TimingReport warm = session.analyze();
  EXPECT_EQ(warm.failed_stages, 1u);
  const auto after_warm = session.cache_stats();
  EXPECT_GE(after_warm.lint_hits, 1u);
  // The warm report carries the same lint diagnostics as the cold one.
  ASSERT_EQ(warm.stages.size(), cold.stages.size());
  EXPECT_NE(find_code(warm.stages.front().diagnostics,
                      core::DiagCode::InductorLoop),
            nullptr);
}

// ---------------------------------------------------------------------
// The standalone CLI: --json output round-trips through the obs parser.

TEST(LintCli, JsonOutputRoundTripsThroughObsParser) {
  const std::string out_path =
      testing::TempDir() + "awesim_lint_roundtrip.json";
  const std::string cmd = std::string(AWESIM_LINT_BIN) + " --json=" +
                          out_path + " " +
                          corpus_path("floating_island.sp");
  const int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 1);  // errors found -> nonzero exit

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(buffer.str());

  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("schema_version"), nullptr);
  const obs::json::Value* files = doc.find("files");
  ASSERT_NE(files, nullptr);
  ASSERT_EQ(files->size(), 1u);
  const obs::json::Value& file = files->at(0);
  EXPECT_EQ(file.find("topology")->as_string(), "rc-mesh");
  EXPECT_FALSE(file.find("ok")->as_bool());
  EXPECT_EQ(file.find("errors")->as_number(), 1.0);
  const obs::json::Value* diags = file.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  bool found = false;
  for (std::size_t i = 0; i < diags->size(); ++i) {
    const obs::json::Value& d = diags->at(i);
    if (d.find("code")->as_string() != "floating-island") continue;
    found = true;
    EXPECT_EQ(d.find("severity")->as_string(), "error");
    EXPECT_EQ(d.find("line")->as_number(), 5.0);
    EXPECT_EQ(d.find("column")->as_number(), 1.0);
  }
  EXPECT_TRUE(found);
  std::remove(out_path.c_str());
}

TEST(LintCli, CleanFileExitsZero) {
  const std::string cmd = std::string(AWESIM_LINT_BIN) + " " +
                          netlist_path("fig4_rc_tree.sp") +
                          " > /dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 0);
}

}  // namespace awesim::check
