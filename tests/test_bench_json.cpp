// The bench harness and its JSON schema: run a registered case
// in-process, serialize, re-parse the emitted text, and validate --
// exactly the self-check path `awesim_bench --json` exercises, plus
// negative cases the runner can't reach (tampered documents).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "harness.h"
#include "obs/json.h"
#include "sim/transient.h"

using namespace awesim;
using obs::json::Value;
using obs::json::parse;

namespace {

const bench::BenchCase& find_case(const std::string& name) {
  bench::ensure_all_registered();
  for (const auto& c : bench::registry()) {
    if (c.name == name) return c;
  }
  throw std::runtime_error("registered case not found: " + name);
}

bench::RunOptions quick_two_reps() {
  bench::RunOptions opt;
  opt.quick = true;
  opt.repeats = 2;
  return opt;
}

}  // namespace

TEST(BenchRegistry, CoversTheAcceptanceFloor) {
  bench::ensure_all_registered();
  // The issue's floor: >= 6 benches, at least one with a transient-
  // simulation reference (so the JSON carries speedup_vs_sim).
  EXPECT_GE(bench::registry().size(), 6u);
  std::size_t with_reference = 0;
  std::size_t quick = 0;
  for (const auto& c : bench::registry()) {
    if (c.quick_tier) ++quick;
    const auto prepared = c.prepare();
    EXPECT_TRUE(static_cast<bool>(prepared.run)) << c.name;
    if (prepared.reference) ++with_reference;
  }
  EXPECT_GE(with_reference, 1u);
  EXPECT_GE(quick, 6u);
}

TEST(BenchRegistry, RegistrationIsIdempotentAndRejectsDuplicates) {
  bench::ensure_all_registered();
  const std::size_t count = bench::registry().size();
  bench::ensure_all_registered();
  EXPECT_EQ(bench::registry().size(), count);
  EXPECT_THROW(bench::register_bench([] {
                 bench::BenchCase c;
                 c.name = bench::registry().front().name;
                 c.prepare = [] { return bench::PreparedCase{}; };
                 return c;
               }()),
               std::invalid_argument);
}

TEST(BenchRun, OneCaseProducesTimedSamplesAndAccuracy) {
  const auto& c = find_case("fig15.secondorder_step");
  const auto r = bench::run_case(c, quick_two_reps());
  EXPECT_EQ(r.name, "fig15.secondorder_step");
  EXPECT_EQ(r.repeats, 2);
  ASSERT_EQ(r.wall_ms.size(), 2u);
  for (double s : r.wall_ms) EXPECT_GT(s, 0.0);
  ASSERT_EQ(r.sim_ms.size(), 2u);
  for (double s : r.sim_ms) EXPECT_GT(s, 0.0);
  // The q=2 match on the fig. 4 tree is visually exact (Fig. 15): the
  // measured L2 error must be far below a percent.
  EXPECT_TRUE(std::isfinite(r.accuracy));
  EXPECT_LT(r.accuracy, 1e-2);
  // The wall-clock speedup is reported, not asserted: under a loaded
  // `ctest -j` it is noise.  The counted work behind it is exact: the
  // AWE run factors once and substitutes a handful of times, where the
  // reference simulation takes one step per sample.
  EXPECT_GT(bench::speedup_vs_sim(r), 0.0);
  const circuit::Circuit ckt = circuits::fig4_rc_tree();
  core::Engine engine(ckt);
  core::EngineOptions eopt;
  eopt.order = 2;
  eopt.estimate_error = false;
  eopt.jump_consistent = false;
  engine.approximate(ckt.find_node("n4"), eopt);
  EXPECT_EQ(engine.stats().factorizations, 1u);
  EXPECT_LE(engine.stats().substitutions, 8u);
  sim::TransientSimulator simulator(ckt);
  sim::TransientOptions sopt;
  sopt.timestep = 3e-3 / 2000.0;
  const auto wave = simulator.run({ckt.find_node("n4")}, 3e-3, sopt);
  EXPECT_GE(wave.size(), 2000u);
}

TEST(BenchJson, EmittedDocumentRoundTripsAndValidates) {
  const auto& c = find_case("fig15.secondorder_step");
  std::vector<bench::BenchResult> results;
  results.push_back(bench::run_case(c, quick_two_reps()));
  const Value doc = bench::to_json(results, quick_two_reps());

  // Validate the emitted *text*, not the in-memory tree: this covers
  // the writer (number formatting, NaN -> null) and the parser.
  const std::string text = doc.dump(2);
  const Value parsed = parse(text);
  const auto errors = bench::validate_schema(parsed);
  for (const auto& e : errors) ADD_FAILURE() << e;
  EXPECT_TRUE(errors.empty());

  ASSERT_NE(parsed.find("schema"), nullptr);
  EXPECT_EQ(parsed.find("schema")->as_string(), bench::kSchemaName);
  EXPECT_EQ(parsed.find("schema_version")->as_number(),
            bench::kSchemaVersion);
  EXPECT_EQ(parsed.find("tier")->as_string(), "quick");
  const Value* benches = parsed.find("benches");
  ASSERT_NE(benches, nullptr);
  ASSERT_EQ(benches->size(), 1u);
  const Value& b = benches->at(0);
  EXPECT_EQ(b.find("name")->as_string(), "fig15.secondorder_step");
  EXPECT_TRUE(std::isfinite(b.find("speedup_vs_sim")->as_number()));
  EXPECT_TRUE(std::isfinite(b.find("accuracy")->as_number()));
  ASSERT_NE(b.find("wall_ms"), nullptr);
  EXPECT_EQ(b.find("wall_ms")->find("samples")->size(), 2u);
}

TEST(BenchJson, CaseWithoutReferenceSerializesNulls) {
  const auto& c = find_case("timing.wavefront");
  std::vector<bench::BenchResult> results;
  results.push_back(bench::run_case(c, quick_two_reps()));
  const Value parsed =
      parse(bench::to_json(results, quick_two_reps()).dump());
  EXPECT_TRUE(bench::validate_schema(parsed).empty());
  const Value& b = parsed.find("benches")->at(0);
  EXPECT_TRUE(b.find("sim_ms")->is_null());
  EXPECT_TRUE(b.find("speedup_vs_sim")->is_null());
}

TEST(BenchJson, ValidatorRejectsTamperedDocuments) {
  const auto& c = find_case("fig15.secondorder_step");
  std::vector<bench::BenchResult> results;
  results.push_back(bench::run_case(c, quick_two_reps()));
  const bench::RunOptions opt = quick_two_reps();

  {
    Value doc = bench::to_json(results, opt);
    doc.set("schema_version", 999);
    EXPECT_FALSE(bench::validate_schema(doc).empty());
  }
  {
    Value doc = bench::to_json(results, opt);
    doc.set("benches", Value::array());
    EXPECT_FALSE(bench::validate_schema(doc).empty());
  }
  {
    Value doc = bench::to_json(results, opt);
    doc.set("tier", "warp-speed");
    EXPECT_FALSE(bench::validate_schema(doc).empty());
  }
  {
    // A NaN accuracy must serialize to null and remain schema-valid;
    // a *string* in a numeric slot must not.
    results.front().accuracy = std::nan("");
    Value doc = bench::to_json(results, opt);
    EXPECT_TRUE(bench::validate_schema(parse(doc.dump())).empty());
    Value tampered = parse(doc.dump());
    // Rebuild with a corrupted bench entry.
    Value bad_bench = tampered.find("benches")->at(0);
    bad_bench.set("accuracy", "fast");
    Value benches = Value::array();
    benches.push_back(std::move(bad_bench));
    tampered.set("benches", std::move(benches));
    EXPECT_FALSE(bench::validate_schema(tampered).empty());
  }
}

TEST(BenchJson, ParserRejectsMalformedText) {
  EXPECT_THROW(parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW(parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse("nan"), std::runtime_error);
  // Valid documents parse, including escapes and surrogate pairs.
  EXPECT_EQ(parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse("-1.5e3").as_number(), -1500.0);
}
