// The serve protocol layer (src/serve/protocol.h): request parsing, the
// malformed-request corpus (netlists/bad/json/), response shape, design
// construction, and the deadline/budget request lifecycle -- all through
// the same handle_line() path the daemon's workers run, so every
// assertion here is an assertion about live daemon behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/diagnostic.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "timing/snapshot.h"
#include "util/random_circuits.h"

namespace awesim {
namespace {

namespace json = obs::json;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::filesystem::path corpus_dir() {
  return std::filesystem::path(AWESIM_NETLIST_DIR) / "bad" / "json";
}

timing::SnapshotStore make_store() {
  timing::AnalysisOptions opt;
  opt.threads = 1;
  return timing::SnapshotStore(serve::builtin_design("chain4"), opt);
}

/// Every response line must parse as a JSON object with the schema's
/// mandatory fields.  Returns the parsed document for further checks.
json::Value require_response_shape(const std::string& line) {
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "a response is one line, embedded newlines would break framing";
  json::Value doc = json::parse(line);
  EXPECT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("id"), nullptr);
  const json::Value* ok = doc.find("ok");
  EXPECT_NE(ok, nullptr);
  EXPECT_TRUE(ok != nullptr && ok->is_bool());
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
    EXPECT_NE(doc.find("generation"), nullptr);
    EXPECT_NE(doc.find("result"), nullptr);
  } else {
    const json::Value* error = doc.find("error");
    EXPECT_NE(error, nullptr);
    if (error != nullptr) {
      EXPECT_TRUE(error->is_object());
      const json::Value* code = error->find("code");
      EXPECT_NE(code, nullptr);
      EXPECT_TRUE(code != nullptr && code->is_string() &&
                  !code->as_string().empty());
      EXPECT_NE(error->find("severity"), nullptr);
      EXPECT_NE(error->find("message"), nullptr);
    }
  }
  return doc;
}

/// An analyze result minus its `stats` object: the cost counters (cache
/// hits, factorizations) reflect work actually performed and naturally
/// differ warm vs. cold; every timing value is the bit-identity contract.
std::string timing_fingerprint(const json::Value& response) {
  const json::Value* result = response.find("result");
  if (result == nullptr || !result->is_object()) return "";
  json::Value stripped = json::Value::object();
  for (const auto& [key, value] : result->items()) {
    if (key != "stats") stripped.set(key, value);
  }
  return stripped.dump();
}

std::string error_code_of(const json::Value& doc) {
  const json::Value* error = doc.find("error");
  if (error == nullptr) return "";
  const json::Value* code = error->find("code");
  return code != nullptr && code->is_string() ? code->as_string() : "";
}

// ---------------------------------------------------------------------------
// JSON-level corpus: obs::json::parse must reject each input with the
// documented typed ParseError -- never truncate, never coerce.

TEST(ServeCorpus, JsonTierRejectsWithTypedCodes) {
  using json::ParseErrorCode;
  const std::map<std::string, ParseErrorCode> expected = {
      {"bad_escape.json", ParseErrorCode::BadEscape},
      {"bad_literal.json", ParseErrorCode::BadLiteral},
      {"bad_number.json", ParseErrorCode::BadNumber},
      {"deep_nesting.json", ParseErrorCode::DepthExceeded},
      {"lone_surrogate.json", ParseErrorCode::BadEscape},
      {"trailing_data.json", ParseErrorCode::TrailingData},
      {"truncated_object.json", ParseErrorCode::UnexpectedEnd},
      {"unterminated_string.json", ParseErrorCode::UnterminatedString},
  };
  for (const auto& [file, code] : expected) {
    const std::string text = read_file(corpus_dir() / file);
    ASSERT_FALSE(text.empty()) << file;
    try {
      json::parse(text);
      FAIL() << file << ": expected ParseError, parse succeeded";
    } catch (const json::ParseError& e) {
      EXPECT_EQ(e.code(), code)
          << file << ": got " << json::to_string(e.code());
      EXPECT_LE(e.offset(), text.size()) << file;
    }
  }
}

// Request-level corpus: valid JSON the protocol layer must reject as
// invalid-request.

TEST(ServeCorpus, RequestTierRejectsAsInvalidRequest) {
  const char* files[] = {"missing_method.json", "non_string_method.json",
                         "not_object_request.json", "unknown_method.json"};
  timing::SnapshotStore store = make_store();
  for (const char* file : files) {
    const std::string text = read_file(corpus_dir() / file);
    const serve::HandleResult r = serve::handle_line(store, text);
    EXPECT_FALSE(r.ok) << file;
    EXPECT_FALSE(r.shutdown) << file;
    const json::Value doc = require_response_shape(r.line);
    EXPECT_EQ(error_code_of(doc), "invalid-request") << file;
  }
}

// The acceptance property: EVERY corpus input, fed as one request line,
// yields one well-formed JSON error response.  handle_line never throws
// and never emits a malformed line.

TEST(ServeCorpus, EveryInputYieldsWellFormedErrorResponse) {
  timing::SnapshotStore store = make_store();
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus_dir())) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    const std::string text = read_file(entry.path());
    const serve::HandleResult r = serve::handle_line(store, text);
    EXPECT_FALSE(r.ok) << entry.path();
    const json::Value doc = require_response_shape(r.line);
    EXPECT_FALSE(error_code_of(doc).empty()) << entry.path();
  }
  EXPECT_GE(count, 12u) << "corpus shrank unexpectedly";
}

// ---------------------------------------------------------------------------
// parse_request

TEST(ServeParseRequest, ExtractsFields) {
  const serve::Request req = serve::parse_request(
      R"({"id": 7, "method": "analyze",
          "params": {"deadline_ms": 250, "stage_budget": 12}})");
  EXPECT_TRUE(req.id.is_number());
  EXPECT_EQ(req.id.as_number(), 7.0);
  EXPECT_EQ(req.method, "analyze");
  EXPECT_EQ(req.deadline_ms, 250.0);
  EXPECT_EQ(req.stage_budget, 12u);
}

TEST(ServeParseRequest, IdDefaultsToNullAndParamsToEmpty) {
  const serve::Request req = serve::parse_request(R"({"method": "ping"})");
  EXPECT_TRUE(req.id.is_null());
  EXPECT_TRUE(req.params.is_object());
  EXPECT_EQ(req.deadline_ms, 0.0);
  EXPECT_EQ(req.stage_budget, 0u);
}

TEST(ServeParseRequest, RejectsBadDeadlineAndBudgetTypes) {
  const char* bad[] = {
      R"({"method": "ping", "params": {"deadline_ms": "soon"}})",
      R"({"method": "ping", "params": {"deadline_ms": -5}})",
      R"({"method": "ping", "params": {"stage_budget": 1.5}})",
      R"({"method": "ping", "params": {"stage_budget": -2}})",
      R"({"method": "ping", "params": 3})",
  };
  for (const char* line : bad) {
    try {
      serve::parse_request(line);
      FAIL() << line;
    } catch (const core::DiagnosticError& e) {
      EXPECT_EQ(e.diagnostic().code, core::DiagCode::InvalidRequest)
          << line;
    }
  }
}

// ---------------------------------------------------------------------------
// dispatch / handle_line happy paths

TEST(ServeDispatch, PingAnalyzeStatsRoundTrip) {
  timing::SnapshotStore store = make_store();
  for (const char* line :
       {R"({"id": 1, "method": "ping"})", R"({"id": 2, "method": "analyze"})",
        R"({"id": 3, "method": "stats"})",
        R"({"id": 4, "method": "worst_paths", "params": {"k": 2}})"}) {
    const serve::HandleResult r = serve::handle_line(store, line);
    EXPECT_TRUE(r.ok) << line << " -> " << r.line;
    require_response_shape(r.line);
  }
}

// The path search keeps every expanded candidate on its heap, so the
// expansion cap bounds a query's memory: a client may lower it but not
// raise it past PathQuery's default.
TEST(ServeDispatch, WorstPathsRejectsMaxExpansionsAboveTheDefault) {
  timing::SnapshotStore store = make_store();
  const std::uint64_t cap = timing::PathQuery{}.max_expansions;
  auto request = [](std::uint64_t max_expansions) {
    return R"({"id": 1, "method": "worst_paths", "params": {"k": 2, )"
           R"("max_expansions": )" +
           std::to_string(max_expansions) + "}}";
  };
  for (const std::uint64_t ok : {std::uint64_t{1}, cap}) {
    const serve::HandleResult r = serve::handle_line(store, request(ok));
    EXPECT_TRUE(r.ok) << r.line;
    require_response_shape(r.line);
  }
  for (const std::uint64_t over : {cap + 1, std::uint64_t{1} << 40}) {
    const serve::HandleResult r = serve::handle_line(store, request(over));
    EXPECT_FALSE(r.ok) << r.line;
    const json::Value doc = require_response_shape(r.line);
    EXPECT_EQ(error_code_of(doc), "invalid-request") << r.line;
    EXPECT_NE(r.line.find("max_expansions"), std::string::npos) << r.line;
  }
}

TEST(ServeDispatch, StatsCacheObjectMirrorsCacheStatsExactly) {
  timing::SnapshotStore store = make_store();
  ASSERT_TRUE(
      serve::handle_line(store, R"({"id": 1, "method": "analyze"})").ok);
  const serve::HandleResult r =
      serve::handle_line(store, R"({"id": 2, "method": "stats"})");
  ASSERT_TRUE(r.ok) << r.line;
  const json::Value doc = require_response_shape(r.line);
  const json::Value* cache = doc.find("result")->find("cache");
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache->is_object());

  // One wire key per Session::CacheStats field, in declaration order,
  // carrying that field's value.  A field added to CacheStats without a
  // wire key (or the reverse) fails here: the size check counts fields.
  const timing::Session::CacheStats s = store.cache_stats();
  static_assert(sizeof(timing::Session::CacheStats) ==
                    11 * sizeof(std::uint64_t),
                "CacheStats gained or lost a field: update the wire "
                "object and this list");
  const std::vector<std::pair<std::string, double>> expected = {
      {"stage_entries", static_cast<double>(s.stage_entries)},
      {"lint_entries", static_cast<double>(s.lint_entries)},
      {"hits", static_cast<double>(s.hits)},
      {"misses", static_cast<double>(s.misses)},
      {"invalidations", static_cast<double>(s.invalidations)},
      {"evictions", static_cast<double>(s.evictions)},
      {"lint_hits", static_cast<double>(s.lint_hits)},
      {"lint_misses", static_cast<double>(s.lint_misses)},
      {"reduction_entries", static_cast<double>(s.reduction_entries)},
      {"reduction_hits", static_cast<double>(s.reduction_hits)},
      {"reduction_misses", static_cast<double>(s.reduction_misses)}};
  std::vector<std::pair<std::string, double>> wire;
  for (const auto& [key, value] : cache->items()) {
    ASSERT_TRUE(value.is_number()) << key;
    wire.emplace_back(key, value.as_number());
  }
  EXPECT_EQ(wire, expected);
  EXPECT_GT(s.stage_entries, 0u);  // the analyze above filled the cache
}

TEST(ServeDispatch, AuditReturnsSchemaVersionedReport) {
  timing::SnapshotStore store = make_store();
  const serve::HandleResult r = serve::handle_line(
      store,
      R"({"id": 5, "method": "audit", "params": {"fanout_limit": 8}})");
  EXPECT_TRUE(r.ok) << r.line;
  const json::Value doc = require_response_shape(r.line);
  const json::Value* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  const json::Value* version = result->find("audit_schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->as_number(), 1.0);
  const json::Value* report = result->find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_NE(report->find("errors"), nullptr);
  EXPECT_EQ(report->find("errors")->as_number(), 0.0);  // chain4 is clean
  EXPECT_NE(report->find("diagnostics"), nullptr);
  EXPECT_NE(report->find("nets"), nullptr);
}

TEST(ServeDispatch, IdIsEchoedVerbatim) {
  timing::SnapshotStore store = make_store();
  const serve::HandleResult r = serve::handle_line(
      store, R"({"id": {"tag": "x", "n": 3}, "method": "ping"})");
  const json::Value doc = require_response_shape(r.line);
  const json::Value* id = doc.find("id");
  ASSERT_NE(id, nullptr);
  ASSERT_TRUE(id->is_object());
  ASSERT_NE(id->find("tag"), nullptr);
  EXPECT_EQ(id->find("tag")->as_string(), "x");
}

TEST(ServeDispatch, MutationPublishesNewGeneration) {
  timing::SnapshotStore store = make_store();
  const auto before = store.current()->generation();
  const serve::HandleResult r = serve::handle_line(
      store,
      R"({"id": 1, "method": "set_gate",
          "params": {"gate": "g0", "drive_resistance": 1234.0}})");
  EXPECT_TRUE(r.ok) << r.line;
  EXPECT_EQ(store.current()->generation(), before + 1);
}

TEST(ServeDispatch, FailedMutationPublishesNothing) {
  timing::SnapshotStore store = make_store();
  const auto before = store.current()->generation();
  const serve::HandleResult r = serve::handle_line(
      store,
      R"({"id": 1, "method": "set_value",
          "params": {"net": "no_such_net", "element_index": 0,
                     "value": 1.0}})");
  EXPECT_FALSE(r.ok);
  const json::Value doc = require_response_shape(r.line);
  EXPECT_EQ(error_code_of(doc), "invalid-request");
  EXPECT_EQ(store.current()->generation(), before)
      << "a failed mutation must roll back by never publishing";
}

TEST(ServeDispatch, ShutdownSetsFlagAndStillResponds) {
  timing::SnapshotStore store = make_store();
  const serve::HandleResult r =
      serve::handle_line(store, R"({"id": 9, "method": "shutdown"})");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.shutdown);
  require_response_shape(r.line);
}

// ---------------------------------------------------------------------------
// Deadlines and budgets as structured responses

TEST(ServeDeadline, ExhaustedBudgetIsTypedErrorAndCacheStaysValid) {
  timing::SnapshotStore store = make_store();
  // chain12 is 12 stages; a budget of 2 cannot cover a cold analysis.
  serve::HandleResult r = serve::handle_line(
      store, R"({"id": 1, "method": "load_design",
                 "params": {"builtin": "chain12"}})");
  ASSERT_TRUE(r.ok) << r.line;
  r = serve::handle_line(
      store,
      R"({"id": 2, "method": "analyze", "params": {"stage_budget": 2}})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(error_code_of(require_response_shape(r.line)),
            "budget-exceeded");
  // The cancelled analysis left only fully-evaluated stages behind: the
  // retry without a budget succeeds and is bit-identical to a cold run
  // on a fresh store of the same design.
  r = serve::handle_line(store, R"({"id": 3, "method": "analyze"})");
  EXPECT_TRUE(r.ok) << r.line;
  timing::AnalysisOptions opt;
  opt.threads = 1;
  timing::SnapshotStore cold(serve::builtin_design("chain12"), opt);
  const serve::HandleResult reference =
      serve::handle_line(cold, R"({"id": 3, "method": "analyze"})");
  ASSERT_TRUE(reference.ok);
  const json::Value warm_doc = json::parse(r.line);
  const json::Value cold_doc = json::parse(reference.line);
  const std::string warm_print = timing_fingerprint(warm_doc);
  ASSERT_FALSE(warm_print.empty());
  EXPECT_EQ(warm_print, timing_fingerprint(cold_doc))
      << "a cancelled analysis must not corrupt the stage cache";
}

TEST(ServeDeadline, DefaultDeadlineAppliesWhenRequestHasNone) {
  timing::SnapshotStore store = make_store();
  serve::HandleOptions opts;
  opts.default_deadline_ms = 1e-6;  // effectively already expired
  const serve::HandleResult r = serve::handle_line(
      store, R"({"id": 1, "method": "analyze"})", opts);
  // The snapshot may have nothing to analyze yet (cold), so the token
  // must trip; a memoized report would legitimately succeed, but this
  // store is fresh.
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(error_code_of(require_response_shape(r.line)),
            "deadline-exceeded");
}

// ---------------------------------------------------------------------------
// design_from_json / builtin_design

TEST(ServeDesign, BuiltinsAreAnalyzable) {
  timing::AnalysisOptions opt;
  opt.threads = 1;
  for (const char* name : {"chain2", "chain8", "fanout2", "fanout6"}) {
    const timing::Design d = serve::builtin_design(name);
    const timing::TimingReport report = d.analyze(opt);
    EXPECT_GT(report.critical_delay, 0.0) << name;
  }
  // Determinism: the same name always builds the same design.
  const double a =
      serve::builtin_design("chain8").analyze(opt).critical_delay;
  const double b =
      serve::builtin_design("chain8").analyze(opt).critical_delay;
  EXPECT_EQ(a, b);
  for (const char* bad : {"chain1", "chain99999", "mesh4", "chain", ""}) {
    EXPECT_THROW(serve::builtin_design(bad), core::DiagnosticError) << bad;
  }
}

TEST(ServeDesign, FromJsonBuildsAnalyzableDesign) {
  const json::Value doc = json::parse(R"({
    "gates": [{"name": "drv", "drive_resistance": 150.0},
              {"name": "load", "input_capacitance": 10e-15}],
    "nets": [{"name": "n1", "driver": "drv",
              "sinks": {"load": "s"},
              "elements": [{"kind": "R", "a": "DRV", "b": "s",
                            "value": 100.0},
                           {"kind": "C", "a": "s", "b": "0",
                            "value": 20e-15}]}],
    "primary_inputs": ["drv"]})");
  const timing::Design d = serve::design_from_json(doc);
  timing::AnalysisOptions opt;
  opt.threads = 1;
  const timing::TimingReport report = d.analyze(opt);
  EXPECT_GT(report.critical_delay, 0.0);
}

// ---------------------------------------------------------------------------
// Sweeps: warm through the shared cache, bitwise what a cold run answers

// A store whose single net is large (80 parasitics) and whose endpoint
// requirement is pinned, so worst_slack carries the delay (a floating
// requirement pins it to 0).
constexpr double kRequiredTime = 2e-9;

timing::AnalysisOptions big_store_options() {
  timing::AnalysisOptions opt;
  opt.threads = 1;
  opt.required_time = kRequiredTime;
  return opt;
}

timing::SnapshotStore make_big_store() {
  return timing::SnapshotStore(
      timing::testutil::rc_line_design(13u, 40).design, big_store_options());
}

constexpr const char* kSweep =
    R"({"id": 1, "method": "sweep", "params": {
        "kind": "drive_resistance", "name": "drv",
        "values": [150.0, 300.0, 450.0]}})";

TEST(ServeSweep, PointsBitwiseEqualColdAnalyze) {
  timing::SnapshotStore store = make_big_store();
  // The second request still carries the retired "low_rank" parameter:
  // unknown params are ignored, so it succeeds with the same answer.
  const serve::HandleResult plain = serve::handle_line(store, kSweep);
  const serve::HandleResult legacy = serve::handle_line(
      store,
      R"({"id": 1, "method": "sweep", "params": {
          "kind": "drive_resistance", "name": "drv",
          "values": [150.0, 300.0, 450.0], "low_rank": false}})");
  ASSERT_TRUE(plain.ok) << plain.line;
  ASSERT_TRUE(legacy.ok) << legacy.line;
  const std::vector<double> values = {150.0, 300.0, 450.0};
  for (const serve::HandleResult* r : {&plain, &legacy}) {
    const json::Value doc = require_response_shape(r->line);
    const json::Value* result = doc.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("low_rank_points"), nullptr);
    EXPECT_EQ(result->find("low_rank_refactorizations"), nullptr);
    const json::Value* points = result->find("points");
    ASSERT_EQ(points->size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      timing::Session vehicle(store.current()->design(),
                              big_store_options());
      vehicle.set_drive_resistance("drv", values[i]);
      const timing::TimingReport cold =
          vehicle.design().analyze(big_store_options());
      ASSERT_NE(cold.worst_slack, 0.0);
      EXPECT_EQ(points->at(i).find("worst_slack")->as_number(),
                cold.worst_slack)
          << i;
    }
  }
}

TEST(ServeSweep, DeadlineMidSweepPublishesNothingAndCacheStaysWarm) {
  timing::SnapshotStore store = make_big_store();
  // Warm the baseline so the sweep fails mid-flight, not on point 1's
  // cold analysis.
  ASSERT_TRUE(
      serve::handle_line(store, R"({"id": 0, "method": "analyze"})").ok);
  const std::uint64_t generation_before = store.current()->generation();

  serve::HandleResult r = serve::handle_line(
      store,
      R"({"id": 1, "method": "sweep", "params": {
          "kind": "drive_resistance", "name": "drv",
          "values": [150.0, 300.0, 450.0], "stage_budget": 2}})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(error_code_of(require_response_shape(r.line)),
            "budget-exceeded");
  // A sweep mutates only its private scratch session: the cancelled run
  // published no generation and left the served design untouched.
  EXPECT_EQ(store.current()->generation(), generation_before);

  // The shared cache holds only fully evaluated stages: the retry
  // succeeds and answers exactly what a fresh store would.  The cost
  // counters (stages_reused / stages_recomputed) legitimately differ --
  // the warm cache is the whole point -- so compare the payload only.
  const auto sweep_payload = [](const std::string& line) {
    const json::Value doc = json::parse(line);
    const json::Value* result = doc.find("result");
    json::Value stripped = json::Value::object();
    for (const auto& [key, value] : result->items()) {
      if (key.find("stages_") != 0) {
        stripped.set(key, value);
      }
    }
    return stripped.dump();
  };
  r = serve::handle_line(store, kSweep);
  ASSERT_TRUE(r.ok) << r.line;
  timing::SnapshotStore fresh = make_big_store();
  const serve::HandleResult reference = serve::handle_line(fresh, kSweep);
  ASSERT_TRUE(reference.ok);
  EXPECT_EQ(sweep_payload(r.line), sweep_payload(reference.line));
}

// A loop through a declared primary input is not a combinational
// cycle: the input stays pinned at t = 0, so analysis and path search
// both terminate on a client-supplied feedback design.
TEST(ServeDesign, PrimaryInputFeedbackDesignAnalyzes) {
  timing::SnapshotStore store = make_store();
  serve::HandleResult r = serve::handle_line(
      store, R"({"id": 1, "method": "load_design", "params": {"design": {
        "gates": [{"name": "a"}, {"name": "b"}],
        "nets": [
          {"name": "nab", "driver": "a", "sinks": {"b": "w"},
           "elements": [{"kind": "R", "a": "DRV", "b": "w", "value": 250},
                        {"kind": "C", "a": "w", "b": "0", "value": 15e-15}]},
          {"name": "nba", "driver": "b", "sinks": {"a": "w"},
           "elements": [{"kind": "R", "a": "DRV", "b": "w", "value": 250},
                        {"kind": "C", "a": "w", "b": "0", "value": 15e-15}]}
        ],
        "primary_inputs": ["a"]}}})");
  ASSERT_TRUE(r.ok) << r.line;
  for (const char* line :
       {R"({"id": 2, "method": "analyze"})",
        R"({"id": 3, "method": "worst_paths", "params": {"k": 4}})"}) {
    r = serve::handle_line(store, line);
    EXPECT_TRUE(r.ok) << line << " -> " << r.line;
    require_response_shape(r.line);
  }
}

TEST(ServeDesign, FromJsonRejectsSchemaViolations) {
  const char* bad[] = {
      R"([1, 2])",
      R"({"gates": 3, "nets": [], "primary_inputs": []})",
      R"({"gates": [{"name": 7}], "nets": [], "primary_inputs": []})",
      R"({"gates": [{"name": "g"}], "nets": [{"name": "n",
          "driver": "g", "sinks": {}, "elements": [{"kind": "X",
          "a": "p", "b": "q", "value": 1.0}]}],
          "primary_inputs": ["g"]})",
  };
  for (const char* text : bad) {
    try {
      serve::design_from_json(json::parse(text));
      FAIL() << text;
    } catch (const core::DiagnosticError& e) {
      EXPECT_EQ(e.diagnostic().code, core::DiagCode::InvalidRequest)
          << text;
    }
  }
}

}  // namespace
}  // namespace awesim
