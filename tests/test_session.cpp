// timing::Session -- incremental what-if re-analysis.
//
// The contract under test: a warm Session::analyze() after any mutation
// is bit-identical (timing payload: delays, slews, arrivals, critical
// path, flags, diagnostics) to a cold Design::analyze() of the mutated
// design, at every thread count; reuse is visible only through the
// cache/stats counters; and a corrupted cache entry is dropped and
// recomputed -- never served stale.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "obs/trace.h"
#include "timing/session.h"
#include "timing/stage_cache.h"
#include "util/random_circuits.h"

namespace awesim::timing {

// Design generators and the payload comparator live in the shared test
// utility (tests/util/random_circuits.*), adopted here and by the
// warm-vs-cold tier in test_warm_session.cpp.
using testutil::c;
using testutil::chain_design;
using testutil::expect_same_cache_stats;
using testutil::expect_same_payload;
using testutil::expect_same_work_counters;
using testutil::fanout_design;
using testutil::r;

// One source gate driving `stages` single-RC nets in one wave, each to
// its own design output.  `tag` prefixes every net and output name, so
// two tags never share a cache key.
Design wide_design(const std::string& tag, std::size_t stages) {
  Design d;
  d.add_gate({"src", 1.0e3, 4e-15, 0.0});
  for (std::size_t i = 0; i < stages; ++i) {
    Net net;
    net.name = tag + std::to_string(i);
    net.parasitics = {r("DRV", "w", 100.0 + static_cast<double>(i)),
                      c("w", 10e-15)};
    net.sink_node["out_" + net.name] = "w";
    d.add_net("src", net);
  }
  return d;
}

TEST(Session, ColdRunMatchesDesignAnalyze) {
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(fanout_design(), opt);
  const TimingReport warm = session.analyze();
  const TimingReport cold = fanout_design().analyze(opt);
  expect_same_payload(warm, cold);
  // A first run computes everything.
  EXPECT_EQ(warm.awe_stats.stages_reused, 0u);
  EXPECT_EQ(warm.awe_stats.stages_recomputed, 4u);
}

TEST(Session, MutationBitIdenticalToColdAnalysisAtAnyThreadCount) {
  for (int threads : {1, 2, 8}) {
    AnalysisOptions opt;
    opt.threads = threads;
    Session session(fanout_design(), opt);
    (void)session.analyze();
    session.set_value("n2", 0, 777.0);  // resistor tweak on a mid stage
    const TimingReport warm = session.analyze();
    EXPECT_GT(warm.awe_stats.stages_reused, 0u)
        << "threads=" << threads;

    const Design mutated = session.design();
    const TimingReport cold = mutated.analyze(opt);
    expect_same_payload(warm, cold);
    EXPECT_EQ(cold.awe_stats.cache_hits, 0u);  // no cache on Design path
  }
}

TEST(Session, TopologyEditInvalidatesDownstreamOnly) {
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(chain_design(4), opt);  // stages n1, n2, n3
  const TimingReport first = session.analyze();
  EXPECT_EQ(first.awe_stats.stages_recomputed, 3u);

  // Adding a capacitor to n2 changes n2's content (recompute), and the
  // slew it feeds g3 (so n3 recomputes too) -- but upstream n1 is
  // untouched and must be served from cache.
  session.add_element("n2", c("w", 15e-15));
  const TimingReport warm = session.analyze();
  EXPECT_EQ(warm.awe_stats.stages_reused, 1u);
  EXPECT_EQ(warm.awe_stats.stages_recomputed, 2u);
  expect_same_payload(warm, session.design().analyze(opt));

  // Removing the appended element (index 4) restores the original
  // content: all three stages hit again.
  session.remove_element("n2", 4);
  const TimingReport back = session.analyze();
  EXPECT_EQ(back.awe_stats.stages_reused, 3u);
  EXPECT_EQ(back.awe_stats.stages_recomputed, 0u);
  expect_same_payload(back, first, /*compare_diagnostics=*/true);
}

TEST(Session, IntrinsicDelayEditRefactorsOneStageAndReusesDownstream) {
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(chain_design(4), opt);
  const TimingReport cold = session.analyze();
  const Session::CacheStats before = session.cache_stats();

  // Intrinsic delay shifts n2's delay (result key changes) but not the
  // stage circuit (content key unchanged: its lint report is replayed)
  // and not the slew n2 feeds g3 (n3's result key unchanged: served
  // with shifted arrivals).  n1 is untouched.
  session.set_intrinsic_delay("g2", 9e-12);
  const TimingReport warm = session.analyze();
  EXPECT_EQ(warm.awe_stats.stages_reused, 2u);
  EXPECT_EQ(warm.awe_stats.stages_recomputed, 1u);
  // Every stage is ramp-driven, so no stage walks the sigma-limit: the
  // cold run factors G once per stage, and the one recomputed stage
  // factors its G once, exactly as a cold run does.
  EXPECT_EQ(cold.awe_stats.factorizations, 3u);
  EXPECT_EQ(warm.awe_stats.factorizations, 1u);

  const Session::CacheStats after = session.cache_stats();
  // Two stage-result lookups hit (n1, n3) and one missed (n2), whose
  // content-keyed lint report hit.
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.lint_hits - before.lint_hits, 1u);

  expect_same_payload(warm, session.design().analyze(opt));
}

TEST(Session, CorruptedCacheEntryRecomputesNeverServesStale) {
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(chain_design(4), opt);
  const TimingReport fresh = session.analyze();

  {
    core::ScopedFaultInjection arm({{"session.cache", "n2", -1}});
    // n2's key is unchanged, so every armed lookup reaches its entry
    // through the net's memo: first the entry the fresh run inserted,
    // then the one the previous armed run re-inserted.
    for (std::uint64_t armed = 1; armed <= 2; ++armed) {
      SCOPED_TRACE("armed analyze " + std::to_string(armed));
      const TimingReport warm = session.analyze();
      // The corrupt entry was dropped and n2 recomputed through the
      // ordinary guarded path -- the timing payload matches a fresh
      // analysis exactly (never stale) ...
      expect_same_payload(warm, fresh, /*compare_diagnostics=*/false);
      EXPECT_EQ(warm.awe_stats.stages_recomputed, 1u);
      EXPECT_EQ(warm.awe_stats.stages_reused, 2u);
      // ... and the event is visible: exactly one CacheInvalidated
      // warning naming the net, plus the invalidation counter.
      std::size_t invalidation_records = 0;
      for (const auto& d : warm.diagnostics) {
        if (d.code == core::DiagCode::CacheInvalidated) {
          EXPECT_EQ(d.element, "n2");
          ++invalidation_records;
        }
      }
      EXPECT_EQ(invalidation_records, 1u);
      EXPECT_EQ(session.cache_stats().invalidations, armed);
    }
  }

  // Disarmed: the re-inserted entry serves again, no stale residue.
  const TimingReport after = session.analyze();
  expect_same_payload(after, fresh);
  EXPECT_EQ(after.awe_stats.stages_reused, 3u);
  EXPECT_EQ(session.cache_stats().invalidations, 2u);
}

TEST(Session, EvictedMemoEntryMissesLikeTheKeyPath) {
  // "keep" drives net k, whose key never changes, so its memo keeps
  // serving the entry the first analysis inserted (job 0: "keep" sorts
  // before "src" in wave 0).  Every edit re-keys the 64 nets of "src",
  // pushing 64 inserts through the FIFO store until k's entry, the
  // oldest, is evicted under its live memo.
  constexpr std::size_t kWide = 64;
  Design design = wide_design("w", kWide);
  design.add_gate({"keep", 800.0, 4e-15, 0.0});
  Net k;
  k.name = "k";
  k.parasitics = {r("DRV", "w", 150.0), c("w", 12e-15)};
  k.sink_node["out_k"] = "w";
  design.add_net("keep", k);

  AnalysisOptions opt;
  opt.threads = 1;
  Session memo(design, opt);
  // analyze(options()) rebinds the options, which rebuilds every key
  // and so clears every memo: the key path, lookup for lookup.
  Session keyed(design, opt);
  auto step = [&](const std::string& what) {
    SCOPED_TRACE(what);
    const TimingReport a = memo.analyze();
    const TimingReport b = keyed.analyze(keyed.options());
    expect_same_payload(a, b);
    expect_same_work_counters(a.awe_stats, b.awe_stats);
    expect_same_cache_stats(memo, keyed);
    return a;
  };
  (void)step("cold");

  int edit = 0;
  while (memo.cache_stats().evictions == 0) {
    ASSERT_LT(++edit, 100) << "the store never filled";
    memo.set_drive_resistance("src", 1.0e3 + edit);
    keyed.set_drive_resistance("src", 1.0e3 + edit);
    const TimingReport report = step("edit " + std::to_string(edit));
    // k is still served: it was looked up before this edit's inserts.
    EXPECT_EQ(report.awe_stats.stages_recomputed, kWide);
    EXPECT_EQ(report.awe_stats.stages_reused, 1u);
  }

  // k's entry went first; its memo expired with it, so k misses and
  // recomputes, bitwise a cold analysis.
  memo.set_drive_resistance("src", 2.0e3);
  keyed.set_drive_resistance("src", 2.0e3);
  const TimingReport report = step("after the eviction");
  EXPECT_EQ(report.awe_stats.stages_recomputed, kWide + 1);
  EXPECT_EQ(report.awe_stats.stages_reused, 0u);
  expect_same_payload(report, memo.design().analyze(opt));

  // The re-inserted entry serves again through the memo.
  const TimingReport again = step("unchanged");
  EXPECT_EQ(again.awe_stats.stages_reused, kWide + 1);
}

TEST(Session, WarmEditSpansCountTheLookupPassAndOnlyTheMisses) {
  if (!obs::tracing_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  struct TracingOn {
    bool was = obs::tracing_enabled();
    TracingOn() { obs::set_tracing(true); }
    ~TracingOn() { obs::set_tracing(was); }
  } tracing_on;
  const std::vector<std::string> spans = {"session.lookup", "stage.build",
                                          "mna.assemble", "parallel.job"};
  std::vector<std::vector<std::uint64_t>> counts;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    AnalysisOptions opt;
    opt.threads = threads;
    Session session(fanout_design(), opt);
    (void)session.analyze();
    // g4's input cap re-keys n2 and n3 (both in wave 1), and the new
    // arrival at g4 re-keys n4; n1 is served.
    session.set_input_capacitance("g4", 9e-15);
    const TimingReport warm = session.analyze();
    const std::uint64_t recomputed = warm.awe_stats.stages_recomputed;
    EXPECT_EQ(recomputed, 3u);
    EXPECT_EQ(warm.awe_stats.stages_reused, 1u);
    auto count = [&warm](const std::string& name) {
      for (const auto& p : warm.awe_stats.phases) {
        if (p.name == name) return p.stats.count;
      }
      return std::uint64_t{0};
    };
    // One pre-pass per wave with jobs; every wave of this design has
    // one.  Only the misses are built, stamped and handed to the pool.
    EXPECT_EQ(count("session.lookup"), warm.levels);
    EXPECT_EQ(count("stage.build"), recomputed);
    EXPECT_EQ(count("mna.assemble"), recomputed);
    EXPECT_EQ(count("parallel.job"), recomputed);
    counts.emplace_back();
    for (const std::string& span : spans) counts.back().push_back(count(span));
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(Session, SweepRestoresParameterAndSecondSweepFullyReuses) {
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(chain_design(4), opt);
  (void)session.analyze();

  const SweepParam param{SweepParam::Kind::NetElementValue, "n2", 0};
  const std::vector<double> values = {120.0, 240.0, 480.0};
  const SweepResult sweep1 = session.sweep(param, values);
  ASSERT_EQ(sweep1.points.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(sweep1.points[i].value, values[i]);
    EXPECT_EQ(sweep1.points[i].report.stages.size(), 3u);
  }
  // Each warm point is bit-identical to a cold analysis of that value.
  {
    Session cold_point(chain_design(4), opt);
    cold_point.set_value("n2", 0, 240.0);
    const Design d = cold_point.design();
    expect_same_payload(sweep1.points[1].report, d.analyze(opt));
  }
  // The sweep restored the original value: analyzing now reuses
  // everything the pre-sweep run cached.
  const TimingReport restored = session.analyze();
  EXPECT_EQ(restored.awe_stats.stages_reused, 3u);
  EXPECT_EQ(restored.awe_stats.stages_recomputed, 0u);

  // A second identical sweep is pure cache replay.
  const SweepResult sweep2 = session.sweep(param, values);
  EXPECT_EQ(sweep2.stages_recomputed, 0u);
  EXPECT_EQ(sweep2.stages_reused, sweep1.stages_reused +
                                      sweep1.stages_recomputed);
  for (std::size_t i = 0; i < values.size(); ++i) {
    expect_same_payload(sweep2.points[i].report, sweep1.points[i].report);
  }
}

TEST(Session, CacheCountersAreIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    AnalysisOptions opt;
    opt.threads = threads;
    Session session(fanout_design(), opt);
    (void)session.analyze();
    session.set_value("n1", 0, 175.0);
    (void)session.analyze();
    session.set_drive_resistance("g3", 1.4e3);
    const TimingReport last = session.analyze();
    return std::make_pair(session.cache_stats(), last);
  };
  const auto [stats1, report1] = run(1);
  const auto [stats8, report8] = run(8);
  EXPECT_EQ(stats1.hits, stats8.hits);
  EXPECT_EQ(stats1.misses, stats8.misses);
  EXPECT_EQ(stats1.invalidations, stats8.invalidations);
  EXPECT_EQ(stats1.evictions, stats8.evictions);
  EXPECT_EQ(stats1.stage_entries, stats8.stage_entries);
  EXPECT_EQ(stats1.lint_entries, stats8.lint_entries);
  EXPECT_EQ(report1.awe_stats.cache_hits, report8.awe_stats.cache_hits);
  EXPECT_EQ(report1.awe_stats.cache_misses,
            report8.awe_stats.cache_misses);
  expect_same_payload(report1, report8);
}

TEST(Session, OverlappingAnalysesCountOnlyTheirOwnEvictions) {
  // Two analyses of distinct designs over one shared cache, released
  // together, each inserting more stages than the cache holds.  Each
  // report counts the evictions its own inserts caused, so together they
  // account for the cache counter's delta exactly; a window over the
  // cache's lifetime counter would count the other analysis's evictions
  // too whenever the two overlap.
  auto cache = std::make_shared<detail::StageCache>();
  const std::size_t stages = detail::StageCache::kMaxStageEntries + 64;
  AnalysisOptions opt;
  opt.threads = 1;
  Session a(wide_design("a", stages), opt, cache);
  Session b(wide_design("b", stages), opt, cache);
  const std::uint64_t before = cache->counters().evictions;
  std::latch start(2);
  TimingReport report_a;
  TimingReport report_b;
  std::thread thread_a([&] {
    start.arrive_and_wait();
    report_a = a.analyze();
  });
  std::thread thread_b([&] {
    start.arrive_and_wait();
    report_b = b.analyze();
  });
  thread_a.join();
  thread_b.join();
  const std::uint64_t delta = cache->counters().evictions - before;
  EXPECT_GT(delta, 0u);
  EXPECT_EQ(report_a.awe_stats.cache_evictions +
                report_b.awe_stats.cache_evictions,
            delta);
}

TEST(Session, StageCacheEvictsOldestLiveEntryAndRequeuesReinsertedKeys) {
  // Drives one FIFO store directly through the reduction key space,
  // whose `reduce.cache` probe drops a single entry on demand.
  detail::StageCache cache;
  const std::size_t cap = detail::StageCache::kMaxReductionEntries;
  auto key = [](std::size_t i) {
    return detail::reduction_key("net" + std::to_string(i));
  };
  for (std::size_t i = 0; i < cap; ++i) cache.insert_reduction(key(i), {});
  EXPECT_EQ(cache.reduction_entries(), cap);
  // Inserting a present key is a no-op: key 1 keeps its place in line.
  cache.insert_reduction(key(1), {});
  // A dropped key that is inserted again requeues at the back.
  {
    core::ScopedFaultInjection inject({{"reduce.cache", "net0", 1}});
    core::Diagnostics diags;
    EXPECT_EQ(cache.lookup_reduction(key(0), "net0", &diags), nullptr);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags.front().code, core::DiagCode::CacheInvalidated);
  }
  EXPECT_EQ(cache.reduction_entries(), cap - 1);
  cache.insert_reduction(key(0), {});
  EXPECT_EQ(cache.counters().evictions, 0u);

  // One entry over the cap evicts the oldest live entry: key 1.
  cache.insert_reduction(key(cap), {});
  EXPECT_EQ(cache.reduction_entries(), cap);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.lookup_reduction(key(1), "net1", nullptr), nullptr);
  EXPECT_NE(cache.lookup_reduction(key(0), "net0", nullptr), nullptr);
  EXPECT_NE(cache.lookup_reduction(key(2), "net2", nullptr), nullptr);
  const detail::StageCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.invalidations, 1u);
  EXPECT_EQ(counters.reduction_hits, 2u);
  EXPECT_EQ(counters.reduction_misses, 2u);

  cache.clear();
  EXPECT_EQ(cache.reduction_entries(), 0u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(Session, MutatorValidation) {
  Session session(chain_design(3), {});
  EXPECT_THROW(session.set_value("nope", 0, 1.0), std::invalid_argument);
  EXPECT_THROW(session.set_value("n1", 99, 1.0), std::invalid_argument);
  EXPECT_THROW(session.remove_element("n1", 99), std::invalid_argument);
  EXPECT_THROW(session.set_drive_resistance("ghost", 1.0),
               std::invalid_argument);
  EXPECT_THROW(
      session.sweep({SweepParam::Kind::NetElementValue, "nope", 0}, {1.0}),
      std::invalid_argument);
}

}  // namespace awesim::timing
