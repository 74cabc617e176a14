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
#include <string>
#include <vector>

#include "core/fault.h"
#include "timing/session.h"
#include "util/random_circuits.h"

namespace awesim::timing {

// Design generators and the payload comparator live in the shared test
// utility (tests/util/random_circuits.*), adopted here and by the
// warm-vs-cold tier in test_warm_session.cpp.
using testutil::c;
using testutil::chain_design;
using testutil::expect_same_payload;
using testutil::fanout_design;

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

TEST(Session, IntrinsicDelayEditReusesLuAndDownstreamStages) {
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(chain_design(4), opt);
  const TimingReport cold = session.analyze();
  const Session::CacheStats before = session.cache_stats();

  // Intrinsic delay shifts n2's delay (result key changes) but not the
  // stage circuit (content key unchanged: the LU is adopted) and not the
  // slew n2 feeds g3 (n3's result key unchanged: served with shifted
  // arrivals).  n1 is untouched.
  session.set_intrinsic_delay("g2", 9e-12);
  const TimingReport warm = session.analyze();
  EXPECT_EQ(warm.awe_stats.stages_reused, 2u);
  EXPECT_EQ(warm.awe_stats.stages_recomputed, 1u);
  // Every stage is ramp-driven, so no stage walks the sigma-limit: the
  // cold run factors G once per stage, and the one recomputed stage
  // adopted the cached factorization of G and factors nothing.
  EXPECT_EQ(cold.awe_stats.factorizations, 3u);
  EXPECT_EQ(warm.awe_stats.factorizations, 0u);

  const Session::CacheStats after = session.cache_stats();
  // Three lookups hit: stage n1, stage n3, and n2's LU content key.
  EXPECT_EQ(after.hits - before.hits, 3u);

  expect_same_payload(warm, session.design().analyze(opt));
}

TEST(Session, CorruptedCacheEntryRecomputesNeverServesStale) {
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(chain_design(4), opt);
  const TimingReport fresh = session.analyze();

  {
    core::ScopedFaultInjection arm({{"session.cache", "n2", -1}});
    const TimingReport warm = session.analyze();
    // The corrupt entry was dropped and n2 recomputed through the
    // ordinary guarded path -- the timing payload matches a fresh
    // analysis exactly (never stale) ...
    expect_same_payload(warm, fresh, /*compare_diagnostics=*/false);
    EXPECT_EQ(warm.awe_stats.stages_recomputed, 1u);
    EXPECT_EQ(warm.awe_stats.stages_reused, 2u);
    // ... and the event is visible: a CacheInvalidated warning naming
    // the net, plus the invalidation counter.
    bool saw_invalidation = false;
    for (const auto& d : warm.diagnostics) {
      if (d.code == core::DiagCode::CacheInvalidated &&
          d.element == "n2") {
        saw_invalidation = true;
      }
    }
    EXPECT_TRUE(saw_invalidation);
    EXPECT_EQ(session.cache_stats().invalidations, 1u);
  }

  // Disarmed: the recomputed entry serves again, no stale residue.
  const TimingReport after = session.analyze();
  expect_same_payload(after, fresh);
  EXPECT_EQ(after.awe_stats.stages_reused, 3u);
  EXPECT_EQ(session.cache_stats().invalidations, 1u);
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
  EXPECT_EQ(stats1.factorization_entries, stats8.factorization_entries);
  EXPECT_EQ(report1.awe_stats.cache_hits, report8.awe_stats.cache_hits);
  EXPECT_EQ(report1.awe_stats.cache_misses,
            report8.awe_stats.cache_misses);
  expect_same_payload(report1, report8);
}

TEST(Session, FactorizationCacheEvictsFifoBeyondCapacity) {
  // 19 stages with 19 distinct circuits: more than the 16-entry LU cap.
  AnalysisOptions opt;
  opt.threads = 1;
  Session session(chain_design(20), opt);
  (void)session.analyze();
  const Session::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.stage_entries, 19u);
  EXPECT_EQ(stats.factorization_entries, 16u);
  EXPECT_EQ(stats.evictions, 3u);

  // Stage-result entries survived the LU evictions: a second run still
  // replays every stage.
  const TimingReport warm = session.analyze();
  EXPECT_EQ(warm.awe_stats.stages_reused, 19u);
  EXPECT_EQ(warm.awe_stats.stages_recomputed, 0u);
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
