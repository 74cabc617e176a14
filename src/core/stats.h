// Lightweight cost counters for the AWE pipeline.
//
// The paper's Fig. 19 argument is entirely about *where the work goes*:
// one LU factorization amortized over 2q-1 forward/back substitutions,
// then a tiny q x q match per observation point.  Stats makes that
// observable: the engine counts factorizations, substitutions, and
// moment matches and times each phase, and the timing analyzer sums the
// per-stage stats in a fixed order so parallel runs report identical
// numbers.  Counters are plain integers -- a Stats instance (like the
// Engine that fills it) belongs to one thread; aggregate across threads
// by merging per-thread instances with operator+=.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace awesim::core {

struct Stats {
  /// LU factorizations of (G + aC), all shifts included.
  std::uint64_t factorizations = 0;

  /// Forward/back substitutions with the cached factorization of G
  /// (moment recursion, particular solutions, equilibrium solves).
  std::uint64_t substitutions = 0;

  /// Hankel/root/Vandermonde moment matches (match_moments calls).
  std::uint64_t matches = 0;

  /// Output nodes approximated (one per Result produced).
  std::uint64_t outputs = 0;

  /// Timing stages evaluated (filled by timing::Design::analyze).
  std::uint64_t stages = 0;

  /// Incremental-session cache counters (see timing::Session and
  /// DESIGN.md "Incremental re-analysis").  `cache_hits`/`cache_misses`
  /// count individual cache lookups (stage results AND shared LU
  /// factorizations); `stages_reused`/`stages_recomputed` count whole
  /// stages served from the cache vs evaluated fresh.  All four stay 0
  /// for a plain Design::analyze (no cache attached) and are pure
  /// functions of the cache state, hence bit-identical across thread
  /// counts (lookups run in the serial pre-pass of each wavefront).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t stages_reused = 0;
  std::uint64_t stages_recomputed = 0;
  /// Cache entries FIFO-evicted at the capacity limits *during this
  /// analysis* (stage records, LU factorizations, and lint reports
  /// combined).  Zero on an unbounded-fit workload; nonzero means the
  /// working set outruns StageCache::Limits and warm speedups are
  /// partially lost -- previously invisible outside Session::
  /// cache_stats(), now in every report and bench snapshot.
  std::uint64_t cache_evictions = 0;

  /// Always 0: nothing writes it.  A leftover of the deleted low-rank
  /// warm path (DESIGN.md §14), kept only because the end-to-end
  /// benchmark (perfbench/src/eco.cpp), which may not change outside a
  /// benchmark change, still reads it for its `la.low_rank_ratio`
  /// metric.  Remove it together with that metric.
  std::uint64_t low_rank_points = 0;

  /// Pre-flight lint findings (src/check rule pipeline) tallied by the
  /// layer that ran the lint: Engine when EngineOptions::preflight_lint
  /// is on, the timing analyzer for its per-stage pre-flight.  Cached
  /// lint reports (timing::Session) re-count on every analyze, so the
  /// tallies are a property of the analyzed design, not of cache state.
  std::uint64_t lint_errors = 0;
  std::uint64_t lint_warnings = 0;

  /// Circuits whose pre-flight conditioning-oracle pass predicted the
  /// requested order lies outside the safe window (see
  /// EngineOptions::preflight_audit).  At most 1 per Engine; design-level
  /// runs sum over stages.
  std::uint64_t conditioning_hazards = 0;

  /// Degradation-ladder counters (see EngineOptions::degrade and
  /// DESIGN.md "Failure taxonomy").  Rung counters are per atom-match;
  /// degradations/failures are per output (worst rung of the Result).
  std::uint64_t window_shifts = 0;     // Section 3.3 shifted window engaged
  std::uint64_t order_stepdowns = 0;   // order stepped below the request
  std::uint64_t elmore_fallbacks = 0;  // flagged single-pole Elmore bound
  std::uint64_t degradations = 0;      // outputs answered below full quality
  std::uint64_t failures = 0;          // outputs with no transient model

  /// Wall time per phase, in seconds.
  double seconds_setup = 0.0;    // atom building: LU + particular solutions
  double seconds_moments = 0.0;  // moment recursion and gathering
  double seconds_match = 0.0;    // per-output pole/residue matching

  /// Fine-grained span-tracer breakdown (obs/trace.h taxonomy:
  /// mna.factor, engine.moments, pade.hankel, pade.roots,
  /// engine.residues, timing.stage, parallel.job).  Empty unless tracing
  /// is compiled in AND runtime-enabled; filled by the layers that own a
  /// measurement window (timing::Design::analyze, the bench harness).
  /// Span counts are deterministic across thread counts; the seconds
  /// fields are wall-clock measurements.
  obs::PhaseBreakdown phases;

  Stats& operator+=(const Stats& other);
  Stats& operator-=(const Stats& other);

  /// One-line human-readable rendering, for benches and reports.
  std::string summary() const;
};

Stats operator+(Stats a, const Stats& b);
Stats operator-(Stats a, const Stats& b);

/// Adds the elapsed wall time to a Stats seconds field on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& target)
      : target_(target), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    target_ += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& target_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace awesim::core
