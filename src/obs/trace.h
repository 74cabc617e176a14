// Phase-level scoped-span tracing for the AWE pipeline.
//
// The paper's headline claim is quantitative (Section I: a thousand times
// faster than simulation), so every perf PR needs to know *where the wall
// time goes*: the one-off LU factorization, the 2q-1 substitution moment
// recursion, the tiny q x q Hankel/root/residue matches, the timing
// wavefront jobs.  A span marks one executed phase instance:
//
//   void MnaSystem::factor(...) {
//     AWESIM_TRACE_SPAN("mna.factor");
//     ...
//   }
//
// Spans aggregate per phase name -- count, total/min/max wall seconds --
// into a process-wide registry that is safe to feed from the timing
// analyzer's worker threads (each Phase guards its accumulator with its
// own mutex; the name lookup is cached per call site in a function-local
// static).  Span *counts* are pure functions of the work performed, so
// they are bit-identical across thread counts; the seconds fields are
// wall-clock measurements and are not.
//
// The canonical span taxonomy (DESIGN.md section 9):
//   mna.assemble     one MNA stamp of an Engine's circuit (G, C, b)
//   mna.factor       one (G + aC) LU factorization
//   engine.atoms     one Engine's stimulus atoms: equilibrium and
//                    particular solutions, index-1 structure check,
//                    atom right-hand sides (mna.factor of G inside)
//   engine.moments   moment-vector advancement / gathering
//   pade.hankel      eq. 24 Hankel assembly + LU solve
//   pade.roots       eq. 25 characteristic-polynomial rooting
//   engine.residues  eq. 20/29 (confluent) Vandermonde residue solve
//   timing.stage     one stage evaluation in the timing analyzer
//   stage.build      one stage circuit built from its gate and net
//                    (driver ramp, parasitics, sink input caps)
//   stage.crossings  delay/slew threshold extraction for one stage sink
//                    (one grid scan for all levels)
//   parallel.job     one thread-pool job (wraps timing.stage)
//   graph.build      one pin-DAG build with both propagation passes
//                    (one per analysis, kept in its report)
//   paths.search     one K-worst path query (k_worst_paths)
//   check.lint       one static lint pass over a circuit
//   audit.parse      one design-netlist parse (audit::parse_design)
//   audit.chunk      one chunk of a chunked design parse, on the pool
//   audit.graph      the audit's graph tier
//   audit.classes    content keys serialized (on the pool) and nets
//                    grouped into content classes (once per
//                    audit_design)
//   audit.conditioning  the conditioning tier (audit.cell included)
//   audit.cell       one content class's eligibility and oracle topology
//   audit.repetition the repetition tier
//   reduce.key       the reduction keys of one reduce_design: content
//                    keys serialized on the pool and grouped into
//                    classes; or one net's key serialized in
//                    reduce::lookup_or_reduce
//   reduce.collapse  one net reduction attempt (reduce::reduce_net)
//   reduce.commit    reduce_design's serial net-order pass through the
//                    reduction store (lookups, inserts, tallies)
//   session.lookup   one wave's serial cache pre-pass (keys, stage and
//                    lint lookups) in a Session analysis
//   session.reuse    one stage served from the Session stage cache
//                    (verified hit in the serial pre-pass)
//   session.invalidate  one cache entry dropped (failed verification
//                    or evicted); the stage is recomputed
//
// Cost model, so instrumentation can stay in hot paths:
//   * compiled out (-DAWESIM_TRACING=OFF): the macro expands to nothing;
//     zero code, zero data;
//   * compiled in, runtime-disabled (the default): one relaxed atomic
//     load per span;
//   * enabled (obs::set_tracing(true) or env AWESIM_TRACE=1): two
//     steady_clock reads plus one short mutex-protected accumulate.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef AWESIM_TRACING_ENABLED
#define AWESIM_TRACING_ENABLED 1
#endif

namespace awesim::obs {

/// Aggregate of all spans recorded against one phase name.
struct PhaseStats {
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;  // 0 while count == 0
  double max_seconds = 0.0;

  void record(double seconds) {
    if (count == 0 || seconds < min_seconds) min_seconds = seconds;
    if (seconds > max_seconds) max_seconds = seconds;
    total_seconds += seconds;
    ++count;
  }

  /// Fold another aggregate in (counts and totals add, extrema widen).
  void merge(const PhaseStats& other) {
    if (other.count == 0) return;
    if (count == 0 || other.min_seconds < min_seconds) {
      min_seconds = other.min_seconds;
    }
    if (other.max_seconds > max_seconds) max_seconds = other.max_seconds;
    count += other.count;
    total_seconds += other.total_seconds;
  }
};

struct NamedPhaseStats {
  std::string name;
  PhaseStats stats;
};

/// A snapshot of the whole registry, sorted by phase name.
using PhaseBreakdown = std::vector<NamedPhaseStats>;

/// True when the span macro compiles to real instrumentation.
constexpr bool tracing_compiled_in() { return AWESIM_TRACING_ENABLED != 0; }

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail

/// Runtime gate.  Defaults to the AWESIM_TRACE environment variable
/// (1/on/true); flip programmatically with set_tracing.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing(bool enabled);

/// One named accumulator.  Stable address for the lifetime of the
/// process; spans record into it under its private mutex.
class Phase {
 public:
  explicit Phase(std::string name) : name_(std::move(name)) {}
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  const std::string& name() const { return name_; }

  void record(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.record(seconds);
  }

  PhaseStats read() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = PhaseStats{};
  }

 private:
  std::string name_;
  mutable std::mutex mutex_;
  PhaseStats stats_;
};

/// Look up (or create) the accumulator for `name`.  The returned
/// reference never dangles; call sites cache it in a static.
Phase& phase(std::string_view name);

/// All phases with at least one recorded span, sorted by name.
PhaseBreakdown snapshot();

/// Zero every accumulator (phases stay registered).
void reset_phases();

/// The delta `now - before` per phase: counts and totals subtract
/// (clamped at zero), phases that saw no new spans are dropped.  The
/// min/max fields are the extrema *since the registry was last reset*,
/// not of the window, because extrema are not recoverable from two
/// aggregates.
PhaseBreakdown since(const PhaseBreakdown& before);

/// Merge `from` into `into` by phase name, keeping `into` sorted.
void merge_into(PhaseBreakdown& into, const PhaseBreakdown& from);

/// Subtract `what` from `into` by phase name (counts/totals clamped at
/// zero; entries that reach zero count are dropped).
void subtract_into(PhaseBreakdown& into, const PhaseBreakdown& what);

/// RAII span: measures construction-to-destruction wall time into a
/// Phase.  When tracing is runtime-disabled the constructor is one
/// relaxed atomic load and the destructor a null check.
class Span {
 public:
  explicit Span(Phase& target) {
    if (tracing_enabled()) {
      target_ = &target;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~Span() {
    if (target_ != nullptr) {
      target_->record(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Phase* target_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace awesim::obs

#define AWESIM_OBS_CONCAT2(a, b) a##b
#define AWESIM_OBS_CONCAT(a, b) AWESIM_OBS_CONCAT2(a, b)

#if AWESIM_TRACING_ENABLED
/// Open a scoped span against phase `name` (a string literal from the
/// taxonomy above).  The phase lookup happens once per call site.
#define AWESIM_TRACE_SPAN(name)                                         \
  static ::awesim::obs::Phase& AWESIM_OBS_CONCAT(                       \
      awesim_obs_phase_, __LINE__) = ::awesim::obs::phase(name);        \
  ::awesim::obs::Span AWESIM_OBS_CONCAT(awesim_obs_span_, __LINE__)(    \
      AWESIM_OBS_CONCAT(awesim_obs_phase_, __LINE__))
#else
#define AWESIM_TRACE_SPAN(name) \
  do {                          \
  } while (false)
#endif
