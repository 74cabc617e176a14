// Content-addressed cache behind timing::Session -- the incremental
// re-analysis engine.
//
// AWE's pitch is reuse ("once the H-matrix is LU-factored the major task
// in computing even a large number of moments is trivial"), and the
// dominant interactive workload is not one cold analysis but thousands of
// nearly identical ones: driver sizing, R/C tweaks, ECO loops.  The cache
// exploits that redundancy at stage granularity with *content
// addressing*: every cached artifact is keyed by the exact serialized
// bytes of everything its value depends on, so a mutation never needs an
// explicit invalidation walk -- a changed element changes the key, the
// lookup misses, and the stage recomputes, while untouched stages (and
// downstream stages whose input slew is bitwise unchanged) keep hitting.
// Keys are compared as whole byte strings, never by hash, so collisions
// cannot alias two different circuits.
//
// Two key spaces:
//   * the *content key* covers exactly what the stage's MNA matrices are
//     built from (driver resistance, parasitic elements, sink hookups and
//     input caps) -- it addresses shared LU factorizations of G, adopted
//     into fresh MnaSystems via mna::MnaSystem::adopt_g_solver;
//   * the *result key* extends the content key with everything else the
//     stage timing depends on (gate/net names, intrinsic delay,
//     measurement thresholds, AWE order, the bitwise input slew) -- it
//     addresses finished StageTiming records, stored in stage-relative
//     form (input_arrival 0, sink arrivals = stage delays) and rehydrated
//     against the current input arrival on reuse.
//
// Two more stores ride alongside: pre-flight lint reports, keyed by the
// content key, and net reductions (src/reduce), under their own
// '\x01','R' key space (see reduction_key).  A warm stage therefore has
// exactly two ways to its LU: adopt the cached factorization of an equal
// content key, or factor fresh -- both bitwise what a cold analysis
// computes.
//
// `AnalysisOptions::threads` is deliberately absent from every key: the
// report contract is bit-identical results at any thread count, so a
// cache entry must be address-equal across thread counts too.
//
// Stale-entry defense: each stored stage carries an FNV-1a checksum of
// its payload, verified on every hit.  A failed verification (or an armed
// `session.cache` fault rule -- see core/fault.h) drops the entry,
// records a CacheInvalidated diagnostic, and forces a recompute through
// the ordinary guarded evaluation path, so a corrupted cache degrades
// through the ladder instead of ever serving stale data.
//
// Determinism: the analyzer performs all lookups in a serial pre-pass
// (job order) and all insertions in a serial post-pass, so hit/miss
// counters and FIFO eviction order are pure functions of the work
// sequence -- bit-identical across thread counts.  The cache itself is
// confined to that serial thread; the mutex is a cheap guard, not a
// concurrency feature.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/lint.h"
#include "core/diagnostic.h"
#include "mna/system.h"
#include "timing/analyzer.h"

namespace awesim::timing::detail {

/// Serializes key material into exact bytes (doubles by bit pattern,
/// strings length-prefixed, single-byte tags separating sections) so two
/// keys are equal iff every contributing field is bitwise equal.
class KeyBuilder {
 public:
  KeyBuilder& tag(char t) {
    bytes_.push_back(t);
    return *this;
  }
  KeyBuilder& integer(std::uint64_t v);
  KeyBuilder& number(double v);
  KeyBuilder& text(std::string_view s);

  /// Pre-size the byte buffer (keys for kilo-element nets reach tens of
  /// kilobytes; growing a std::string through that is measurable).
  void reserve(std::size_t n) { bytes_.reserve(n); }

  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// FNV-1a over a byte string; the stage-payload checksum.
std::uint64_t fnv1a(std::string_view bytes);

/// Checksum of everything a cached StageTiming serves back.
std::uint64_t stage_checksum(const StageTiming& timing);

/// The circuit-content key (key space one above): addresses the LU
/// factorization shared between content-identical stage circuits.
std::string stage_content_key(const Gate& driver, const Net& net,
                              const std::map<std::string, Gate>& gates);

/// The stage-result key (key space two): content key plus names,
/// intrinsic delay, measurement options, order, and the bitwise input
/// slew.  Two jobs with equal result keys produce bitwise-equal
/// stage-relative timing.
std::string stage_result_key(const Gate& driver, const Net& net,
                             const std::map<std::string, Gate>& gates,
                             const AnalysisOptions& options, double in_slew);

/// One shareable LU factorization of a stage circuit's G, with the
/// factor-time observables (gmin flag, diagnostics) that
/// MnaSystem::adopt_g_solver replays so adoption is invisible in the
/// report.
struct CachedFactorization {
  std::shared_ptr<const mna::Solver> solver;
  bool used_gmin = false;
  core::Diagnostics diagnostics;
};

/// One cached net reduction (src/reduce): the macro-replaced parasitic
/// view of a net's interconnect, stored name-agnostic -- the key covers
/// only the parasitics, the boundary node set, and the reduction
/// settings, so repeated cells (buses, clock trees) reduce once and
/// every instance rehydrates from this record.  `reduced == false` is a
/// negative cache: the net was examined and refused (too small, non-RC,
/// verification failure, injected fault), so instances analyze flat
/// without re-attempting the collapse; the refusal diagnostics ride
/// along for the report.
struct CachedReduction {
  /// Elements kept flat (the boundary-adjacent survivors).
  std::vector<NetElement> parasitics;
  /// Moment-matched boundary blocks replacing the interior.
  std::vector<NetMacro> macros;
  bool reduced = false;
  /// Interior nodes eliminated by the collapse (0 when refused).
  std::size_t interior_eliminated = 0;
  /// Reduction-time records (ReductionFallback /
  /// ReductionToleranceExceeded), replayed per rehydrated instance.
  core::Diagnostics diagnostics;
};

/// Checksum of everything a CachedReduction serves back (the FNV-1a
/// discipline of stage_checksum, applied to the reduction store).
std::uint64_t reduction_checksum(const CachedReduction& reduction);

/// The reduction key space: opens with '\x01','R' so it is disjoint
/// from the content and result keys, which open with the content
/// section's 'A'.
/// `content` is the caller-serialized byte string covering the net's
/// parasitics, boundary set, and reduction settings (see
/// reduce::reduction_content_key).
std::string reduction_key(std::string_view content);

class StageCache {
 public:
  struct Limits {
    /// FIFO-evicted caps: stage records are small, LU factors are the
    /// memory hog (a dense factor is O(n^2)), hence the asymmetry.
    std::size_t max_stage_entries = 4096;
    std::size_t max_factorizations = 16;
    /// Pre-flight lint reports are a handful of diagnostics each.
    std::size_t max_lint_entries = 4096;
    /// Net reductions: each entry is a few dense (ports+states)^2
    /// blocks -- heavier than a stage record, far lighter than an LU.
    std::size_t max_reduction_entries = 1024;
  };

  /// Cumulative lifetime counters (never reset by analyze calls;
  /// cleared by clear()).  hits/misses count individual lookups in both
  /// key spaces; invalidations count entries dropped by checksum
  /// verification; evictions count FIFO drops at the capacity limits.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t evictions = 0;
    /// Pre-flight lint lookups, counted apart from hits/misses so the
    /// existing stage/LU accounting (and the tests pinning it) stays
    /// byte-for-byte what it was before the lint cache existed.
    std::uint64_t lint_hits = 0;
    std::uint64_t lint_misses = 0;
    /// Net-reduction lookups, likewise counted apart (the repeated-cell
    /// dedup tests pin these directly).
    std::uint64_t reduction_hits = 0;
    std::uint64_t reduction_misses = 0;
  };

  explicit StageCache(Limits limits) : limits_(limits) {}
  StageCache() : StageCache(Limits()) {}

  /// Looks up a stage-relative StageTiming.  Verifies the payload
  /// checksum (and consults the `session.cache` fault probe keyed by
  /// `net_name`); a failed verification drops the entry, appends a
  /// CacheInvalidated warning to `diags`, and reports a miss.
  std::optional<StageTiming> lookup_stage(const std::string& key,
                                          const std::string& net_name,
                                          core::Diagnostics* diags);

  /// Stores a stage-relative StageTiming (no-op if the key is already
  /// present -- the payload would be bitwise identical).
  void insert_stage(const std::string& key, StageTiming relative);

  std::shared_ptr<const CachedFactorization> lookup_factorization(
      const std::string& key);
  void insert_factorization(const std::string& key,
                            CachedFactorization factor);

  /// Pre-flight lint reports, keyed by the circuit-content key: the
  /// lint outcome is a pure function of the stage circuit's content, so
  /// it shares the factorization key space.  No checksum defense here --
  /// a lint report only gates *whether* a stage evaluates, and a stale
  /// entry cannot exist (content addressing); the fault-injection drill
  /// covers the stage records that actually carry timing.
  std::shared_ptr<const check::LintReport> lookup_lint(
      const std::string& key);
  void insert_lint(const std::string& key,
                   std::shared_ptr<const check::LintReport> report);

  /// Net reductions, keyed by reduction_key() bytes.  Verifies the
  /// payload checksum (and consults the `reduce.cache` fault probe
  /// keyed by `net_name`); a failed verification drops the entry,
  /// appends a CacheInvalidated warning to `diags`, and misses -- the
  /// caller re-reduces through the ordinary guarded path.
  std::shared_ptr<const CachedReduction> lookup_reduction(
      const std::string& key, const std::string& net_name,
      core::Diagnostics* diags);
  void insert_reduction(const std::string& key, CachedReduction reduction);

  Counters counters() const;
  std::size_t stage_entries() const;
  std::size_t factorization_entries() const;
  std::size_t lint_entries() const;
  std::size_t reduction_entries() const;
  void clear();

 private:
  struct StageEntry {
    StageTiming timing;
    std::uint64_t checksum = 0;
    std::uint64_t sequence = 0;
  };
  struct FactorEntry {
    std::shared_ptr<const CachedFactorization> factor;
    std::uint64_t sequence = 0;
  };
  struct LintEntry {
    std::shared_ptr<const check::LintReport> report;
    std::uint64_t sequence = 0;
  };
  struct ReductionEntry {
    std::shared_ptr<const CachedReduction> reduction;
    std::uint64_t checksum = 0;
    std::uint64_t sequence = 0;
  };

  void evict_stages_locked();
  void evict_factors_locked();
  void evict_lints_locked();
  void evict_reductions_locked();

  Limits limits_;
  mutable std::mutex mutex_;
  std::map<std::string, StageEntry> stages_;
  std::map<std::string, FactorEntry> factors_;
  std::map<std::string, LintEntry> lints_;
  std::map<std::string, ReductionEntry> reductions_;
  // FIFO queues of (sequence, key); a queued key is only evicted while
  // its sequence still matches the live entry (re-inserted keys requeue).
  std::deque<std::pair<std::uint64_t, std::string>> stage_order_;
  std::deque<std::pair<std::uint64_t, std::string>> factor_order_;
  std::deque<std::pair<std::uint64_t, std::string>> lint_order_;
  std::deque<std::pair<std::uint64_t, std::string>> reduction_order_;
  Counters counters_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace awesim::timing::detail
