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
// Two key spaces, serialized once per stage as one byte string:
//   * the *content key* covers exactly what the stage's MNA matrices are
//     built from (driver resistance, parasitic elements, sink hookups and
//     input caps) -- it addresses pre-flight lint reports, a pure
//     function of the stage circuit;
//   * the *result key* extends the content key with everything else the
//     stage timing depends on (gate/net names, intrinsic delay,
//     measurement thresholds, AWE order, the bitwise input slew) -- it
//     addresses finished StageTiming records, stored in stage-relative
//     form (input_arrival 0, sink arrivals = stage delays) and rehydrated
//     against the current input arrival on reuse.
// The content key is by construction the byte prefix of the result key,
// so a stage keeps one string and the lint store is looked up by its
// prefix.  A third store holds net reductions (src/reduce), under its own
// '\x01','R' key space (see reduction_key).
//
// There is no LU store: a recomputed stage factors G once, exactly as a
// cold analysis does (DESIGN.md §14 records why).
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
// Entry memo: the store holds each stage entry as the only owner of a
// shared_ptr, and a Session's per-net StageHint keeps a weak_ptr to the
// entry its key last hit or inserted.  A lookup first locks that memo
// and searches the index by key only when it has expired, so an
// unchanged stage is served by a handle instead of a multi-kilobyte key
// comparison.  An evicted, dropped or cleared entry dies with the
// store's pointer and expires every memo of it; rebuilding a hint's key
// clears its memo.  So a live memo always names the entry stored under
// the hint's key, and the memo changes no answer and no counter.
//
// Determinism: the analyzer performs all lookups in a serial pre-pass
// (job order) and all insertions in a serial post-pass, so hit/miss
// counters and FIFO eviction order are pure functions of the work
// sequence -- bit-identical across thread counts.  The cache itself is
// confined to that serial thread; the mutex is a cheap guard, not a
// concurrency feature.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
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
#include "timing/analyzer.h"

namespace awesim::timing::detail {

/// Serializes key material into exact bytes so two keys are equal iff
/// every contributing field is bitwise equal: single-byte tags separate
/// sections, integers and string lengths are LEB128 varints (7 bits a
/// byte, low group first, the high bit set on all but the last byte),
/// doubles are their 8 raw bytes.  Every field of a key's fixed schema
/// is self-delimiting, so equal bytes mean equal fields.
class KeyBuilder {
 public:
  KeyBuilder& tag(char t) {
    bytes_.push_back(t);
    return *this;
  }
  KeyBuilder& integer(std::uint64_t v) {
    char buf[10];
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) buf[n++] = static_cast<char>(v | 0x80);
    buf[n++] = static_cast<char>(v);
    bytes_.append(buf, n);
    return *this;
  }
  KeyBuilder& number(double v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    bytes_.append(buf, sizeof v);
    return *this;
  }
  KeyBuilder& text(std::string_view s) {
    integer(s.size());
    bytes_.append(s.data(), s.size());
    return *this;
  }

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

/// The stage-result key (key space two): content key plus names,
/// intrinsic delay, measurement options, order, and the bitwise input
/// slew.  Two jobs with equal result keys produce bitwise-equal
/// stage-relative timing.  Sets `*content_size` to the length of the
/// content-key prefix (key space one), which addresses the lint store.
std::string stage_result_key(const Gate& driver, const Net& net,
                             const std::map<std::string, Gate>& gates,
                             const AnalysisOptions& options, double in_slew,
                             std::size_t* content_size);

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

/// The reduction key space: '\x01','R' ahead of `content`, so it is
/// disjoint from the content and result keys, which open with the
/// content section's 'A'.  `content` is the caller-serialized byte
/// string covering the net's parasitics, boundary set, and reduction
/// settings (see reduce::reduction_content_key); it is the rest of the
/// key, so it needs no length, and it is prefixed in place.
std::string reduction_key(std::string content);

/// One cached stage result: the stage-relative timing and the checksum
/// taken at insert.  Immutable once stored; the StageCache is its only
/// owner, and StageHint memos observe it through weak_ptrs.
struct StageEntry {
  StageTiming timing;
  std::uint64_t checksum = 0;
};

class StageCache {
 public:
  /// FIFO eviction caps.  Stage records and lint reports are a handful
  /// of numbers and diagnostics each; a net reduction is a few dense
  /// (ports+states)^2 blocks, hence its lower cap.
  static constexpr std::size_t kMaxStageEntries = 4096;
  static constexpr std::size_t kMaxLintEntries = 4096;
  static constexpr std::size_t kMaxReductionEntries = 1024;

  /// Cumulative lifetime counters (never reset by analyze calls;
  /// cleared by clear()).  hits/misses count stage-result lookups;
  /// invalidations count entries dropped by checksum verification;
  /// evictions count FIFO drops at the capacity limits of every store.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t evictions = 0;
    /// Pre-flight lint lookups, counted apart from hits/misses.
    std::uint64_t lint_hits = 0;
    std::uint64_t lint_misses = 0;
    /// Net-reduction lookups, likewise counted apart (the repeated-cell
    /// dedup tests pin these directly).
    std::uint64_t reduction_hits = 0;
    std::uint64_t reduction_misses = 0;
  };

  /// Looks up the stage-relative StageTiming stored under `hint.key`:
  /// through the hint's entry memo while it lives, else by key.  Verifies
  /// the payload checksum (and consults the `session.cache` fault probe
  /// keyed by `net_name`); a failed verification drops the entry,
  /// appends a CacheInvalidated warning to `diags`, and reports a miss.
  /// A hit sets the memo.
  std::optional<StageTiming> lookup_stage(StageHint& hint,
                                          const std::string& net_name,
                                          core::Diagnostics* diags);

  /// Stores a stage-relative StageTiming under `hint.key` (no-op if the
  /// key is already present -- the payload would be bitwise identical)
  /// and points the hint's memo at the stored entry.  Returns the number
  /// of entries evicted to make room.
  std::size_t insert_stage(StageHint& hint, StageTiming relative);

  /// Pre-flight lint reports, keyed by the circuit-content key (the
  /// result key's prefix): the lint outcome is a pure function of the
  /// stage circuit's content.  No checksum defense here -- a lint report
  /// only gates *whether* a stage evaluates, and a stale entry cannot
  /// exist (content addressing); the fault-injection drill covers the
  /// stage records that actually carry timing.  insert_lint returns the
  /// number of entries evicted to make room.
  std::shared_ptr<const check::LintReport> lookup_lint(std::string_view key);
  std::size_t insert_lint(std::string_view key,
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
  /// Whether the reduction store holds `key`: a peek that counts
  /// nothing, verifies nothing and consults no fault probe.
  /// reduce::reduce_design uses it to pick the collapses it runs ahead
  /// on its pool; every net's counted lookup_reduction still follows.
  bool holds_reduction(std::string_view key) const;

  Counters counters() const;
  std::size_t stage_entries() const;
  std::size_t lint_entries() const;
  std::size_t reduction_entries() const;
  void clear();

 private:
  /// One FIFO-evicted store: `index_` owns each key once and maps it to
  /// the value's slot in `queue_`, which keeps insertion order and points
  /// back at the key.  Inserting a present key is a no-op; an erased key
  /// that is inserted again requeues at the back.  The index compares
  /// transparently, so a key prefix is looked up without a copy.
  template <typename V>
  class FifoStore {
   public:
    explicit FifoStore(std::size_t capacity) : capacity_(capacity) {}
    V* find(std::string_view key);
    bool contains(std::string_view key) const {
      return index_.find(key) != index_.end();
    }
    void erase(std::string_view key);
    /// Stores `value` under `key` unless present; returns the value
    /// stored under `key` (the present one, if any) and the number of
    /// oldest entries evicted to stay within capacity.
    std::pair<V*, std::size_t> insert(std::string_view key, V value);
    std::size_t size() const { return index_.size(); }
    void clear();

   private:
    struct Slot {
      const std::string* key;
      V value;
    };
    std::size_t capacity_;
    std::list<Slot> queue_;
    std::map<std::string, typename std::list<Slot>::iterator, std::less<>>
        index_;
  };

  struct ReductionEntry {
    std::shared_ptr<const CachedReduction> reduction;
    std::uint64_t checksum = 0;
  };

  mutable std::mutex mutex_;
  FifoStore<std::shared_ptr<const StageEntry>> stages_{kMaxStageEntries};
  FifoStore<std::shared_ptr<const check::LintReport>> lints_{
      kMaxLintEntries};
  FifoStore<ReductionEntry> reductions_{kMaxReductionEntries};
  Counters counters_;
};

}  // namespace awesim::timing::detail
