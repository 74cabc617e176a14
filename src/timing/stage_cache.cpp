#include "timing/stage_cache.h"

#include <cstring>
#include <utility>

#include "core/fault.h"
#include "obs/trace.h"

namespace awesim::timing::detail {

KeyBuilder& KeyBuilder::integer(std::uint64_t v) {
  // One bulk append instead of 8 push_backs: key serialization is the
  // dominant cost of a warm cache lookup on kilo-element nets.  The
  // byte order stays explicitly little-endian so keys are identical to
  // what the per-byte loop produced.
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  bytes_.append(buf, sizeof buf);
  return *this;
}

KeyBuilder& KeyBuilder::number(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return integer(bits);
}

KeyBuilder& KeyBuilder::text(std::string_view s) {
  integer(s.size());
  bytes_.append(s.data(), s.size());
  return *this;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t stage_checksum(const StageTiming& timing) {
  KeyBuilder kb;
  kb.tag('T')
      .text(timing.driver_gate)
      .text(timing.net)
      .number(timing.input_arrival)
      .integer(static_cast<std::uint64_t>(timing.awe_order_used))
      .tag(timing.degraded ? 'd' : '-')
      .tag(timing.failed ? 'f' : '-');
  kb.tag('s').integer(timing.sinks.size());
  for (const auto& s : timing.sinks) {
    kb.text(s.gate).number(s.stage_delay).number(s.slew).number(s.arrival);
  }
  kb.tag('g').integer(timing.diagnostics.size());
  for (const auto& d : timing.diagnostics) {
    kb.integer(static_cast<std::uint64_t>(d.code))
        .integer(static_cast<std::uint64_t>(d.severity))
        .text(d.message)
        .text(d.element)
        .text(d.node);
  }
  return fnv1a(kb.bytes());
}

namespace {

void append_content_key(KeyBuilder& kb, const Gate& driver, const Net& net,
                        const std::map<std::string, Gate>& gates) {
  // ~40 bytes per parasitic (tag + two length-prefixed node names +
  // value) plus sink records and the fixed sections.
  kb.reserve(kb.bytes().size() + 48 * net.parasitics.size() +
             64 * net.sink_node.size() + 128);
  kb.tag('A').number(driver.drive_resistance);
  kb.tag('P').integer(net.parasitics.size());
  for (const auto& e : net.parasitics) {
    char kind = '?';
    switch (e.kind) {
      case NetElement::Kind::Resistor: kind = 'R'; break;
      case NetElement::Kind::Capacitor: kind = 'C'; break;
      case NetElement::Kind::Inductor: kind = 'L'; break;
    }
    kb.tag(kind).text(e.node_a).text(e.node_b).number(e.value);
  }
  // Boundary-block macromodels of reduced nets: every stamp entry is
  // content (two macros differing in one double are different circuits).
  kb.tag('M').integer(net.macros.size());
  for (const auto& m : net.macros) {
    kb.integer(m.ports.size()).integer(m.states);
    for (const auto& port : m.ports) kb.text(port);
    for (const double v : m.g) kb.number(v);
    for (const double v : m.c) kb.number(v);
    kb.number(m.sum_resistance).number(m.sum_capacitance);
  }
  // net.sink_node is a std::map: sinks serialize name-sorted, matching
  // the order build_stage walks them.  A sink's input cap enters the key
  // as the value actually stamped (0 when no capacitor is added).
  kb.tag('S').integer(net.sink_node.size());
  for (const auto& [sink, node] : net.sink_node) {
    const auto it = gates.find(sink);
    const double cin =
        (it != gates.end() && it->second.input_capacitance > 0.0)
            ? it->second.input_capacitance
            : 0.0;
    kb.text(sink).text(node).number(cin);
  }
}

}  // namespace

std::string stage_content_key(const Gate& driver, const Net& net,
                              const std::map<std::string, Gate>& gates) {
  KeyBuilder kb;
  append_content_key(kb, driver, net, gates);
  return kb.take();
}

std::string stage_result_key(const Gate& driver, const Net& net,
                             const std::map<std::string, Gate>& gates,
                             const AnalysisOptions& options, double in_slew) {
  KeyBuilder kb;
  append_content_key(kb, driver, net, gates);
  kb.tag('B')
      .text(driver.name)
      .text(net.name)
      .number(driver.intrinsic_delay)
      .number(options.swing)
      .number(options.delay_threshold_fraction)
      .number(options.slew_low_fraction)
      .number(options.slew_high_fraction)
      .integer(static_cast<std::uint64_t>(options.order))
      .number(in_slew)
      // The pre-flight toggle changes what a lint-rejected stage answers
      // with (raw evaluation vs the Elmore fallback), so a result cached
      // under one setting must not serve the other.
      .tag(options.preflight_lint ? 'l' : '-')
      // Different delay models give different numbers for the same
      // stage; one Session serves interleaved queries under several
      // models, so the kind must split the key space.
      .integer(static_cast<std::uint64_t>(options.delay_model));
  return kb.take();
}

std::uint64_t reduction_checksum(const CachedReduction& reduction) {
  KeyBuilder kb;
  kb.tag('R')
      .tag(reduction.reduced ? 'r' : '-')
      .integer(reduction.interior_eliminated);
  kb.tag('P').integer(reduction.parasitics.size());
  for (const auto& e : reduction.parasitics) {
    kb.integer(static_cast<std::uint64_t>(e.kind))
        .text(e.node_a)
        .text(e.node_b)
        .number(e.value);
  }
  kb.tag('M').integer(reduction.macros.size());
  for (const auto& m : reduction.macros) {
    kb.integer(m.ports.size()).integer(m.states);
    for (const auto& port : m.ports) kb.text(port);
    for (const double v : m.g) kb.number(v);
    for (const double v : m.c) kb.number(v);
    kb.number(m.sum_resistance).number(m.sum_capacitance);
  }
  kb.tag('g').integer(reduction.diagnostics.size());
  for (const auto& d : reduction.diagnostics) {
    kb.integer(static_cast<std::uint64_t>(d.code))
        .integer(static_cast<std::uint64_t>(d.severity))
        .text(d.message)
        .text(d.element)
        .text(d.node);
  }
  return fnv1a(kb.bytes());
}

std::string reduction_key(std::string_view content) {
  KeyBuilder kb;
  kb.reserve(content.size() + 16);
  kb.tag('\x01').tag('R');
  kb.text(content);
  return kb.take();
}

std::optional<StageTiming> StageCache::lookup_stage(
    const std::string& key, const std::string& net_name,
    core::Diagnostics* diags) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(key);
  if (it == stages_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  const bool corrupt = core::fault_at("session.cache", net_name) ||
                       stage_checksum(it->second.timing) !=
                           it->second.checksum;
  if (corrupt) {
    AWESIM_TRACE_SPAN("session.invalidate");
    stages_.erase(it);
    ++counters_.invalidations;
    ++counters_.misses;
    if (diags != nullptr) {
      core::Diagnostic d;
      d.code = core::DiagCode::CacheInvalidated;
      d.severity = core::Severity::Warning;
      d.message =
          "session stage-cache entry failed verification; dropped and "
          "recomputed";
      d.element = net_name;
      diags->push_back(std::move(d));
    }
    return std::nullopt;
  }
  AWESIM_TRACE_SPAN("session.reuse");
  ++counters_.hits;
  return it->second.timing;
}

void StageCache::insert_stage(const std::string& key, StageTiming relative) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stages_.count(key) > 0) return;
  StageEntry entry;
  entry.checksum = stage_checksum(relative);
  entry.timing = std::move(relative);
  entry.sequence = next_sequence_++;
  stage_order_.emplace_back(entry.sequence, key);
  stages_.emplace(key, std::move(entry));
  evict_stages_locked();
}

std::shared_ptr<const CachedFactorization> StageCache::lookup_factorization(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = factors_.find(key);
  if (it == factors_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  return it->second.factor;
}

void StageCache::insert_factorization(const std::string& key,
                                      CachedFactorization factor) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (factors_.count(key) > 0) return;
  FactorEntry entry;
  entry.factor =
      std::make_shared<const CachedFactorization>(std::move(factor));
  entry.sequence = next_sequence_++;
  factor_order_.emplace_back(entry.sequence, key);
  factors_.emplace(key, std::move(entry));
  evict_factors_locked();
}

std::shared_ptr<const check::LintReport> StageCache::lookup_lint(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = lints_.find(key);
  if (it == lints_.end()) {
    ++counters_.lint_misses;
    return nullptr;
  }
  ++counters_.lint_hits;
  return it->second.report;
}

void StageCache::insert_lint(const std::string& key,
                             std::shared_ptr<const check::LintReport> report) {
  if (report == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (lints_.count(key) > 0) return;
  LintEntry entry;
  entry.report = std::move(report);
  entry.sequence = next_sequence_++;
  lint_order_.emplace_back(entry.sequence, key);
  lints_.emplace(key, std::move(entry));
  evict_lints_locked();
}

std::shared_ptr<const CachedReduction> StageCache::lookup_reduction(
    const std::string& key, const std::string& net_name,
    core::Diagnostics* diags) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = reductions_.find(key);
  if (it == reductions_.end()) {
    ++counters_.reduction_misses;
    return nullptr;
  }
  const bool corrupt = core::fault_at("reduce.cache", net_name) ||
                       reduction_checksum(*it->second.reduction) !=
                           it->second.checksum;
  if (corrupt) {
    AWESIM_TRACE_SPAN("session.invalidate");
    reductions_.erase(it);
    ++counters_.invalidations;
    ++counters_.reduction_misses;
    if (diags != nullptr) {
      core::Diagnostic d;
      d.code = core::DiagCode::CacheInvalidated;
      d.severity = core::Severity::Warning;
      d.message =
          "cached net reduction failed verification; dropped and "
          "re-reduced";
      d.element = net_name;
      diags->push_back(std::move(d));
    }
    return nullptr;
  }
  ++counters_.reduction_hits;
  return it->second.reduction;
}

void StageCache::insert_reduction(const std::string& key,
                                  CachedReduction reduction) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (reductions_.count(key) > 0) return;
  ReductionEntry entry;
  entry.checksum = reduction_checksum(reduction);
  entry.reduction =
      std::make_shared<const CachedReduction>(std::move(reduction));
  entry.sequence = next_sequence_++;
  reduction_order_.emplace_back(entry.sequence, key);
  reductions_.emplace(key, std::move(entry));
  evict_reductions_locked();
}

void StageCache::evict_stages_locked() {
  while (stages_.size() > limits_.max_stage_entries &&
         !stage_order_.empty()) {
    const auto [seq, key] = stage_order_.front();
    stage_order_.pop_front();
    const auto it = stages_.find(key);
    if (it == stages_.end() || it->second.sequence != seq) continue;
    AWESIM_TRACE_SPAN("session.invalidate");
    stages_.erase(it);
    ++counters_.evictions;
  }
}

void StageCache::evict_factors_locked() {
  while (factors_.size() > limits_.max_factorizations &&
         !factor_order_.empty()) {
    const auto [seq, key] = factor_order_.front();
    factor_order_.pop_front();
    const auto it = factors_.find(key);
    if (it == factors_.end() || it->second.sequence != seq) continue;
    AWESIM_TRACE_SPAN("session.invalidate");
    factors_.erase(it);
    ++counters_.evictions;
  }
}

void StageCache::evict_lints_locked() {
  while (lints_.size() > limits_.max_lint_entries && !lint_order_.empty()) {
    const auto [seq, key] = lint_order_.front();
    lint_order_.pop_front();
    const auto it = lints_.find(key);
    if (it == lints_.end() || it->second.sequence != seq) continue;
    lints_.erase(it);
    ++counters_.evictions;
  }
}

void StageCache::evict_reductions_locked() {
  while (reductions_.size() > limits_.max_reduction_entries &&
         !reduction_order_.empty()) {
    const auto [seq, key] = reduction_order_.front();
    reduction_order_.pop_front();
    const auto it = reductions_.find(key);
    if (it == reductions_.end() || it->second.sequence != seq) continue;
    reductions_.erase(it);
    ++counters_.evictions;
  }
}

StageCache::Counters StageCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t StageCache::stage_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_.size();
}

std::size_t StageCache::factorization_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return factors_.size();
}

std::size_t StageCache::lint_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lints_.size();
}

std::size_t StageCache::reduction_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reductions_.size();
}

void StageCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_.clear();
  factors_.clear();
  lints_.clear();
  reductions_.clear();
  stage_order_.clear();
  factor_order_.clear();
  lint_order_.clear();
  reduction_order_.clear();
  counters_ = {};
  next_sequence_ = 0;
}

}  // namespace awesim::timing::detail
