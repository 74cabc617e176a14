#include "timing/stage_cache.h"

#include <utility>

#include "core/fault.h"
#include "obs/trace.h"

namespace awesim::timing::detail {

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
  // ~20 bytes per parasitic (tag + two length-prefixed node names +
  // value) plus sink records and the fixed sections.
  kb.reserve(kb.bytes().size() + 24 * net.parasitics.size() +
             48 * net.sink_node.size() + 128);
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

std::string stage_result_key(const Gate& driver, const Net& net,
                             const std::map<std::string, Gate>& gates,
                             const AnalysisOptions& options, double in_slew,
                             std::size_t* content_size) {
  KeyBuilder kb;
  append_content_key(kb, driver, net, gates);
  *content_size = kb.bytes().size();
  kb.tag('B')
      .text(driver.name)
      .text(net.name)
      .number(driver.intrinsic_delay)
      .number(options.swing)
      .number(options.delay_threshold_fraction)
      .number(options.slew_low_fraction)
      .number(options.slew_high_fraction)
      .integer(static_cast<std::uint64_t>(options.order))
      .number(in_slew);
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

std::string reduction_key(std::string content) {
  content.insert(0, "\x01R", 2);
  return content;
}

template <typename V>
V* StageCache::FifoStore<V>::find(std::string_view key) {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second->value;
}

template <typename V>
void StageCache::FifoStore<V>::erase(std::string_view key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  queue_.erase(it->second);
  index_.erase(it);
}

template <typename V>
std::pair<V*, std::size_t> StageCache::FifoStore<V>::insert(
    std::string_view key, V value) {
  auto it = index_.lower_bound(key);
  if (it != index_.end() && it->first == key) {
    return {&it->second->value, 0};
  }
  it = index_.emplace_hint(it, std::string(key), queue_.end());
  it->second =
      queue_.insert(queue_.end(), Slot{&it->first, std::move(value)});
  // The new slot is the back of the queue, so eviction (from the front,
  // capacity >= 1) never reaches it.
  V* stored = &it->second->value;
  std::size_t evicted = 0;
  for (; index_.size() > capacity_; ++evicted) {
    AWESIM_TRACE_SPAN("session.invalidate");
    index_.erase(index_.find(*queue_.front().key));
    queue_.pop_front();
  }
  return {stored, evicted};
}

template <typename V>
void StageCache::FifoStore<V>::clear() {
  index_.clear();
  queue_.clear();
}

std::optional<StageTiming> StageCache::lookup_stage(
    StageHint& hint, const std::string& net_name,
    core::Diagnostics* diags) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The store is the memo's only owner and every store operation holds
  // mutex_, so a memo that locks here names the entry under hint.key.
  std::shared_ptr<const StageEntry> entry = hint.entry.lock();
  if (entry == nullptr) {
    if (const auto* stored = stages_.find(hint.key)) entry = *stored;
  }
  if (entry == nullptr) {
    ++counters_.misses;
    return std::nullopt;
  }
  const bool corrupt = core::fault_at("session.cache", net_name) ||
                       stage_checksum(entry->timing) != entry->checksum;
  if (corrupt) {
    AWESIM_TRACE_SPAN("session.invalidate");
    stages_.erase(hint.key);
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
  hint.entry = entry;
  return entry->timing;
}

std::size_t StageCache::insert_stage(StageHint& hint,
                                     StageTiming relative) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t checksum = stage_checksum(relative);
  const auto [stored, evicted] = stages_.insert(
      hint.key,
      std::make_shared<const StageEntry>(
          StageEntry{std::move(relative), checksum}));
  hint.entry = *stored;
  counters_.evictions += evicted;
  return evicted;
}

std::shared_ptr<const check::LintReport> StageCache::lookup_lint(
    std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto* report = lints_.find(key);
  if (report == nullptr) {
    ++counters_.lint_misses;
    return nullptr;
  }
  ++counters_.lint_hits;
  return *report;
}

std::size_t StageCache::insert_lint(
    std::string_view key, std::shared_ptr<const check::LintReport> report) {
  if (report == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t evicted = lints_.insert(key, std::move(report)).second;
  counters_.evictions += evicted;
  return evicted;
}

std::shared_ptr<const CachedReduction> StageCache::lookup_reduction(
    const std::string& key, const std::string& net_name,
    core::Diagnostics* diags) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ReductionEntry* entry = reductions_.find(key);
  if (entry == nullptr) {
    ++counters_.reduction_misses;
    return nullptr;
  }
  const bool corrupt = core::fault_at("reduce.cache", net_name) ||
                       reduction_checksum(*entry->reduction) !=
                           entry->checksum;
  if (corrupt) {
    AWESIM_TRACE_SPAN("session.invalidate");
    reductions_.erase(key);
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
  return entry->reduction;
}

void StageCache::insert_reduction(const std::string& key,
                                  CachedReduction reduction) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t checksum = reduction_checksum(reduction);
  ReductionEntry entry{
      std::make_shared<const CachedReduction>(std::move(reduction)),
      checksum};
  counters_.evictions += reductions_.insert(key, std::move(entry)).second;
}

bool StageCache::holds_reduction(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reductions_.contains(key);
}

StageCache::Counters StageCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t StageCache::stage_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_.size();
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
  lints_.clear();
  reductions_.clear();
  counters_ = {};
}

}  // namespace awesim::timing::detail
