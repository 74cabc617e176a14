#include "reduce/hier.h"

#include <stdexcept>
#include <utility>

#include "timing/stage_cache.h"

namespace awesim::reduce {

HierSession::HierSession(timing::Design design, timing::AnalysisOptions options,
                         ReduceOptions reduce_options,
                         std::shared_ptr<timing::detail::StageCache> cache)
    : cache_(cache != nullptr
                 ? std::move(cache)
                 : std::make_shared<timing::detail::StageCache>()),
      flat_(std::move(design), options, cache_),
      options_(options),
      reduce_options_(reduce_options),
      hints_(flat_.design().net_count()) {}

std::size_t HierSession::net_index(const std::string& net) const {
  const timing::Design& d = flat_.design();
  std::size_t found = d.net_count();
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    if (d.net_at(i).name == net) {
      if (found != d.net_count()) {
        throw std::invalid_argument("HierSession: net name '" + net +
                                    "' is ambiguous");
      }
      found = i;
    }
  }
  if (found == d.net_count()) {
    throw std::invalid_argument("HierSession: unknown net '" + net + "'");
  }
  return found;
}

bool HierSession::refresh_hints() {
  const timing::Design& d = flat_.design();
  if (hints_.size() < d.net_count()) hints_.resize(d.net_count());
  bool changed = false;
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    NetHint& hint = hints_[i];
    if (hint.valid) continue;
    const timing::Net& net = d.net_at(i);
    // Structural precheck: a net the gates refuse can never produce a
    // macromodel, so skip the store round-trip and the collapse attempt
    // entirely.  The hint pins to "flat" (nullptr artifact).
    if (net_eligibility(net, reduce_options_) != Eligibility::Eligible) {
      ++stats_.eligibility_skips;
      if (hint.cached != nullptr) changed = true;
      hint.cached.reset();
      hint.valid = true;
      continue;
    }
    bool hit = false;
    std::shared_ptr<const timing::detail::CachedReduction> cached =
        lookup_or_reduce(net, reduce_options_, cache_.get(), &pending_diags_,
                         &hit);
    if (hit) {
      ++stats_.reduction_cache_hits;
    } else {
      ++stats_.reductions_performed;
    }
    // Same artifact pointer => same stitched net; a hint invalidated by
    // a mutation that left the content bytes identical re-hits the same
    // store entry and triggers no rebuild.
    if (hint.cached.get() != cached.get()) changed = true;
    hint.cached = std::move(cached);
    hint.valid = true;
  }
  return changed;
}

void HierSession::rebuild_inner() {
  std::vector<std::shared_ptr<const timing::detail::CachedReduction>>
      reductions;
  reductions.reserve(hints_.size());
  for (const NetHint& hint : hints_) reductions.push_back(hint.cached);
  // The inner session shares the cache, so stage results and lint
  // reports of nets whose reduced content did not change keep hitting
  // across rebuilds.
  inner_.emplace(stitch_design(flat_.design(), reductions), options_, cache_);
  ++stats_.rebuilds;
}

timing::TimingReport HierSession::analyze() {
  const bool changed = refresh_hints();
  if (!inner_.has_value() || changed) rebuild_inner();
  timing::TimingReport report = inner_->analyze();
  // Reduction-layer records ride at the end of the report's diagnostics:
  // cache-corruption recoveries first (recorded in refresh order), then
  // the per-net refusal records, in net order -- deterministic at every
  // thread count, like everything else in the report.
  for (core::Diagnostic& diag : pending_diags_) {
    report.diagnostics.push_back(std::move(diag));
  }
  pending_diags_.clear();
  const timing::Design& d = flat_.design();
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const NetHint& hint = hints_[i];
    if (hint.cached == nullptr) continue;
    for (core::Diagnostic diag : hint.cached->diagnostics) {
      diag.element = d.net_at(i).name;
      report.diagnostics.push_back(std::move(diag));
    }
  }
  return report;
}

void HierSession::set_value(const std::string& net, std::size_t element_index,
                            double value) {
  const std::size_t idx = net_index(net);
  flat_.set_value(net, element_index, value);
  hints_[idx].valid = false;
}

void HierSession::add_element(const std::string& net,
                              timing::NetElement element) {
  const std::size_t idx = net_index(net);
  flat_.add_element(net, std::move(element));
  hints_[idx].valid = false;
}

void HierSession::remove_element(const std::string& net,
                                 std::size_t element_index) {
  const std::size_t idx = net_index(net);
  flat_.remove_element(net, element_index);
  hints_[idx].valid = false;
}

void HierSession::set_drive_resistance(const std::string& gate, double value) {
  // Gate parameters never enter a reduction key: forward to both views,
  // invalidate nothing, rebuild nothing.
  flat_.set_drive_resistance(gate, value);
  if (inner_.has_value()) inner_->set_drive_resistance(gate, value);
}

void HierSession::set_input_capacitance(const std::string& gate,
                                        double value) {
  flat_.set_input_capacitance(gate, value);
  if (inner_.has_value()) inner_->set_input_capacitance(gate, value);
}

void HierSession::set_intrinsic_delay(const std::string& gate, double value) {
  flat_.set_intrinsic_delay(gate, value);
  if (inner_.has_value()) inner_->set_intrinsic_delay(gate, value);
}

HierSession::Stats HierSession::stats() const {
  Stats s = stats_;
  s.nets_total = flat_.design().net_count();
  s.nets_reduced = 0;
  s.interior_eliminated = 0;
  s.macro_states = 0;
  for (const NetHint& hint : hints_) {
    if (!hint.valid || hint.cached == nullptr || !hint.cached->reduced) {
      continue;
    }
    ++s.nets_reduced;
    s.interior_eliminated += hint.cached->interior_eliminated;
    for (const timing::NetMacro& macro : hint.cached->macros) {
      s.macro_states += macro.states;
    }
  }
  return s;
}

timing::Session::CacheStats HierSession::cache_stats() const {
  return flat_.cache_stats();
}

void HierSession::clear_cache() {
  cache_->clear();
  for (NetHint& hint : hints_) {
    hint.valid = false;
    hint.cached.reset();
  }
  inner_.reset();
}

}  // namespace awesim::reduce
