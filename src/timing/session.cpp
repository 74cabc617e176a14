#include "timing/session.h"

#include <stdexcept>
#include <utility>

#include "timing/stage_cache.h"

namespace awesim::timing {

Session::Session(Design design, AnalysisOptions options)
    : Session(std::move(design), options, nullptr) {}

Session::Session(Design design, AnalysisOptions options,
                 std::shared_ptr<detail::StageCache> cache)
    : design_(std::move(design)),
      options_(options),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<detail::StageCache>()),
      stage_hints_(design_.nets_.size()) {}

Session::Session(Design design, AnalysisOptions options, SessionOptions,
                 std::shared_ptr<detail::StageCache> cache)
    : Session(std::move(design), options, std::move(cache)) {}

Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

TimingReport Session::analyze() {
  return detail::analyze_design(design_, options_, cache_.get(),
                                &stage_hints_);
}

TimingReport Session::analyze(const AnalysisOptions& options) {
  // Memoized key bytes encode the old options.
  invalidate_all_keys();
  options_ = options;
  return analyze();
}

Net& Session::net_ref(const std::string& net) {
  return design_.nets_[net_index(net)].net;
}

std::size_t Session::net_index(const std::string& net) {
  std::size_t found = design_.nets_.size();
  for (std::size_t i = 0; i < design_.nets_.size(); ++i) {
    if (design_.nets_[i].net.name == net) {
      if (found != design_.nets_.size()) {
        throw std::invalid_argument("Session: net name '" + net +
                                    "' is ambiguous");
      }
      found = i;
    }
  }
  if (found == design_.nets_.size()) {
    throw std::invalid_argument("Session: unknown net '" + net + "'");
  }
  return found;
}

Gate& Session::gate_ref(const std::string& gate) {
  const auto it = design_.gates_.find(gate);
  if (it == design_.gates_.end()) {
    throw std::invalid_argument("Session: unknown gate '" + gate + "'");
  }
  return it->second;
}

void Session::invalidate_keys(std::size_t net_idx) {
  stage_hints_[net_idx].keys_valid = false;
}

void Session::invalidate_all_keys() {
  for (detail::StageHint& hint : stage_hints_) {
    hint.keys_valid = false;
  }
}

void Session::set_value(const std::string& net, std::size_t element_index,
                        double value) {
  const std::size_t idx = net_index(net);
  Net& n = design_.nets_[idx].net;
  if (element_index >= n.parasitics.size()) {
    throw std::invalid_argument(
        "Session: element index " + std::to_string(element_index) +
        " out of range for net '" + net + "'");
  }
  invalidate_keys(idx);
  n.parasitics[element_index].value = value;
}

void Session::add_element(const std::string& net, NetElement element) {
  const std::size_t idx = net_index(net);
  invalidate_keys(idx);
  design_.nets_[idx].net.parasitics.push_back(std::move(element));
}

void Session::remove_element(const std::string& net,
                             std::size_t element_index) {
  const std::size_t idx = net_index(net);
  Net& n = design_.nets_[idx].net;
  if (element_index >= n.parasitics.size()) {
    throw std::invalid_argument(
        "Session: element index " + std::to_string(element_index) +
        " out of range for net '" + net + "'");
  }
  invalidate_keys(idx);
  n.parasitics.erase(n.parasitics.begin() +
                     static_cast<std::ptrdiff_t>(element_index));
}

void Session::set_drive_resistance(const std::string& gate, double value) {
  Gate& g = gate_ref(gate);
  for (std::size_t i = 0; i < design_.nets_.size(); ++i) {
    if (design_.nets_[i].driver == gate) invalidate_keys(i);
  }
  g.drive_resistance = value;
}

void Session::set_input_capacitance(const std::string& gate, double value) {
  Gate& g = gate_ref(gate);
  for (std::size_t i = 0; i < design_.nets_.size(); ++i) {
    if (design_.nets_[i].net.sink_node.count(gate) > 0) invalidate_keys(i);
  }
  g.input_capacitance = value;
}

void Session::set_intrinsic_delay(const std::string& gate, double value) {
  for (std::size_t i = 0; i < design_.nets_.size(); ++i) {
    // Intrinsic delay enters the result key but not the stage circuit:
    // the stage's cached lint report still hits, only its result misses.
    if (design_.nets_[i].driver == gate) invalidate_keys(i);
  }
  gate_ref(gate).intrinsic_delay = value;
}

double Session::current_value(const SweepParam& param) {
  switch (param.kind) {
    case SweepParam::Kind::NetElementValue: {
      Net& n = net_ref(param.name);
      if (param.element_index >= n.parasitics.size()) {
        throw std::invalid_argument(
            "Session: element index " + std::to_string(param.element_index) +
            " out of range for net '" + param.name + "'");
      }
      return n.parasitics[param.element_index].value;
    }
    case SweepParam::Kind::DriveResistance:
      return gate_ref(param.name).drive_resistance;
    case SweepParam::Kind::InputCapacitance:
      return gate_ref(param.name).input_capacitance;
    case SweepParam::Kind::IntrinsicDelay:
      return gate_ref(param.name).intrinsic_delay;
  }
  throw std::invalid_argument("Session: unknown sweep parameter kind");
}

void Session::apply_value(const SweepParam& param, double value) {
  switch (param.kind) {
    case SweepParam::Kind::NetElementValue:
      set_value(param.name, param.element_index, value);
      return;
    case SweepParam::Kind::DriveResistance:
      set_drive_resistance(param.name, value);
      return;
    case SweepParam::Kind::InputCapacitance:
      set_input_capacitance(param.name, value);
      return;
    case SweepParam::Kind::IntrinsicDelay:
      set_intrinsic_delay(param.name, value);
      return;
  }
  throw std::invalid_argument("Session: unknown sweep parameter kind");
}

SweepResult Session::sweep(const SweepParam& param,
                           const std::vector<double>& values) {
  // Reads (and validates) the parameter up front so the sweep can put
  // the design back exactly as it found it, even on a throwing point.
  const double original = current_value(param);
  SweepResult result;
  // The baseline is the design as it stands -- warm when the session
  // analyzed before, and every point's slack delta / critical-path
  // change is measured against it.
  result.baseline = analyze();
  result.points.reserve(values.size());
  try {
    for (const double v : values) {
      apply_value(param, v);
      SweepPoint point;
      point.value = v;
      point.report = analyze();
      point.worst_slack = point.report.worst_slack;
      point.slack_delta =
          point.report.worst_slack - result.baseline.worst_slack;
      point.critical_path_changed =
          point.report.critical_path != result.baseline.critical_path;
      result.stages_reused += point.report.awe_stats.stages_reused;
      result.stages_recomputed += point.report.awe_stats.stages_recomputed;
      result.points.push_back(std::move(point));
    }
  } catch (...) {
    apply_value(param, original);
    throw;
  }
  apply_value(param, original);
  return result;
}

PathsResult Session::worst_paths(const PathQuery& query) {
  return k_worst_paths(*analyze().graph, query);
}

double Session::worst_slack() { return analyze().worst_slack; }

Session::CacheStats Session::cache_stats() const {
  return cache_stats_of(*cache_);
}

Session::CacheStats Session::cache_stats_of(const detail::StageCache& cache) {
  const detail::StageCache::Counters c = cache.counters();
  CacheStats stats;
  stats.stage_entries = cache.stage_entries();
  stats.lint_entries = cache.lint_entries();
  stats.hits = c.hits;
  stats.misses = c.misses;
  stats.invalidations = c.invalidations;
  stats.evictions = c.evictions;
  stats.lint_hits = c.lint_hits;
  stats.lint_misses = c.lint_misses;
  stats.reduction_entries = cache.reduction_entries();
  stats.reduction_hits = c.reduction_hits;
  stats.reduction_misses = c.reduction_misses;
  return stats;
}

void Session::clear_cache() { cache_->clear(); }

}  // namespace awesim::timing
