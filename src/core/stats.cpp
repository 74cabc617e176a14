#include "core/stats.h"

#include <cstdio>

namespace awesim::core {

Stats& Stats::operator+=(const Stats& other) {
  factorizations += other.factorizations;
  substitutions += other.substitutions;
  matches += other.matches;
  outputs += other.outputs;
  stages += other.stages;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  stages_reused += other.stages_reused;
  stages_recomputed += other.stages_recomputed;
  cache_evictions += other.cache_evictions;
  lint_errors += other.lint_errors;
  lint_warnings += other.lint_warnings;
  conditioning_hazards += other.conditioning_hazards;
  window_shifts += other.window_shifts;
  order_stepdowns += other.order_stepdowns;
  elmore_fallbacks += other.elmore_fallbacks;
  degradations += other.degradations;
  failures += other.failures;
  seconds_setup += other.seconds_setup;
  seconds_moments += other.seconds_moments;
  seconds_match += other.seconds_match;
  obs::merge_into(phases, other.phases);
  return *this;
}

Stats& Stats::operator-=(const Stats& other) {
  factorizations -= other.factorizations;
  substitutions -= other.substitutions;
  matches -= other.matches;
  outputs -= other.outputs;
  stages -= other.stages;
  cache_hits -= other.cache_hits;
  cache_misses -= other.cache_misses;
  stages_reused -= other.stages_reused;
  stages_recomputed -= other.stages_recomputed;
  cache_evictions -= other.cache_evictions;
  lint_errors -= other.lint_errors;
  lint_warnings -= other.lint_warnings;
  conditioning_hazards -= other.conditioning_hazards;
  window_shifts -= other.window_shifts;
  order_stepdowns -= other.order_stepdowns;
  elmore_fallbacks -= other.elmore_fallbacks;
  degradations -= other.degradations;
  failures -= other.failures;
  seconds_setup -= other.seconds_setup;
  seconds_moments -= other.seconds_moments;
  seconds_match -= other.seconds_match;
  obs::subtract_into(phases, other.phases);
  return *this;
}

Stats operator+(Stats a, const Stats& b) { return a += b; }
Stats operator-(Stats a, const Stats& b) { return a -= b; }

std::string Stats::summary() const {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof buf,
      "%llu LU, %llu subst, %llu matches, %llu outputs, "
      "%llu stages | setup %.3g ms, moments %.3g ms, "
      "match %.3g ms",
      static_cast<unsigned long long>(factorizations),
      static_cast<unsigned long long>(substitutions),
      static_cast<unsigned long long>(matches),
      static_cast<unsigned long long>(outputs),
      static_cast<unsigned long long>(stages), seconds_setup * 1e3,
      seconds_moments * 1e3, seconds_match * 1e3);
  if (degradations + failures > 0 && n > 0 &&
      static_cast<std::size_t>(n) < sizeof buf) {
    n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                       " | %llu degraded (%llu shift, %llu stepdown, "
                       "%llu elmore), %llu failed",
                       static_cast<unsigned long long>(degradations),
                       static_cast<unsigned long long>(window_shifts),
                       static_cast<unsigned long long>(order_stepdowns),
                       static_cast<unsigned long long>(elmore_fallbacks),
                       static_cast<unsigned long long>(failures));
  }
  if (lint_errors + lint_warnings > 0 && n > 0 &&
      static_cast<std::size_t>(n) < sizeof buf) {
    n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                       " | lint %llu error, %llu warning",
                       static_cast<unsigned long long>(lint_errors),
                       static_cast<unsigned long long>(lint_warnings));
  }
  if (cache_hits + cache_misses > 0 && n > 0 &&
      static_cast<std::size_t>(n) < sizeof buf) {
    n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                       " | cache %llu hit, %llu miss "
                       "(%llu stages reused, %llu recomputed)",
                       static_cast<unsigned long long>(cache_hits),
                       static_cast<unsigned long long>(cache_misses),
                       static_cast<unsigned long long>(stages_reused),
                       static_cast<unsigned long long>(stages_recomputed));
  }
  if (cache_evictions > 0 && n > 0 &&
      static_cast<std::size_t>(n) < sizeof buf) {
    std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                  " | %llu evicted",
                  static_cast<unsigned long long>(cache_evictions));
  }
  return buf;
}

}  // namespace awesim::core
