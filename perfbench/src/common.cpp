#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <limits>

namespace perfbench {

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

double Rng::unit() {
  return static_cast<double>(engine_() >> 11) * (1.0 / 9007199254740992.0);
}

std::size_t Rng::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(engine_() % n);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  const double a = samples[lo];
  const double b = samples[hi];
  // Failed requests enter as +inf; never interpolate inf - inf.
  return frac == 0.0 || a == b ? a : a + (b - a) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Spans::total() const {
  double sum = 0.0;
  for (const auto& [name, v] : samples_) {
    for (double s : v) sum += s;
  }
  return sum;
}

double Spans::median_ms(const std::string& name) const {
  const auto it = samples_.find(name);
  if (it == samples_.end() || it->second.empty()) return 0.0;
  return median(it->second) * 1e3;
}

const std::vector<double>* Spans::samples(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? nullptr : &it->second;
}

}  // namespace perfbench
