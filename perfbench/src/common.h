// Shared plumbing for the benchmark workloads: seeded randomness,
// percentiles, the benchmark's own spans, and the result record every
// workload returns to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace awesim {}

namespace perfbench {

// The benchmark is a client of every AWEsim layer (timing::, audit::,
// reduce::, serve::, obs::, ...).
using namespace awesim;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seeded generator whose draws come straight from mt19937_64 words (no
/// std::*_distribution, whose output is implementation-defined), so one
/// seed gives byte-identical inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  /// Uniform in [0, 1).
  double unit();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::mt19937_64 engine_;
};

/// Linear-interpolated percentile (p in [0, 1]); NaN when empty.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// The benchmark's own spans: wall time of each public call it makes,
/// recorded by name around the call (never inside the program).  Only
/// the main thread records.
class Spans {
 public:
  void add(const std::string& name, double seconds) {
    samples_[name].push_back(seconds);
  }
  /// Sum of every recorded span, seconds.
  double total() const;
  /// Median of one span's samples, in ms (0 when never recorded).
  double median_ms(const std::string& name) const;
  const std::vector<double>* samples(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Time `fn()` into `spans` under `name` when spans is non-null.
template <typename Fn>
auto timed(Spans* spans, const std::string& name, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    if (spans != nullptr) spans->add(name, seconds_since(t0));
  } else {
    auto out = fn();
    if (spans != nullptr) spans->add(name, seconds_since(t0));
    return out;
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Correctness violations; any entry makes the run incorrect.
  std::vector<std::string> problems;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny designs and short windows, for the self-test.
  bool smoke = false;
};

/// Loop condition of the measured windows: at least `min` iterations,
/// then until --seconds have passed.  Smoke runs do exactly `min`, so
/// their counters repeat exactly from run to run.
inline bool keep_going(const Args& args, std::size_t i, std::size_t min,
                       Clock::time_point start) {
  return i < min || (!args.smoke && seconds_since(start) < args.seconds);
}

/// Set-ups per run.  More did not steady setup_s (its spread comes from
/// slow phases of the host that last longer than a run's set-up), and on
/// serve_mixed each extra daemon start left freed memory behind that made
/// peak_rss_mb vary from run to run.
constexpr int kSetupReps = 3;

/// Runs `setup()` kSetupReps times and returns the last result, storing
/// the median set-up time: set-up is repeated inside every run so setup_s
/// is a median, not one sample.  `setup` returns a std::unique_ptr, which
/// is released before the next repetition so peak memory counts one.
template <typename Fn>
auto repeated_setup(double* median_seconds, Fn&& setup) {
  std::vector<double> times;
  Clock::time_point t0 = Clock::now();
  auto out = setup();
  times.push_back(seconds_since(t0));
  for (int i = 1; i < kSetupReps; ++i) {
    out.reset();
    t0 = Clock::now();
    out = setup();
    times.push_back(seconds_since(t0));
  }
  *median_seconds = median(times);
  return out;
}

Outcome run_sta_wide_tree(const Args& args);
Outcome run_sta_deep_mesh(const Args& args);
Outcome run_eco_whatif(const Args& args);
Outcome run_serve_mixed(const Args& args);

}  // namespace perfbench
