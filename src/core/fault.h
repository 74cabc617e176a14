// Deterministic fault injection for the guarded AWE pipeline.
//
// Robustness code is only trustworthy if every fallback rung can be made
// to fire on demand: a singular pivot in the MNA factorization, an
// unstable eq. 24 match, a NaN residue, a thread-pool job that dies.
// FaultInjector is a process-wide registry of (site, key) rules consulted
// by narrow `fault_at()` probes compiled into the pipeline's failure
// points.  Sites are stable string names (see below); keys select one
// specific victim (a net name, an order) or "*" for any.
//
// Probe sites wired into the pipeline:
//   la.lu            key = matrix dimension     force a singular pivot
//   mna.factor       key = "*"                  singular G factorization
//   engine.moments   key = output node name     replace moments with NaN
//   engine.unstable  key = order q              flag the eq. 24 match unstable
//   engine.shift     key = order q              flag the shifted match unstable
//   engine.residue   key = order q              inject a NaN residue
//   pade.hankel      key = order q              reject the Hankel solve
//   timing.stage     key = net name             throw inside stage evaluation
//   parallel.job     key = net name             throw inside the pool job
//   session.cache    key = net name             treat the stage-cache entry
//                                               as corrupt (checksum fails;
//                                               the entry is dropped and the
//                                               stage recomputed)
//
// Injection is config/env-driven: tests arm rules programmatically
// (ScopedFaultInjection), operators can set AWESIM_FAULTS, e.g.
//   AWESIM_FAULTS="timing.stage:net3;engine.unstable:*"
// and a rule may carry a firing limit: "engine.unstable:3@2" fires twice.
//
// When the CMake option AWESIM_FAULT_INJECTION is OFF the probes compile
// to a constant `false` and the production binary carries no injection
// code at all.  When ON but disarmed (the default at runtime), a probe
// costs one relaxed atomic load.
//
// Determinism contract: rules without firing limits are pure functions of
// (site, key), so a run with N worker threads fires exactly the same
// faults as a serial run.  Firing limits are counted under a mutex and
// are deterministic only for single-threaded use.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef AWESIM_FAULT_INJECTION
#define AWESIM_FAULT_INJECTION 1
#endif

namespace awesim::core {

struct FaultRule {
  std::string site;
  std::string key = "*";  // "*" matches any key at the site
  /// Maximum number of firings; negative = unlimited.
  int fire_limit = -1;
};

class FaultInjector {
 public:
  /// The process-wide injector.  On first use, rules are loaded from the
  /// AWESIM_FAULTS environment variable if it is set.
  static FaultInjector& instance();

  /// Install `rules` and enable injection (replaces any previous set).
  void arm(std::vector<FaultRule> rules);

  /// Disable injection and clear all rules and counters.
  void disarm();

  bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// True if an armed rule matches; records the firing.  Called through
  /// fault_at(); not meant for direct use outside tests.
  bool should_fire(std::string_view site, std::string_view key);

  /// Number of firings recorded at a site (all keys).
  std::uint64_t fired(std::string_view site) const;

  /// Total firings since arm().
  std::uint64_t fired_total() const;

  /// Parse and arm rules from an AWESIM_FAULTS-style spec:
  /// "site:key;site:key@limit".  Returns false (and arms nothing) on an
  /// empty/absent spec.
  bool arm_spec(std::string_view spec);

 private:
  FaultInjector();

  mutable std::mutex mutex_;
  std::vector<FaultRule> rules_;
  std::vector<std::int64_t> remaining_;  // per-rule firings left (<0 = inf)
  std::vector<std::pair<std::string, std::uint64_t>> site_fired_;
  std::atomic<bool> enabled_{false};
};

/// Arms the injector with `rules` for the lifetime of the object, then
/// disarms.  The standard way tests drive the degradation ladder.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(std::vector<FaultRule> rules) {
    FaultInjector::instance().arm(std::move(rules));
  }
  ~ScopedFaultInjection() { FaultInjector::instance().disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

/// The probe compiled into pipeline failure points.
inline bool fault_at(std::string_view site, std::string_view key = "*") {
#if AWESIM_FAULT_INJECTION
  FaultInjector& fi = FaultInjector::instance();
  if (!fi.enabled()) return false;
  return fi.should_fire(site, key);
#else
  (void)site;
  (void)key;
  return false;
#endif
}

}  // namespace awesim::core
