// perfbench: the AWEsim end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics (program tracing off); --trace 1
// reports the per-layer metrics from a run that also repeats the
// workload with the program's span tracing on.  Correctness violations
// are listed on stderr and make the exit code 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

struct Name {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test checks it).
const Name kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.p90", "ms"},
};

const Name kPerLayer[] = {
    {"audit.parse_ms", "ms"},
    {"audit.audit_ms", "ms"},
    {"reduce.reduce_ms", "ms"},
    {"reduce.reduced_ratio", "ratio"},
    {"reduce.dedup_hit_ratio", "ratio"},
    {"timing.analyze_ms", "ms"},
    {"timing.graph_ms", "ms"},
    {"timing.paths_ms", "ms"},
    {"timing.levels", "count"},
    {"timing.stages_per_level", "count"},
    {"timing.thread_speedup", "ratio"},
    {"core.factorizations_per_stage", "count"},
    {"core.substitutions_per_stage", "count"},
    {"core.matches_per_stage", "count"},
    {"core.hankel_per_stage", "count"},
    {"accuracy.delay_err_max_s", "s"},
    {"timing.session_analyze_ms", "ms"},
    {"timing.recomputed_per_edit", "count"},
    {"timing.reused_per_edit", "count"},
    {"timing.cache_hit_ratio", "ratio"},
    {"timing.evictions_per_edit", "count"},
    {"la.low_rank_ratio", "ratio"},
    {"core.factorizations_per_edit", "count"},
    {"serve.read_ms.p50", "ms"},
    {"serve.read_ms.p99", "ms"},
    {"serve.write_ms.p50", "ms"},
    {"serve.write_ms.p99", "ms"},
    {"serve.handle_us.analyze", "us"},
    {"serve.handle_us.worst_paths", "us"},
    {"serve.handle_us.stats", "us"},
    {"serve.handle_us.set_value", "us"},
    {"serve.handle_us.set_gate", "us"},
    {"serve.transport_ms.p50", "ms"},
    {"serve.shed_ratio", "ratio"},
    {"serve.gen_late_ms.p99", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"bench.span_coverage", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sta_wide_tree|sta_deep_mesh|"
               "eco_whatif|serve_mixed --seed N --seconds S --trace 0|1 "
               "[--smoke]\n");
  return 2;
}

/// Emit exactly the metric set of the run mode: every listed name, in
/// list order.  A per-layer metric a workload does not exercise reads 0
/// (e.g. reduce.* outside sta_deep_mesh); an end-to-end metric must be
/// measured, so a missing one is a bug.
std::string result_json(const Outcome& out, bool trace) {
  std::map<std::string, Metric> got;
  for (const Metric& m : out.metrics) got[m.name] = m;
  std::string json = "{\"correct\": ";
  json += out.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Name* names, std::size_t count, bool required) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto it = got.find(names[i].name);
      if (it == got.end() && required) {
        throw std::logic_error(std::string("metric not measured: ") +
                               names[i].name);
      }
      double value = it == got.end() ? 0.0 : it->second.value;
      if (!std::isfinite(value)) {
        throw std::logic_error(std::string("metric not finite: ") +
                               names[i].name);
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      json += first ? "" : ", ";
      first = false;
      json += std::string("\"") + names[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + names[i].unit + "\"}";
    }
  };
  if (trace) {
    emit(kPerLayer, std::size(kPerLayer), false);
  } else {
    emit(kEndToEnd, std::size(kEndToEnd), true);
  }
  return json + "}}";
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) return usage();

  // Program tracing is runtime-off for every measured window regardless
  // of the environment; the traced run turns it on around its own pass.
  obs::set_tracing(false);
  Outcome out;
  if (args.workload == "sta_wide_tree") {
    out = run_sta_wide_tree(args);
  } else if (args.workload == "sta_deep_mesh") {
    out = run_sta_deep_mesh(args);
  } else if (args.workload == "eco_whatif") {
    out = run_eco_whatif(args);
  } else if (args.workload == "serve_mixed") {
    out = run_serve_mixed(args);
  } else {
    return usage();
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED [%s]: %s\n",
                 args.workload.c_str(), p.c_str());
  }
  const std::string json = result_json(out, args.trace);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}
