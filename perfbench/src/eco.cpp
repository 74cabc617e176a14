// eco_whatif: a closed loop of single edits on one warm timing::Session,
// each answered by worst_slack().  The design is a forest of shallow
// binary gate trees whose nets are distinct few-hundred-node meshes, so
// an edit's fan-out cone is a handful of stages, and there are far more
// big nets than StageCache::Limits::max_factorizations holds.  The edit
// mix is R/C value edits, gate drive-resistance edits, and undos of the
// previous edit (which hit stage results cached for the earlier state).
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "audit/design_netlist.h"
#include "common.h"
#include "gen.h"
#include "obs/trace.h"
#include "timing/session.h"

namespace perfbench {

namespace {

DesignSpec eco_spec(bool smoke) {
  DesignSpec s;
  s.topology = DesignSpec::Topology::BinaryTree;
  s.roots = smoke ? 2 : 8;
  s.gates_per_root = smoke ? 15 : 31;
  s.shape = DesignSpec::NetShape::Mesh;
  s.nodes_lo = smoke ? 60 : 150;
  s.nodes_hi = smoke ? 90 : 300;
  return s;
}

timing::AnalysisOptions eco_options() {
  timing::AnalysisOptions options;
  options.threads = 4;
  return options;
}

/// The seeded edit stream.  Undo restores the value the previous edit
/// overwrote, so the session revisits a state whose stage results are
/// still cached.
class Editor {
 public:
  explicit Editor(std::uint64_t seed) : rng_(seed ^ 0xec0ULL) {}

  /// Apply the next edit to the session (spans time the mutator).
  void next(timing::Session& session, Spans* spans) {
    const timing::Design& d = session.design();
    const double u = rng_.unit();
    if (u < 0.25 && has_last_) {
      has_last_ = false;
      apply(session, last_, last_.old_value, spans);
      return;
    }
    Edit e;
    if (u < 0.625) {
      e.net = rng_.below(d.net_count());
      const timing::Net& net = d.net_at(e.net);
      e.element = rng_.below(net.parasitics.size());
      e.old_value = net.parasitics[e.element].value;
    } else {
      e.net = kGateEdit;
      e.gate = d.net_driver(rng_.below(d.net_count()));
      e.old_value = d.gates().at(e.gate).drive_resistance;
    }
    apply(session, e, e.old_value * rng_.uniform(0.5, 2.0), spans);
    last_ = e;
    has_last_ = true;
  }

 private:
  static constexpr std::size_t kGateEdit = static_cast<std::size_t>(-1);
  struct Edit {
    std::size_t net = 0;
    std::size_t element = 0;
    std::string gate;
    double old_value = 0.0;
  };

  static void apply(timing::Session& session, const Edit& e, double value,
                    Spans* spans) {
    timed(spans, "timing.mutate_ms", [&] {
      if (e.net == kGateEdit) {
        session.set_drive_resistance(e.gate, value);
      } else {
        session.set_value(session.design().net_at(e.net).name, e.element,
                          value);
      }
    });
  }

  Rng rng_;
  Edit last_;
  bool has_last_ = false;
};

struct EditCounters {
  std::uint64_t recomputed = 0;
  std::uint64_t reused = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t low_rank = 0;
  std::uint64_t factorizations = 0;
};

}  // namespace

Outcome run_eco_whatif(const Args& args) {
  Outcome out;
  const DesignSpec spec = eco_spec(args.smoke);
  double setup_s = 0.0;
  // Set-up: generate, parse, open the session, and analyze cold once so
  // the measured edits start from a warm session.
  const auto owned = repeated_setup(&setup_s, [&] {
    audit::DesignParse parse =
        audit::parse_design(design_text(spec, args.seed), "eco.design");
    if (!parse.design) throw std::runtime_error("eco design does not parse");
    auto s = std::make_unique<timing::Session>(std::move(*parse.design),
                                               eco_options());
    s->analyze();
    return s;
  });
  timing::Session& session = *owned;
  Editor editor(args.seed);

  // The closed loop: edit, then worst_slack() (a warm analyze).  In the
  // traced run edits alternate between tracing off and on; traced edits
  // call analyze() -- worst_slack() is analyze().worst_slack -- to read
  // the report's per-edit counters.
  std::vector<double> edit_ms;
  std::vector<double> traced_ms;
  Spans spans;
  EditCounters c;
  double traced_wall = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_going(args, i, 40, start); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    obs::set_tracing(traced);
    const Clock::time_point t0 = Clock::now();
    ++out.attempted;
    try {
      if (traced) {
        editor.next(session, &spans);
        const timing::TimingReport r =
            timed(&spans, "timing.session_analyze_ms",
                  [&] { return session.analyze(); });
        c.recomputed += r.awe_stats.stages_recomputed;
        c.reused += r.awe_stats.stages_reused;
        c.hits += r.awe_stats.cache_hits;
        c.misses += r.awe_stats.cache_misses;
        c.evictions += r.awe_stats.cache_evictions;
        c.low_rank += r.awe_stats.low_rank_points;
        c.factorizations += r.awe_stats.factorizations;
        if (!std::isfinite(r.worst_slack)) ++out.failed;
      } else {
        editor.next(session, nullptr);
        if (!std::isfinite(session.worst_slack())) ++out.failed;
      }
    } catch (const std::exception&) {
      ++out.failed;
    }
    const double took = seconds_since(t0);
    obs::set_tracing(false);
    (traced ? traced_ms : edit_ms).push_back(took * 1e3);
    if (traced) traced_wall += took;
  }
  const double loop_s = seconds_since(start);
  const double rss_mb = peak_rss_mb();  // before the checks' own memory

  // Correctness: the warm report against a fresh cold analysis of the
  // edited design, within the low-rank warm path's tolerance.
  const timing::TimingReport warm = session.analyze();
  const timing::TimingReport cold = session.design().analyze(eco_options());
  double delay_err = 0.0;
  bool same_shape = warm.stages.size() == cold.stages.size();
  for (std::size_t i = 0; same_shape && i < warm.stages.size(); ++i) {
    const auto& a = warm.stages[i].sinks;
    const auto& b = cold.stages[i].sinks;
    same_shape = a.size() == b.size();
    for (std::size_t k = 0; same_shape && k < a.size(); ++k) {
      delay_err = std::max(delay_err,
                           std::fabs(a[k].stage_delay - b[k].stage_delay));
    }
  }
  out.check(same_shape, "warm and cold reports have different stages");
  out.check(delay_err <= 1e-9, "warm delays differ from cold by " +
                                   std::to_string(delay_err) + " s");
  out.check(out.failed == 0, "edits failed");

  if (!args.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("throughput_per_s",
               static_cast<double>(edit_ms.size()) / loop_s, "1/s");
    out.metric("latency_ms.p50", percentile(edit_ms, 0.5), "ms");
    out.metric("latency_ms.p90", percentile(edit_ms, 0.9), "ms");
    return out;
  }
  const double edits = static_cast<double>(traced_ms.size());
  out.metric("timing.session_analyze_ms",
             spans.median_ms("timing.session_analyze_ms"), "ms");
  out.metric("timing.recomputed_per_edit",
             static_cast<double>(c.recomputed) / edits, "count");
  out.metric("timing.reused_per_edit", static_cast<double>(c.reused) / edits,
             "count");
  out.metric("timing.cache_hit_ratio",
             static_cast<double>(c.hits) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, c.hits + c.misses)),
             "ratio");
  out.metric("timing.evictions_per_edit",
             static_cast<double>(c.evictions) / edits, "count");
  out.metric("la.low_rank_ratio",
             static_cast<double>(c.low_rank) /
                 static_cast<double>(std::max<std::uint64_t>(1, c.recomputed)),
             "ratio");
  out.metric("core.factorizations_per_edit",
             static_cast<double>(c.factorizations) / edits, "count");
  out.metric("accuracy.delay_err_max_s", delay_err, "s");
  out.metric("obs.trace_overhead_ratio",
             percentile(traced_ms, 0.5) / percentile(edit_ms, 0.5) - 1.0,
             "ratio");
  out.metric("bench.span_coverage", spans.total() / traced_wall, "ratio");
  return out;
}

}  // namespace perfbench
