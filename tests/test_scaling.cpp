// The scaling tier: inputs that are cheap to write must cost linear time
// to answer.  Each case builds 1k, 4k and 16k instances of one pattern
// that a per-instance linear scan makes quadratic and asserts that the
// cost per instance at 4k and 16k stays within a fixed factor of the
// cost per instance at 1k -- a ratio bound, never an absolute time (a
// quadratic cost gives 16x at 16k; the bound allows 4x).  Each size
// reports its fastest of several repetitions, so a descheduled run on a
// shared host does not read as growth.  Registered under the ctest label
// "scaling".
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/design_netlist.h"
#include "check/lint.h"
#include "circuit/circuit.h"
#include "mna/system.h"
#include "obs/trace.h"

namespace awesim {
namespace {

constexpr std::size_t kSizes[] = {1000, 4000, 16000};
/// Allowed growth of the cost per instance over the 1k size.
constexpr double kSlack = 4.0;

/// Fastest wall time of `reps` runs of `run`.
double fastest_seconds(const std::function<void()>& run, int reps = 5) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, took.count());
  }
  return best;
}

/// `make(n)` builds the input of size n and returns the work to time.
void expect_linear(
    const std::function<std::function<void()>(std::size_t)>& make) {
  double base = 0.0;
  for (const std::size_t n : kSizes) {
    const std::function<void()> run = make(n);
    const double per_instance = fastest_seconds(run) / static_cast<double>(n);
    if (n == kSizes[0]) {
      base = per_instance;
      continue;
    }
    EXPECT_LT(per_instance, kSlack * base)
        << n << " instances cost " << per_instance / base
        << "x the per-instance time of " << kSizes[0];
  }
}

TEST(Scaling, LintOfCccsWithTheControlListedLast) {
  // n CCCS, each on its own node with a load, all controlled by one
  // V source that is the last card: every control resolves past every
  // other element.
  expect_linear([](std::size_t n) {
    auto text = std::make_shared<std::string>("* cccs chain\n");
    for (std::size_t i = 0; i < n; ++i) {
      const std::string k = std::to_string(i);
      *text += "F" + k + " n" + k + " 0 Vctl 2\nR" + k + " n" + k + " 0 1k\n";
    }
    *text += "Rin in 0 1k\nVctl in 0 DC 1\n";
    return [text] {
      const check::LintReport report = check::lint_text(*text, "chain.sp");
      ASSERT_TRUE(report.ok()) << core::to_string(report.diagnostics);
    };
  });
}

TEST(Scaling, PwlSourceEvents) {
  // One PWL source of n breakpoints: every stimulus segment is an
  // event of its own.
  expect_linear([](std::size_t n) {
    auto ckt = std::make_shared<circuit::Circuit>();
    const auto a = ckt->node("a");
    std::vector<std::pair<double, double>> points;
    for (std::size_t k = 0; k < n; ++k) {
      points.emplace_back(1e-12 * static_cast<double>(k),
                          static_cast<double>(k % 3));
    }
    ckt->add_vsource("V1", a, circuit::kGround,
                     circuit::Stimulus::pwl(points));
    ckt->add_resistor("R1", a, circuit::kGround, 1e3);
    const std::size_t segments = ckt->elements()[0].stimulus.segments().size();
    EXPECT_GT(segments, n / 2);
    return [ckt, segments] {
      const mna::MnaSystem mna(*ckt);
      ASSERT_EQ(mna.events().size(), segments);
    };
  });
}

/// A design of n small nets in a gate chain: long enough to parse in
/// many chunks.
std::string chain_design(std::size_t n) {
  std::string text = "* chain design\n";
  for (std::size_t i = 0; i <= n; ++i) {
    text += ".gate g" + std::to_string(i) + " rdrive=1k cin=2f delay=5p\n";
  }
  text += ".input g0\n";
  for (std::size_t i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    text += ".net g" + k + " w" + k +
            "\nR1 DRV a 10\nC1 a 0 1f\nR2 a b 12\nC2 b 0 2f\n"
            "R3 b S 8\nC3 S 0 1f\n.sink g" +
            std::to_string(i + 1) + " S\n.endnet\n";
  }
  return text + ".end\n";
}

TEST(Scaling, DesignParseAcrossManyChunks) {
  expect_linear([](std::size_t n) {
    auto text = std::make_shared<std::string>(chain_design(n));
    return [text, n] {
      const audit::DesignParse parse = audit::parse_design(*text, "chain");
      ASSERT_TRUE(parse.design.has_value());
      ASSERT_EQ(parse.design->net_count(), n);
    };
  });
  // The 16k text really is cut into chunks (at most one per pool
  // thread, and at least two on a host with two or more cores).
  if (obs::tracing_compiled_in()) {
    const std::string text = chain_design(16000);
    obs::set_tracing(true);
    const obs::PhaseBreakdown before = obs::snapshot();
    ASSERT_TRUE(audit::detail::parse_design(text, "chain", 8).design);
    std::uint64_t chunks = 0;
    for (const obs::NamedPhaseStats& p : obs::since(before)) {
      if (p.name == "audit.chunk") chunks = p.stats.count;
    }
    obs::set_tracing(false);
    EXPECT_EQ(chunks, 8u);
  }
}

}  // namespace
}  // namespace awesim
