// The static-audit case of the unified runner:
//
//   * audit.mega_10k (quick tier): the full three-tier audit (graph
//     rules, conditioning oracle, repetition analysis) over a generated
//     10,000-net mesh fabric (100 interior nodes per cell, 8 repeated
//     variants -- 1M interconnect nodes total), against a cold flat
//     analysis of the same design as the reference.  The contract is
//     that the pre-flight is nearly free: the audit must cost under 5%
//     of the cold analysis it runs ahead of (the "speedup" column
//     reads as cold-analysis-time / audit-time, so the gate is
//     speedup >= 20).  The margin comes from doing the audit's
//     topology work once per content class: the 10k nets are 8
//     classes, so 8 eligibility checks and oracle topologies, and one
//     cheap numeric oracle step per net.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "cases.h"
#include "harness.h"
#include "reduce/generate.h"
#include "timing/analyzer.h"

namespace awesim::bench {

namespace {

struct AuditState {
  timing::Design design;
  audit::AuditReport report;
  timing::TimingReport flat_report;
};

BenchCase mega_audit_case(std::string name, std::size_t target_nets,
                          bool quick_tier) {
  BenchCase c;
  c.name = std::move(name);
  c.paper_ref = "Section 4 (conditioning limits; pre-flight screening)";
  c.problem_size = target_nets;
  c.quick_tier = quick_tier;
  c.prepare = [target_nets] {
    reduce::MegaSpec spec;
    spec.style = reduce::MegaSpec::Style::Mesh;
    spec.cell_nodes = 100;
    spec.target_nodes = target_nets * spec.cell_nodes;
    spec.variants = 8;
    spec.seed = 1;
    auto state = std::make_shared<AuditState>();
    state->design = reduce::mega_design(spec);
    PreparedCase p;
    p.run = [state] {
      state->report = audit::audit_design(state->design);
    };
    p.reference = [state] {
      state->flat_report = state->design.analyze();
    };
    p.extra = [state] {
      std::vector<std::pair<std::string, double>> extra;
      extra.emplace_back("errors", static_cast<double>(state->report.errors));
      extra.emplace_back("warnings",
                         static_cast<double>(state->report.warnings));
      extra.emplace_back("infos", static_cast<double>(state->report.infos));
      extra.emplace_back("nets_assessed",
                         static_cast<double>(state->report.nets.size()));
      extra.emplace_back("repetition_groups",
                         static_cast<double>(state->report.repeated.size()));
      return extra;
    };
    return p;
  };
  return c;
}

}  // namespace

void register_audit_cases() {
  register_bench(mega_audit_case("audit.mega_10k", 10'000,
                                 /*quick_tier=*/true));
}

}  // namespace awesim::bench
