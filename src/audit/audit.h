// Design-scope static audit: the pre-flight pass that runs before any
// matrix is assembled.
//
// Three rule tiers over one design (or one flat circuit):
//
//   1. Graph scope (timing/design_graph.h): combinational cycles with
//      full loop paths, undriven endpoints, dead logic, fanout
//      explosions, reconvergence hot spots -- pure connectivity, no
//      values.
//   2. Numeric conditioning (check/oracle.h): per-net Elmore
//      time-constant spread, moment-growth ratio, and the
//      nonequilibrium-IC rule, predicting AWE instability and
//      recommending a safe order window before the engine wastes a
//      factorization.
//   3. Repetition (the \x01R key discipline from src/reduce):
//      name-agnostic isomorphism hashing over nets reporting which
//      cell variants dedup in the reduction store, plus near-misses --
//      nets identical up to exactly one value -- as missed-sharing
//      opportunities.
//
// Tiers 2 and 3 pay for names and topology once per *content class*
// (nets with equal reduction content key): eligibility, the oracle's
// topology step and the value-less shape skeleton are class work; per
// net only the driver resistance and sink pin caps go through the
// oracle's numeric step, and the sink-node order joins the shape.
//
// Every finding is a typed core::Diagnostic; when a DesignSourceMap is
// supplied (designs parsed from text) findings carry exact
// file:line:column provenance.  Severity contract: combinational
// cycles are Errors (analysis would throw); undriven endpoints, dead
// logic, fanout explosions, conditioning hazards, and near-duplicates
// are Warnings (analysis proceeds, results are suspect or wasteful);
// reconvergence and repetition records are Info.  Shipping designs
// must audit with zero Errors -- the false-positive sweep in
// tests/test_audit.cpp enforces it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "circuit/circuit.h"
#include "core/diagnostic.h"
#include "reduce/reduce.h"
#include "timing/analyzer.h"
#include "timing/design_graph.h"

namespace awesim::audit {

struct DesignSourceMap;

struct AuditOptions {
  timing::DesignGraphOptions graph;
  check::OracleOptions oracle;
  /// Options the eligibility precheck and isomorphism keys are
  /// evaluated under (the same defaults HierSession uses, so "will
  /// dedup" here means "will dedup there").
  reduce::ReduceOptions reduce;
  /// Tier switches, all on by default.
  bool graph_rules = true;
  bool conditioning = true;
  bool repetition = true;
};

/// Tier-2/3 structured results for one net, beyond the diagnostics.
struct NetAssessment {
  std::string net;
  std::string driver;
  reduce::Eligibility eligibility = reduce::Eligibility::Eligible;
  check::ConditioningEstimate estimate;
};

/// Nets whose reduction content keys collide: one reduction, N - 1
/// rehydrations in the store.
struct RepetitionGroup {
  /// First member in net order; the one that pays the collapse.
  std::string representative;
  std::vector<std::string> members;  // includes the representative
};

/// Two nets identical up to exactly one element value.
struct NearMiss {
  std::string net_a;
  std::string net_b;
  /// Index of the differing parasitic (same index in both nets).
  std::size_t element_index = 0;
  double value_a = 0.0;
  double value_b = 0.0;
};

struct AuditReport {
  core::Diagnostics diagnostics;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;

  timing::GraphFindings graph;
  std::vector<NetAssessment> nets;
  std::vector<RepetitionGroup> repeated;
  std::vector<NearMiss> near_misses;

  /// No Error-severity findings (the CI gate for shipping designs).
  bool ok() const { return errors == 0; }
};

/// Audit a gate-level design.  `sources` (may be null) supplies
/// file:line:column provenance for findings on parsed designs.
///
/// The content keys and the class work run on a core::ThreadPool of one
/// thread per hardware core, each result into a per-net or per-class
/// slot; the diagnostics are emitted afterwards, serially, in the tier
/// order above.  The report is bit-identical at every thread count.
AuditReport audit_design(const timing::Design& design,
                         const AuditOptions& options = {},
                         const DesignSourceMap* sources = nullptr);

namespace detail {
/// audit_design on a pool of `threads` threads (0: one per hardware
/// core); the thread-count differential tests' entry point.
AuditReport audit_design(const timing::Design& design,
                         const AuditOptions& options,
                         const DesignSourceMap* sources,
                         std::size_t threads);
}  // namespace detail

/// Audit a flat circuit: conditioning tier only (a circuit has no gate
/// graph and no net population to dedup).  `filename` stamps the
/// finding provenance when nonempty.
AuditReport audit_circuit(const circuit::Circuit& circuit,
                          const AuditOptions& options = {},
                          const std::string& filename = {});

}  // namespace awesim::audit
