// Pre-flight static electrical-rule checking ("lint") for circuits.
//
// AWE assumes a lumped, linear circuit whose MNA matrix is nonsingular
// and whose response has well-defined moments (PAPER.md Sections 2-3).
// Every violated assumption -- floating islands, voltage-source/inductor
// loops, current-source/capacitor cutsets, nonphysical element values,
// broken controlled-source references -- is otherwise discovered deep
// inside the LU factorization or the Pade step, where the only artifacts
// left are matrix indices.  This library checks the *circuit graph*
// before any matrix is assembled, so problems surface as typed
// core::Diagnostics carrying element names, node names, and (for
// netlist-derived circuits) exact file:line:column source locations.
//
// The rule pipeline, in deterministic emit order:
//   1. values       negative/zero/NaN/Inf R, C, L (Error); gains that are
//                   non-finite (Error); unit-scale outliers outside the
//                   fixed inclusive windows R [1e-6, 1e12] ohm,
//                   C [1e-21, 1e-2] F, L [1e-15, 1e2] H (Warning);
//                   duplicate element names and self-shorts (Error).
//   2. dependency   CCCS/CCVS referencing a missing or non-V/L control
//                   element (Error); VCVS/VCCS sensing a node no element
//                   touches (Error); controlled-source dependency cycles
//                   (Warning).
//   3. connectivity union-find over all element edges: node groups with
//                   no path to ground at all (FloatingIsland -- Error if
//                   the island contains an independent source, Warning
//                   otherwise); registered-but-unused nodes (Warning).
//   4. topology     spanning-forest loop/cutset analysis: loops made of
//                   only voltage-defined branches (V/L/E/H -- Error: the
//                   MNA matrix is structurally singular) and groups
//                   reachable from ground only through current-defined
//                   branches (I/C/F/G): an Error when an independent
//                   current source feeds them, the classic gmin-rescued
//                   FloatingNodes Warning otherwise.
//   5. structure    RC-tree / RC-mesh / RLC / general classification
//                   (TopologyClass below), the structural precondition
//                   under which first-order AWE reduces exactly to the
//                   Elmore/Penfield-Rubinstein bound (PAPER.md Section 5).
//
// The checker is pure graph analysis -- union-find plus one BFS per
// reported loop -- so it is O(elements * alpha) and cheap enough to run
// as a cached pre-flight in front of every timing stage (see
// timing/delay_model.h and EngineOptions::preflight_lint).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "check/partition.h"
#include "circuit/circuit.h"
#include "core/diagnostic.h"

namespace awesim::check {

struct LintOptions {
  /// Emit the Info-severity TopologyNote record describing the
  /// structure classification (the classification itself always runs).
  bool classify_note = true;
};

/// Everything one lint pass found.  `diagnostics` is in deterministic
/// rule-pipeline order; errors/warnings are severity tallies over it.
struct LintReport {
  core::Diagnostics diagnostics;
  TopologyClass topology = TopologyClass::Empty;
  std::size_t errors = 0;
  std::size_t warnings = 0;

  /// True when analysis can proceed (no Error-severity findings).
  bool ok() const { return errors == 0; }
};

/// Run the full rule pipeline over an assembled circuit.  Never throws;
/// a structurally hopeless circuit simply yields Error diagnostics.
/// Traced under the obs phase "check.lint".
LintReport lint(const circuit::Circuit& ckt,
                const LintOptions& options = {});

/// True when the circuit's MNA pencil (G, C) is structurally of index
/// at most 1: no loop of capacitors and voltage sources that contains a
/// source, no cutset of inductors and current sources that contains a
/// source, and no controlled sources (whose gains can raise the index
/// without either).  On such a circuit a start vector x with G x in
/// range(C) is a consistent initial state: the response does not jump
/// at t = 0+, so the engine needs no sigma-limit to find x(0+).
bool index_one_structure(const circuit::Circuit& ckt);

/// Lint netlist text: parse (collecting every parse error, with the
/// final validate gate skipped so electrically unsound circuits still
/// reach the rule pipeline), then lint the built circuit.  Parse
/// diagnostics come first in the report, rule diagnostics after.
LintReport lint_text(std::string_view text,
                     const std::string& filename = "",
                     const LintOptions& options = {});

/// File variant of lint_text.  An unreadable file yields a single
/// Error-severity ParseError diagnostic.
LintReport lint_file(const std::string& path,
                     const LintOptions& options = {});

}  // namespace awesim::check
