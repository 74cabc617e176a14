// Gate-level design netlists for the audit tooling.
//
// The SPICE front end (src/netlist) parses one flat circuit; the audit
// layer reasons about whole *designs* -- gates, nets, primary inputs --
// so it needs a textual form for those too (the corpus under
// netlists/bad/audit/ is the reason this exists: every seeded defect
// asserts an exact file:line:column).  The format is the SPICE card
// discipline plus four directives:
//
//   .gate NAME [rdrive=VAL] [cin=VAL] [delay=VAL]
//   .input NAME                      * declare NAME a primary input
//   .net DRIVER NETNAME              * open a net driven by DRIVER
//   R1 DRV a 1k                      * net-local R/C/L cards ("DRV" is
//   C1 a 0 10f                      *  the driver hookup, "0" ground)
//   .sink GATE NODE                  * attach GATE's input at NODE
//   .endnet                          * close the net
//
// '*' comments and blank lines as in SPICE; values take the usual
// engineering suffixes (netlist::parse_value).  Directives are
// case-insensitive; names are not.  A file with no .gate card is not a
// design netlist -- the audit CLI falls back to the flat-circuit parser
// and runs the conditioning tier only.
//
// Every parsed gate, net, and net element remembers its source card, so
// design-scope diagnostics point at text the same way the lint rules
// point at element cards.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.h"
#include "core/diagnostic.h"
#include "timing/analyzer.h"

namespace awesim::audit {

/// Where each design entity was declared (1-based lines; absent entries
/// mean "not netlist-derived").  Locations are (line, column) pairs; the
/// file they refer to is stored once.
struct DesignSourceMap {
  struct LineColumn {
    std::size_t line = 0;
    std::size_t column = 0;
  };

  std::string file;
  std::map<std::string, LineColumn> gates;
  std::map<std::string, LineColumn> nets;
  /// Per net, the element card of each parasitic, in element order.
  std::map<std::string, std::vector<LineColumn>> net_elements;

  /// Each lookup yields an unknown location (line 0) when absent.
  circuit::SourceLoc gate_loc(const std::string& gate) const;
  circuit::SourceLoc net_loc(const std::string& net) const;
  circuit::SourceLoc element_loc(const std::string& net,
                                 std::size_t index) const;
};

/// Outcome of parsing one design netlist.  `design` is present iff no
/// Error-severity diagnostic was recorded; the diagnostics list every
/// problem found (all-errors discipline, same as the SPICE parser).
struct DesignParse {
  std::optional<timing::Design> design;
  DesignSourceMap sources;
  core::Diagnostics diagnostics;
};

/// True when the text contains a .gate card (i.e. this is a design
/// netlist, not a flat SPICE circuit).
bool looks_like_design(std::string_view text);

DesignParse parse_design(std::string_view text, std::string filename);

/// File variant; an unreadable file yields one Error diagnostic.
DesignParse parse_design_file(const std::string& path);

}  // namespace awesim::audit
