// SPICE-like netlist parsing, so the examples/benches can describe the
// paper's circuits the way a designer would, and so extracted interconnect
// can be loaded from files.
//
// Supported cards (case-insensitive; '*' and ';' comments; '+' line
// continuation; engineering suffixes f p n u m k meg g t):
//
//   Rname n+ n- value
//   Cname n+ n- value [IC=v]
//   Lname n+ n- value [IC=i]
//   Vname n+ n- DC value
//   Vname n+ n- STEP(v0 v1 [delay [rise]])
//   Vname n+ n- PWL(t1 v1 t2 v2 ...)
//   Iname n+ n- DC value | STEP(...) | PWL(...)
//   Ename n+ n- nc+ nc- gain          (VCVS)
//   Gname n+ n- nc+ nc- gm            (VCCS)
//   Fname n+ n- Vctrl gain            (CCCS)
//   Hname n+ n- Vctrl rm              (CCVS)
//   .ic V(node)=value ...
//   .end (optional)
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "circuit/circuit.h"
#include "core/diagnostic.h"

namespace awesim::netlist {

/// Parse failure with 1-based line (and, when known, column) context plus
/// the offending token.  what() reads
///   "netlist line L: message"            (no column known), or
///   "netlist line L:C: message (near 'token')".
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message)
      : ParseError(line, 0, "", message) {}

  ParseError(std::size_t line, std::size_t column, std::string token,
             const std::string& message)
      : std::runtime_error(format(line, column, token, message)),
        line_(line),
        column_(column),
        token_(std::move(token)),
        message_(message) {}

  std::size_t line() const { return line_; }
  /// 1-based column of the offending token; 0 when unknown.  For cards
  /// continued over several source lines the column indexes the joined
  /// card text.
  std::size_t column() const { return column_; }
  const std::string& token() const { return token_; }
  /// The bare message, without the location prefix.
  const std::string& message() const { return message_; }

 private:
  static std::string format(std::size_t line, std::size_t column,
                            const std::string& token,
                            const std::string& message) {
    std::string out = "netlist line " + std::to_string(line);
    if (column > 0) out += ":" + std::to_string(column);
    out += ": " + message;
    if (!token.empty()) out += " (near '" + token + "')";
    return out;
  }

  std::size_t line_;
  std::size_t column_;
  std::string token_;
  std::string message_;
};

/// Result of an error-collecting parse.  `circuit` is set only when no
/// Error-severity diagnostic was recorded; `diagnostics` holds every
/// problem found, in source order -- the parser recovers card by card so
/// one bad line does not hide the rest of the file's errors.
struct ParseResult {
  std::optional<circuit::Circuit> circuit;
  core::Diagnostics diagnostics;

  bool ok() const { return circuit.has_value(); }
};

/// Parse, collecting ALL errors instead of throwing on the first.  Every
/// diagnostic carries file (if given), 1-based line and column, and the
/// offending token in its `element` field.  Every built element carries
/// its card's SourceLoc, so downstream checks (src/check) can point at
/// the offending netlist line.
///
/// `validate` controls the final Circuit::validate() gate.  The default
/// keeps the historical contract (a structurally invalid circuit yields
/// a ValidationError diagnostic and no circuit); the lint front end
/// passes false so it can run its own located rule pipeline over
/// circuits that parse but are electrically unsound.
ParseResult parse_collect(std::string_view text,
                          const std::string& filename = "",
                          bool validate = true);

/// File variant of parse_collect; an unreadable file yields a single
/// ParseError-coded diagnostic rather than throwing.
ParseResult parse_file_collect(const std::string& path,
                               bool validate = true);

/// Parse one engineering-notation value ("2.2k", "10p", "1meg", "4.7").
/// Throws std::invalid_argument on malformed input.
double parse_value(std::string_view token);

/// Serialize a circuit back to netlist text (round-trip tested).
std::string write(const circuit::Circuit& ckt);

}  // namespace awesim::netlist
