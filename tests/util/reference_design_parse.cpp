// The design-netlist parser as it was before the one-pass rewrite
// (locale-bound whitespace and letter tests, element built then moved,
// no capacity hints, the file read through an ostringstream), kept
// verbatim as the reference that tests/test_design_parse_differential.cpp
// holds audit::parse_design to, field for field.
#include "util/reference_design_parse.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netlist/parser.h"

namespace awesim::audit::testutil {

namespace {

using LineColumn = DesignSourceMap::LineColumn;

struct Token {
  std::string_view text;
  std::size_t column = 0;  // 1-based
};

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Case-insensitive match against a lowercase directive.
bool is_directive(std::string_view token, std::string_view directive) {
  if (token.size() != directive.size()) return false;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(token[i])) !=
        static_cast<unsigned char>(directive[i])) {
      return false;
    }
  }
  return true;
}

/// The line scanner: splits `text` at '\n' (a last line without one
/// included) and whitespace-splits each line into `tokens`, which is
/// reused across lines; a token starting with '*' begins a comment that
/// eats the rest of the line.  Calls visit(tokens, line_no) for every
/// line, empty ones included, until visit returns false.  Returns the
/// number of lines visited.
template <typename Visit>
std::size_t scan_lines(std::string_view text, Visit visit) {
  std::vector<Token> tokens;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    tokens.clear();
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && is_space(line[i])) ++i;
      if (i >= line.size() || line[i] == '*') break;
      const std::size_t start = i;
      while (i < line.size() && !is_space(line[i])) ++i;
      tokens.push_back({line.substr(start, i - start), start + 1});
    }
    if (!visit(tokens, line_no)) break;
  }
  return line_no;
}

/// netlist::parse_value, with plain decimals ("1.5e-15") read by
/// std::from_chars.  Everything else -- engineering suffixes, a leading
/// '+', results that are zero, subnormal or not finite, malformed text --
/// goes to parse_value, so the value and any error message are its own.
double parse_number(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc() && ptr == end && std::isnormal(value)) return value;
  return netlist::parse_value(token);
}

struct Parser {
  DesignParse out;

  // Declaration-ordered collections, assembled into a Design at the end.
  std::vector<timing::Gate> gates;
  std::unordered_set<std::string> gate_names;
  struct PendingNet {
    std::string driver;
    timing::Net net;
    LineColumn loc;
    std::vector<LineColumn> element_locs;
  };
  std::vector<PendingNet> nets;
  std::unordered_set<std::string> net_names;
  std::vector<std::pair<std::string, LineColumn>> primary_inputs;

  std::optional<PendingNet> open;  // the .net currently being filled

  void error(std::size_t line, std::size_t column, std::string message) {
    core::Diagnostic d;
    d.code = core::DiagCode::ParseError;
    d.severity = core::Severity::Error;
    d.message = std::move(message);
    d.file = out.sources.file;
    d.line = line;
    d.column = column;
    out.diagnostics.push_back(std::move(d));
  }

  bool parse_double(const Token& t, std::size_t line, double* value) {
    try {
      *value = parse_number(t.text);
      return true;
    } catch (const std::invalid_argument& e) {
      error(line, t.column, e.what());
      return false;
    }
  }

  void gate_card(const std::vector<Token>& tok, std::size_t line) {
    if (tok.size() < 2) {
      error(line, tok[0].column, ".gate needs a name");
      return;
    }
    timing::Gate gate;
    gate.name = std::string(tok[1].text);
    if (gate_names.count(gate.name) != 0) {
      error(line, tok[1].column, "duplicate gate '" + gate.name + "'");
      return;
    }
    for (std::size_t i = 2; i < tok.size(); ++i) {
      const std::size_t eq = tok[i].text.find('=');
      if (eq == std::string_view::npos) {
        error(line, tok[i].column,
              ".gate parameter is not key=value: '" +
                  std::string(tok[i].text) + "'");
        continue;
      }
      const std::string key = lower(tok[i].text.substr(0, eq));
      const Token value{tok[i].text.substr(eq + 1), tok[i].column + eq + 1};
      double v = 0.0;
      if (!parse_double(value, line, &v)) continue;
      if (key == "rdrive") {
        gate.drive_resistance = v;
      } else if (key == "cin") {
        gate.input_capacitance = v;
      } else if (key == "delay") {
        gate.intrinsic_delay = v;
      } else {
        error(line, tok[i].column, "unknown .gate parameter '" + key + "'");
      }
    }
    gate_names.insert(gate.name);
    out.sources.gates.emplace(gate.name, LineColumn{line, tok[1].column});
    gates.push_back(std::move(gate));
  }

  void net_card(const std::vector<Token>& tok, std::size_t line) {
    if (open.has_value()) {
      error(line, tok[0].column,
            ".net before .endnet of '" + open->net.name + "'");
      close_net();
    }
    if (tok.size() < 3) {
      error(line, tok[0].column, ".net needs DRIVER and NETNAME");
      return;
    }
    PendingNet pending;
    pending.driver = std::string(tok[1].text);
    pending.net.name = std::string(tok[2].text);
    pending.loc = {line, tok[2].column};
    if (net_names.count(pending.net.name) != 0) {
      error(line, tok[2].column,
            "duplicate net '" + pending.net.name + "'");
      return;
    }
    open = std::move(pending);
  }

  void element_card(const std::vector<Token>& tok, std::size_t line) {
    if (!open.has_value()) {
      error(line, tok[0].column,
            "element card outside .net/.endnet: '" +
                std::string(tok[0].text) + "'");
      return;
    }
    if (tok.size() != 4) {
      error(line, tok[0].column,
            "element card needs NAME NODE NODE VALUE");
      return;
    }
    timing::NetElement e;
    switch (std::tolower(static_cast<unsigned char>(tok[0].text[0]))) {
      case 'r': e.kind = timing::NetElement::Kind::Resistor; break;
      case 'c': e.kind = timing::NetElement::Kind::Capacitor; break;
      case 'l': e.kind = timing::NetElement::Kind::Inductor; break;
      default:
        error(line, tok[0].column,
              "unknown element card '" + std::string(tok[0].text) +
                  "' (design nets take R/C/L only)");
        return;
    }
    e.node_a = std::string(tok[1].text);
    e.node_b = std::string(tok[2].text);
    if (!parse_double(tok[3], line, &e.value)) return;
    open->element_locs.push_back({line, tok[0].column});
    open->net.parasitics.push_back(std::move(e));
  }

  void sink_card(const std::vector<Token>& tok, std::size_t line) {
    if (!open.has_value()) {
      error(line, tok[0].column, ".sink outside .net/.endnet");
      return;
    }
    if (tok.size() < 3) {
      error(line, tok[0].column, ".sink needs GATE and NODE");
      return;
    }
    open->net.sink_node[std::string(tok[1].text)] = std::string(tok[2].text);
  }

  void close_net() {
    if (!open.has_value()) return;
    out.sources.nets.emplace(open->net.name, open->loc);
    out.sources.net_elements.emplace(open->net.name,
                                     std::move(open->element_locs));
    net_names.insert(open->net.name);
    nets.push_back(std::move(*open));
    open.reset();
  }

  void card(const std::vector<Token>& tok, std::size_t line) {
    const std::string_view head = tok[0].text;
    if (is_directive(head, ".gate")) {
      gate_card(tok, line);
    } else if (is_directive(head, ".input")) {
      if (tok.size() < 2) {
        error(line, tok[0].column, ".input needs a gate name");
      } else {
        primary_inputs.emplace_back(std::string(tok[1].text),
                                    LineColumn{line, tok[1].column});
      }
    } else if (is_directive(head, ".net")) {
      net_card(tok, line);
    } else if (is_directive(head, ".sink")) {
      sink_card(tok, line);
    } else if (is_directive(head, ".endnet")) {
      if (!open.has_value()) {
        error(line, tok[0].column, ".endnet without .net");
      } else {
        close_net();
      }
    } else if (head[0] == '.') {
      error(line, tok[0].column,
            "unknown directive '" + std::string(head) + "'");
    } else {
      element_card(tok, line);
    }
  }

  void finish(std::size_t last_line) {
    if (open.has_value()) {
      error(last_line, 1, "missing .endnet for '" + open->net.name + "'");
      close_net();
    }
    for (const auto& [name, pi_loc] : primary_inputs) {
      if (gate_names.count(name) == 0) {
        error(pi_loc.line, pi_loc.column,
              ".input names unknown gate '" + name + "'");
      }
    }
    for (const PendingNet& pending : nets) {
      if (gate_names.count(pending.driver) == 0) {
        error(pending.loc.line, pending.loc.column,
              ".net driver '" + pending.driver + "' is not a gate");
      }
    }
    if (count_at_least(out.diagnostics, core::Severity::Error) > 0) return;
    timing::Design design;
    for (timing::Gate& gate : gates) design.add_gate(std::move(gate));
    for (PendingNet& pending : nets) {
      design.add_net(std::move(pending.driver), std::move(pending.net));
    }
    for (const auto& [name, pi_loc] : primary_inputs) {
      (void)pi_loc;
      design.set_primary_input(name);
    }
    out.design = std::move(design);
  }
};

}  // namespace

DesignParse reference_parse_design(std::string_view text,
                                   std::string filename) {
  Parser p;
  p.out.sources.file = std::move(filename);
  const std::size_t lines =
      scan_lines(text, [&](const std::vector<Token>& tok, std::size_t line) {
        if (tok.empty()) return true;
        if (is_directive(tok[0].text, ".end")) return false;
        p.card(tok, line);
        return true;
      });
  p.finish(lines == 0 ? 1 : lines);
  return std::move(p.out);
}

DesignParse reference_parse_design_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    DesignParse out;
    core::Diagnostic d;
    d.code = core::DiagCode::ParseError;
    d.severity = core::Severity::Error;
    d.message = "cannot read '" + path + "'";
    d.file = path;
    out.diagnostics.push_back(std::move(d));
    return out;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return reference_parse_design(text.str(), path);
}

}  // namespace awesim::audit::testutil
