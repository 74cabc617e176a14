#include "netlist/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace awesim::netlist {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

// One netlist card, tokenized with per-token source columns so every
// diagnostic can point at the offending token.  Parentheses and commas
// act as separators; the leading keyword (STEP/PWL/DC) interprets the
// numbers.  For cards continued over several lines the columns index the
// joined card text.
struct Card {
  std::size_t line = 0;        // 1-based source line of the card start
  std::size_t col_offset = 0;  // leading chars stripped from that line
  std::vector<std::string> tokens;
  std::vector<std::size_t> cols;  // 1-based column per token

  std::size_t column(std::size_t i) const {
    if (i < cols.size()) return cols[i];
    if (cols.empty()) return col_offset + 1;
    return cols.back() + tokens.back().size();  // just past the card
  }
  std::string token(std::size_t i) const {
    return i < tokens.size() ? tokens[i] : std::string();
  }
  ParseError error(std::size_t i, const std::string& message) const {
    return ParseError(line, column(i), token(i), message);
  }
};

Card make_card(std::size_t lineno, std::size_t col_offset,
               std::string_view text) {
  Card card;
  card.line = lineno;
  card.col_offset = col_offset;
  std::string cur;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : ' ';
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
        c == ')' || c == ',') {
      if (!cur.empty()) {
        card.tokens.push_back(cur);
        card.cols.push_back(col_offset + start + 1);
        cur.clear();
      }
    } else {
      if (cur.empty()) start = i;
      cur.push_back(c);
    }
  }
  return card;
}

bool is_number(std::string_view token) {
  if (token.empty()) return false;
  const char c = token.front();
  return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
         c == '+' || c == '.';
}

}  // namespace

double parse_value(std::string_view token) {
  if (token.empty()) {
    throw std::invalid_argument("parse_value: empty token");
  }
  std::size_t pos = 0;
  double base = 0.0;
  const std::string str(token);
  try {
    base = std::stod(str, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_value: not a number: '" + str + "'");
  }
  std::string suffix = to_lower(str.substr(pos));
  // SPICE ignores trailing unit letters after the scale suffix ("pF").
  double scale = 1.0;
  if (suffix.rfind("meg", 0) == 0) {
    scale = 1e6;
  } else if (!suffix.empty()) {
    switch (suffix.front()) {
      case 'f': scale = 1e-15; break;
      case 'p': scale = 1e-12; break;
      case 'n': scale = 1e-9; break;
      case 'u': scale = 1e-6; break;
      case 'm': scale = 1e-3; break;
      case 'k': scale = 1e3; break;
      case 'g': scale = 1e9; break;
      case 't': scale = 1e12; break;
      default:
        throw std::invalid_argument("parse_value: bad suffix in '" + str +
                                    "'");
    }
  }
  return base * scale;
}

namespace {

// Parse the stimulus part of a V/I card starting at card.tokens[start].
circuit::Stimulus parse_stimulus(const Card& card, std::size_t start) {
  const auto& tokens = card.tokens;
  if (start >= tokens.size()) {
    throw card.error(start, "missing source value");
  }
  const std::string kind = to_lower(tokens[start]);
  auto num = [&](std::size_t i) -> double {
    if (i >= tokens.size()) {
      throw card.error(i, "missing numeric argument");
    }
    try {
      return parse_value(tokens[i]);
    } catch (const std::invalid_argument& e) {
      throw card.error(i, e.what());
    }
  };
  if (kind == "dc") {
    return circuit::Stimulus::dc(num(start + 1));
  }
  if (kind == "step") {
    const double v0 = num(start + 1);
    const double v1 = num(start + 2);
    const double delay =
        start + 3 < tokens.size() ? num(start + 3) : 0.0;
    const double rise = start + 4 < tokens.size() ? num(start + 4) : 0.0;
    return rise > 0.0
               ? circuit::Stimulus::ramp_step(v0, v1, rise, delay)
               : circuit::Stimulus::step(v0, v1, delay);
  }
  if (kind == "pwl") {
    std::vector<std::pair<double, double>> points;
    for (std::size_t i = start + 1; i + 1 < tokens.size(); i += 2) {
      points.emplace_back(num(i), num(i + 1));
    }
    if (points.empty()) throw card.error(start, "PWL needs points");
    try {
      return circuit::Stimulus::pwl(points);
    } catch (const std::invalid_argument& e) {
      throw card.error(start, e.what());
    }
  }
  if (is_number(kind)) {
    // Bare value: DC.
    return circuit::Stimulus::dc(num(start));
  }
  throw card.error(start, "unknown stimulus '" + tokens[start] + "'");
}

// IC=value suffix on C/L cards.
std::optional<double> parse_ic(const Card& card, std::size_t start) {
  for (std::size_t i = start; i < card.tokens.size(); ++i) {
    const std::string lower = to_lower(card.tokens[i]);
    if (lower.rfind("ic=", 0) == 0) {
      try {
        return parse_value(lower.substr(3));
      } catch (const std::invalid_argument& e) {
        throw card.error(i, e.what());
      }
    }
  }
  return std::nullopt;
}

// A .subckt definition: ordered port names plus the cards inside.
struct SubcktDef {
  std::vector<std::string> ports;
  std::vector<Card> cards;
};

// Card-processing context: node/element name mapping for (possibly
// nested) subcircuit expansion.
struct ExpandContext {
  circuit::Circuit* ckt;
  const std::map<std::string, SubcktDef>* subckts;
  std::string prefix;                                  // "X1." etc.
  const std::map<std::string, std::string>* port_map;  // local -> global
  const std::string* file = nullptr;  // netlist filename for SourceLocs
  int depth = 0;
};

bool is_ground(std::string_view name) {
  return name == "0" || name == "gnd" || name == "GND";
}

// Translate a node name through the expansion context.
std::string map_node(const ExpandContext& ctx, const std::string& name) {
  if (is_ground(name)) return "0";
  if (ctx.port_map != nullptr) {
    const auto it = ctx.port_map->find(to_lower(name));
    if (it != ctx.port_map->end()) return it->second;
  }
  return ctx.prefix + name;
}

void process_card(const Card& card, const ExpandContext& ctx);

// Expand one subcircuit instance card: Xname node1..nodeK subcktName.
void expand_instance(const Card& card, const ExpandContext& ctx) {
  const auto& tokens = card.tokens;
  if (tokens.size() < 3) {
    throw card.error(0, "subcircuit instance needs nodes and a name");
  }
  if (ctx.depth > 40) {
    throw card.error(0, "subcircuit nesting too deep (recursive?)");
  }
  const std::string def_name = to_lower(tokens.back());
  const auto it = ctx.subckts->find(def_name);
  if (it == ctx.subckts->end()) {
    throw card.error(tokens.size() - 1,
                     "unknown subcircuit '" + tokens.back() + "'");
  }
  const SubcktDef& def = it->second;
  const std::size_t given = tokens.size() - 2;
  if (given != def.ports.size()) {
    throw card.error(tokens.size() - 1,
                     "subcircuit '" + tokens.back() + "' expects " +
                         std::to_string(def.ports.size()) + " nodes, got " +
                         std::to_string(given));
  }
  std::map<std::string, std::string> port_map;
  for (std::size_t p = 0; p < def.ports.size(); ++p) {
    port_map[to_lower(def.ports[p])] = map_node(ctx, tokens[1 + p]);
  }
  ExpandContext inner;
  inner.ckt = ctx.ckt;
  inner.subckts = ctx.subckts;
  inner.prefix = ctx.prefix + tokens[0] + ".";
  inner.port_map = &port_map;
  inner.file = ctx.file;
  inner.depth = ctx.depth + 1;
  for (const Card& inner_card : def.cards) {
    if (!inner_card.tokens.empty()) process_card(inner_card, inner);
  }
}

void process_card(const Card& card, const ExpandContext& ctx) {
  circuit::Circuit& ckt = *ctx.ckt;
  const auto& tokens = card.tokens;
  const std::string head = to_lower(tokens[0]);

  if (head[0] == '.') {
    if (head == ".end" || head == ".ends") return;
    if (head == ".ic") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        std::string item = to_lower(tokens[i]);
        const std::size_t eq = item.find('=');
        if (eq != std::string::npos && item.rfind("v", 0) == 0) {
          const std::string node = item.substr(1, eq - 1);
          const double value = parse_value(item.substr(eq + 1));
          ckt.set_initial_node_voltage(ckt.node(map_node(ctx, node)),
                                       value);
        } else if (item == "v" && i + 2 < tokens.size()) {
          // "v ( node ) = value" fully split by the tokenizer.
          ++i;
          const std::string node = tokens[i];
          ++i;
          std::string val = tokens[i];
          if (!val.empty() && val.front() == '=') val.erase(0, 1);
          ckt.set_initial_node_voltage(ckt.node(map_node(ctx, node)),
                                       parse_value(val));
        } else {
          throw card.error(i, "bad .ic item '" + tokens[i] + "'");
        }
      }
      return;
    }
    throw card.error(0, "unknown directive '" + tokens[0] + "'");
  }

  auto need = [&](std::size_t count) {
    if (tokens.size() < count) {
      throw card.error(tokens.size(),
                       "too few fields on '" + tokens[0] + "'");
    }
  };
  auto value_of = [&](std::size_t i) -> double {
    try {
      return parse_value(tokens[i]);
    } catch (const std::invalid_argument& e) {
      throw card.error(i, e.what());
    }
  };
  auto node_of = [&](std::size_t i) {
    return ckt.node(map_node(ctx, tokens[i]));
  };
  // Every element remembers the card that created it, so the src/check
  // lint rules can report file:line:column for topological problems that
  // only surface after the whole circuit is assembled.
  auto locate = [&](circuit::Element& el) {
    if (ctx.file != nullptr) el.loc.file = *ctx.file;
    el.loc.line = card.line;
    el.loc.column = card.column(0);
  };
  const std::string name = ctx.prefix + tokens[0];

  switch (head[0]) {
    case 'r': {
      need(4);
      locate(ckt.add_resistor(name, node_of(1), node_of(2), value_of(3)));
      break;
    }
    case 'c': {
      need(4);
      locate(ckt.add_capacitor(name, node_of(1), node_of(2), value_of(3),
                               parse_ic(card, 4)));
      break;
    }
    case 'l': {
      need(4);
      locate(ckt.add_inductor(name, node_of(1), node_of(2), value_of(3),
                              parse_ic(card, 4)));
      break;
    }
    case 'v': {
      need(4);
      locate(ckt.add_vsource(name, node_of(1), node_of(2),
                             parse_stimulus(card, 3)));
      break;
    }
    case 'i': {
      need(4);
      locate(ckt.add_isource(name, node_of(1), node_of(2),
                             parse_stimulus(card, 3)));
      break;
    }
    case 'e': {
      need(6);
      locate(ckt.add_vcvs(name, node_of(1), node_of(2), node_of(3),
                          node_of(4), value_of(5)));
      break;
    }
    case 'g': {
      need(6);
      locate(ckt.add_vccs(name, node_of(1), node_of(2), node_of(3),
                          node_of(4), value_of(5)));
      break;
    }
    case 'f': {
      need(5);
      locate(ckt.add_cccs(name, node_of(1), node_of(2),
                          ctx.prefix + tokens[3], value_of(4)));
      break;
    }
    case 'h': {
      need(5);
      locate(ckt.add_ccvs(name, node_of(1), node_of(2),
                          ctx.prefix + tokens[3], value_of(4)));
      break;
    }
    case 'x': {
      expand_instance(card, ctx);
      break;
    }
    default:
      throw card.error(0, "unknown element '" + tokens[0] + "'");
  }
}

}  // namespace

ParseResult parse_collect(std::string_view text,
                          const std::string& filename, bool validate) {
  ParseResult result;

  auto record_parse = [&](const ParseError& e) {
    core::Diagnostic d;
    d.code = core::DiagCode::ParseError;
    d.severity = core::Severity::Error;
    d.message = e.message();
    d.element = e.token();
    d.file = filename;
    d.line = e.line();
    d.column = e.column();
    result.diagnostics.push_back(std::move(d));
  };
  auto record_validation = [&](std::size_t line, const std::string& msg) {
    core::Diagnostic d;
    d.code = core::DiagCode::ValidationError;
    d.severity = core::Severity::Error;
    d.message = msg;
    d.file = filename;
    d.line = line;
    result.diagnostics.push_back(std::move(d));
  };

  // Join continuation lines; a stray '+' is recorded and skipped so the
  // rest of the file still gets checked.
  std::vector<Card> cards;
  {
    std::istringstream in{std::string(text)};
    std::string raw;
    std::size_t lineno = 0;
    std::vector<std::pair<std::size_t, std::size_t>> starts;  // line, col
    std::vector<std::string> texts;
    while (std::getline(in, raw)) {
      ++lineno;
      // Strip comments.
      const std::size_t semi = raw.find(';');
      if (semi != std::string::npos) raw.erase(semi);
      const std::size_t first = raw.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      std::string trimmed = raw.substr(first);
      while (!trimmed.empty() &&
             (trimmed.back() == '\r' || trimmed.back() == ' ' ||
              trimmed.back() == '\t')) {
        trimmed.pop_back();
      }
      if (trimmed.empty()) continue;
      if (trimmed.front() == '*') continue;
      if (trimmed.front() == '+') {
        if (texts.empty()) {
          record_parse(ParseError(lineno, first + 1, "+",
                                  "continuation with no previous card"));
          continue;
        }
        texts.back() += " " + trimmed.substr(1);
      } else {
        starts.emplace_back(lineno, first);
        texts.push_back(std::move(trimmed));
      }
    }
    cards.reserve(texts.size());
    for (std::size_t i = 0; i < texts.size(); ++i) {
      cards.push_back(make_card(starts[i].first, starts[i].second,
                                texts[i]));
    }
  }

  // Extract .subckt ... .ends blocks (top level only).  A malformed
  // block is recorded and skipped as a unit.
  std::map<std::string, SubcktDef> subckts;
  std::vector<Card> top;
  for (std::size_t i = 0; i < cards.size(); ++i) {
    const Card& card = cards[i];
    if (card.tokens.empty()) continue;
    if (to_lower(card.tokens[0]) != ".subckt") {
      top.push_back(card);
      continue;
    }
    const bool has_header = card.tokens.size() >= 3;
    if (!has_header) {
      record_parse(
          card.error(card.tokens.size(),
                     ".subckt needs a name and at least one port"));
    }
    SubcktDef def;
    for (std::size_t p = 2; p < card.tokens.size(); ++p) {
      def.ports.push_back(card.tokens[p]);
    }
    std::size_t j = i + 1;
    bool closed = false;
    for (; j < cards.size(); ++j) {
      const Card& inner = cards[j];
      if (inner.tokens.empty()) continue;
      const std::string inner_head = to_lower(inner.tokens[0]);
      if (inner_head == ".subckt") {
        record_parse(
            inner.error(0, "nested .subckt definitions are not supported"));
        // Treat it as closing the outer block so both get surfaced once.
        break;
      }
      if (inner_head == ".ends") {
        closed = true;
        break;
      }
      def.cards.push_back(inner);
    }
    if (!closed && j >= cards.size()) {
      record_parse(card.error(0, "unterminated .subckt block"));
    }
    if (has_header) {
      const std::string def_name = to_lower(card.tokens[1]);
      if (!subckts.emplace(def_name, std::move(def)).second) {
        record_parse(card.error(
            1, "duplicate .subckt '" + card.tokens[1] + "'"));
      }
    }
    i = j;  // skip past .ends (or the offending nested .subckt)
  }

  // Process the top-level cards, recovering per card: a bad card is
  // recorded and skipped, the next one still runs against the same
  // circuit so independent errors all surface in one pass.
  circuit::Circuit ckt;
  ExpandContext ctx;
  ctx.ckt = &ckt;
  ctx.subckts = &subckts;
  ctx.port_map = nullptr;
  ctx.file = &filename;
  for (const Card& card : top) {
    if (card.tokens.empty()) continue;
    try {
      process_card(card, ctx);
    } catch (const ParseError& e) {
      record_parse(e);
    } catch (const std::exception& e) {
      // Structural problems from the circuit builder (duplicate element
      // names, bad control references, non-finite values).
      record_validation(card.line, e.what());
    }
  }
  if (count_at_least(result.diagnostics, core::Severity::Error) == 0) {
    if (validate) {
      try {
        ckt.validate();
        result.circuit = std::move(ckt);
      } catch (const std::exception& e) {
        record_validation(0, e.what());
      }
    } else {
      result.circuit = std::move(ckt);
    }
  }
  return result;
}

ParseResult parse_file_collect(const std::string& path, bool validate) {
  std::ifstream in(path);
  if (!in) {
    ParseResult result;
    core::Diagnostic d;
    d.code = core::DiagCode::ParseError;
    d.severity = core::Severity::Error;
    d.message = "cannot open '" + path + "'";
    d.file = path;
    result.diagnostics.push_back(std::move(d));
    return result;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_collect(buf.str(), path, validate);
}

namespace {

std::string format_stimulus(const circuit::Stimulus& s) {
  std::ostringstream out;
  out.precision(12);
  if (s.segments().empty()) {
    out << "DC " << s.initial_value();
    return out.str();
  }
  // Emit as PWL reproducing the breakpoint structure.
  out << "PWL(";
  // Reconstruct sample points: before first breakpoint, at each
  // breakpoint, and one point per linear piece end.
  double t_prev = s.segments().front().time;
  out << t_prev << " " << s.value(t_prev) << " ";
  for (std::size_t i = 0; i + 1 < s.segments().size(); ++i) {
    const double t = s.segments()[i + 1].time;
    out << t << " " << s.value(t) << " ";
  }
  const double t_last = s.last_breakpoint();
  out << t_last + 1.0 << " " << s.value(t_last + 1.0) << ")";
  return out.str();
}

}  // namespace

std::string write(const circuit::Circuit& ckt) {
  std::ostringstream out;
  out.precision(12);
  out << "* written by awesim\n";
  for (const auto& e : ckt.elements()) {
    using circuit::ElementKind;
    const std::string np = ckt.node_name(e.pos);
    const std::string nn = ckt.node_name(e.neg);
    switch (e.kind) {
      case ElementKind::Resistor:
        out << e.name << " " << np << " " << nn << " " << e.value << "\n";
        break;
      case ElementKind::Capacitor:
      case ElementKind::Inductor:
        out << e.name << " " << np << " " << nn << " " << e.value;
        if (e.initial_condition) out << " IC=" << *e.initial_condition;
        out << "\n";
        break;
      case ElementKind::VoltageSource:
      case ElementKind::CurrentSource:
        out << e.name << " " << np << " " << nn << " "
            << format_stimulus(e.stimulus) << "\n";
        break;
      case ElementKind::Vcvs:
      case ElementKind::Vccs:
        out << e.name << " " << np << " " << nn << " "
            << ckt.node_name(e.ctrl_pos) << " " << ckt.node_name(e.ctrl_neg)
            << " " << e.value << "\n";
        break;
      case ElementKind::Cccs:
      case ElementKind::Ccvs:
        out << e.name << " " << np << " " << nn << " " << e.ctrl_source
            << " " << e.value << "\n";
        break;
    }
  }
  for (const auto& [node, volts] : ckt.initial_node_voltages()) {
    out << ".ic v(" << ckt.node_name(node) << ")=" << volts << "\n";
  }
  out << ".end\n";
  return out.str();
}

}  // namespace awesim::netlist
