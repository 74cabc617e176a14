#include "audit/design_netlist.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "netlist/parser.h"
#include "obs/trace.h"

namespace awesim::audit {

namespace {

using LineColumn = DesignSourceMap::LineColumn;

struct Token {
  std::string_view text;
  std::size_t column = 0;  // 1-based
};

// std::isspace and std::tolower as the "C" locale defines them, without
// the per-character locale lookup (nothing in the library sets a locale).
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

char to_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = to_lower(c);
  return out;
}

/// Case-insensitive match against a lowercase directive.
bool is_directive(std::string_view token, std::string_view directive) {
  if (token.size() != directive.size()) return false;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (to_lower(token[i]) != directive[i]) return false;
  }
  return true;
}

/// The line scanner: splits `text` at '\n' (a last line without one
/// included) and whitespace-splits each line into `tokens`, which is
/// reused across lines; a token starting with '*' begins a comment that
/// eats the rest of the line.  Calls visit(tokens, line_no) for every
/// line, empty ones included, until visit returns false; the first line
/// is line `lines_before + 1`.  Returns the last line number visited
/// (`lines_before` when none).
template <typename Visit>
std::size_t scan_lines(std::string_view text, Visit visit,
                       std::size_t lines_before = 0) {
  std::vector<Token> tokens;
  std::size_t line_no = lines_before;
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

/// Clinger's fast path: a plain decimal ("-12.5", "1.23456e-15") whose
/// digits fit in 53 bits and whose decimal exponent is within +-22 is
/// one correctly rounded multiply or divide of two exact doubles -- the
/// value std::from_chars returns.  False when the token is not that.
bool exact_decimal(std::string_view token, double* value) {
  static constexpr double kPow10[] = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  const char* p = token.data();
  const char* const end = p + token.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  std::uint64_t digits = 0;
  int scale = 0;  // the value is digits * 10^scale
  bool any = false, dot = false;
  for (; p != end && ((*p >= '0' && *p <= '9') || (*p == '.' && !dot)); ++p) {
    if (*p == '.') {
      dot = true;
      continue;
    }
    if (digits >= (std::uint64_t{1} << 53) / 10) return false;
    digits = digits * 10 + static_cast<std::uint64_t>(*p - '0');
    if (dot) --scale;
    any = true;
  }
  if (!any) return false;
  if (p != end) {
    if ((*p != 'e' && *p != 'E') || ++p == end) return false;
    const bool negative_exp = *p == '-';
    if ((*p == '-' || *p == '+') && ++p == end) return false;
    int exp = 0;
    for (; p != end; ++p) {
      if (*p < '0' || *p > '9' || exp > 1000) return false;
      exp = exp * 10 + (*p - '0');
    }
    scale += negative_exp ? -exp : exp;
  }
  if (digits == 0 || scale < -22 || scale > 22) return false;
  const double m = static_cast<double>(digits);
  *value = scale < 0 ? m / kPow10[-scale] : m * kPow10[scale];
  if (negative) *value = -*value;
  return true;
}

/// netlist::parse_value, with plain decimals ("1.5e-15") read by
/// exact_decimal or else std::from_chars.  Everything else -- engineering
/// suffixes, a leading '+', results that are zero, subnormal or not
/// finite, malformed text -- goes to parse_value, so the value and any
/// error message are its own.
double parse_number(std::string_view token) {
  double value = 0.0;
  if (exact_decimal(token, &value) && std::isnormal(value)) return value;
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
  // The last closed net's element count: a design's nets are mostly
  // alike, so the next one reserves that much instead of doubling up.
  std::size_t elements_hint = 0;

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
    std::string name(tok[2].text);
    if (net_names.count(name) != 0) {
      error(line, tok[2].column, "duplicate net '" + name + "'");
      return;
    }
    PendingNet& pending = open.emplace();
    pending.driver = std::string(tok[1].text);
    pending.net.name = std::move(name);
    pending.loc = {line, tok[2].column};
    pending.net.parasitics.reserve(elements_hint);
    pending.element_locs.reserve(elements_hint);
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
    timing::NetElement::Kind kind;
    switch (to_lower(tok[0].text[0])) {
      case 'r': kind = timing::NetElement::Kind::Resistor; break;
      case 'c': kind = timing::NetElement::Kind::Capacitor; break;
      case 'l': kind = timing::NetElement::Kind::Inductor; break;
      default:
        error(line, tok[0].column,
              "unknown element card '" + std::string(tok[0].text) +
                  "' (design nets take R/C/L only)");
        return;
    }
    double value = 0.0;
    if (!parse_double(tok[3], line, &value)) return;
    open->element_locs.push_back({line, tok[0].column});
    timing::NetElement& e = open->net.parasitics.emplace_back();
    e.kind = kind;
    e.node_a = tok[1].text;
    e.node_b = tok[2].text;
    e.value = value;
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
    elements_hint = open->net.parasitics.size();
    // A hint far above this net's size would strand more capacity than
    // doubling ever leaves.
    if (open->net.parasitics.capacity() / 2 > elements_hint) {
      open->net.parasitics.shrink_to_fit();
      open->element_locs.shrink_to_fit();
    }
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

circuit::SourceLoc DesignSourceMap::gate_loc(const std::string& gate) const {
  circuit::SourceLoc loc;
  const auto it = gates.find(gate);
  if (it != gates.end()) loc = {file, it->second.line, it->second.column};
  return loc;
}

circuit::SourceLoc DesignSourceMap::net_loc(const std::string& net) const {
  circuit::SourceLoc loc;
  const auto it = nets.find(net);
  if (it != nets.end()) loc = {file, it->second.line, it->second.column};
  return loc;
}

circuit::SourceLoc DesignSourceMap::element_loc(const std::string& net,
                                                std::size_t index) const {
  circuit::SourceLoc loc;
  const auto it = net_elements.find(net);
  if (it != net_elements.end() && index < it->second.size()) {
    const LineColumn& lc = it->second[index];
    loc = {file, lc.line, lc.column};
  }
  return loc;
}

bool looks_like_design(std::string_view text) {
  bool found = false;
  scan_lines(text, [&](const std::vector<Token>& tok, std::size_t) {
    found = !tok.empty() && is_directive(tok[0].text, ".gate");
    return !found;
  });
  return found;
}

namespace {

/// Feeds every card of `text`, whose first line is line
/// `lines_before + 1`, to `p`, up to a .end card (which sets `*ended`).
/// Returns the last line number visited.
std::size_t parse_cards(Parser& p, std::string_view text,
                        std::size_t lines_before, bool* ended) {
  return scan_lines(
      text,
      [&](const std::vector<Token>& tok, std::size_t line) {
        if (tok.empty()) return true;
        if (is_directive(tok[0].text, ".end")) {
          *ended = true;
          return false;
        }
        p.card(tok, line);
        return true;
      },
      lines_before);
}

DesignParse parse_serial(std::string_view text, std::string filename) {
  Parser p;
  p.out.sources.file = std::move(filename);
  bool ended = false;
  const std::size_t lines = parse_cards(p, text, 0, &ended);
  p.finish(lines == 0 ? 1 : lines);
  return std::move(p.out);
}

/// Below this many bytes a chunk does not pay for its thread, so a text
/// shorter than two chunks parses serially.
constexpr std::size_t kMinChunkBytes = 64 * 1024;

/// Whether the line starting at `pos` opens with the .net directive, as
/// scan_lines tokenizes it.
bool net_card_at(std::string_view text, std::size_t pos) {
  while (pos < text.size() && text[pos] != '\n' && is_space(text[pos])) {
    ++pos;
  }
  const std::size_t start = pos;
  while (pos < text.size() && !is_space(text[pos])) ++pos;
  return is_directive(text.substr(start, pos - start), ".net");
}

/// Where each chunk starts: `text` cut into `chunks` near-equal parts,
/// each cut moved forward to the start of a line that opens with .net,
/// so no net spans two chunks.  Fewer starts when the .net lines run
/// out.
std::vector<std::size_t> chunk_starts(std::string_view text,
                                      std::size_t chunks) {
  std::vector<std::size_t> starts{0};
  for (std::size_t k = 1; k < chunks; ++k) {
    std::size_t pos = std::max(text.size() / chunks * k, starts.back() + 1);
    if (text[pos - 1] != '\n') {
      pos = text.find('\n', pos);
      pos = pos == std::string_view::npos ? text.size() : pos + 1;
    }
    while (pos < text.size() && !net_card_at(text, pos)) {
      pos = text.find('\n', pos);
      pos = pos == std::string_view::npos ? text.size() : pos + 1;
    }
    if (pos >= text.size()) break;
    starts.push_back(pos);
  }
  return starts;
}

/// The chunked parse: each chunk through its own Parser on the pool,
/// merged in file order.  Empty when the serial parser must decide: a
/// chunk recorded a diagnostic or ended inside a net, the merge met a
/// duplicate gate or net, or finish() found an error.  Otherwise every
/// field equals the serial parse's.
std::optional<DesignParse> parse_chunked(std::string_view text,
                                         const std::string& filename,
                                         std::size_t threads) {
  const std::vector<std::size_t> starts =
      chunk_starts(text, std::min(threads, text.size() / kMinChunkBytes));
  const std::size_t chunks = starts.size();
  if (chunks < 2) return std::nullopt;
  const auto chunk_text = [&](std::size_t k) {
    const std::size_t end = k + 1 < chunks ? starts[k + 1] : text.size();
    return text.substr(starts[k], end - starts[k]);
  };
  core::ThreadPool pool(chunks);
  // Each chunk's first line number: the newlines ahead of it.
  std::vector<std::size_t> lines_before(chunks, 0);
  pool.parallel_for(chunks - 1, [&](std::size_t k) {
    const std::string_view t = chunk_text(k);
    lines_before[k + 1] =
        static_cast<std::size_t>(std::count(t.begin(), t.end(), '\n'));
  });
  for (std::size_t k = 1; k < chunks; ++k) {
    lines_before[k] += lines_before[k - 1];
  }
  std::vector<Parser> parsers(chunks);
  std::vector<std::size_t> last_line(chunks, 0);
  std::vector<char> ended(chunks, 0);
  // One chunk per thread: a chunk's nets outlive the parse in the
  // allocator arena of the thread that parsed it, and an arena keeps
  // its high-water mark resident, so a thread that took two chunks
  // would leave its arena a chunk larger from then on (wide-tree
  // peak_rss_mb 53 -> 62 MB in runs where that happened).
  pool.parallel_for_one_per_thread(chunks, [&](std::size_t k) {
    AWESIM_TRACE_SPAN("audit.chunk");
    Parser& p = parsers[k];
    p.out.sources.file = filename;
    bool stop = false;
    last_line[k] = parse_cards(p, chunk_text(k), lines_before[k], &stop);
    ended[k] = stop;
  });
  // A .end in chunk k ends the text there.
  std::size_t used = 0;
  while (used < chunks && !ended[used]) ++used;
  used = std::min(used + 1, chunks);
  Parser& merged = parsers[0];
  for (std::size_t k = 0; k < used; ++k) {
    Parser& p = parsers[k];
    if (!p.out.diagnostics.empty() || p.open.has_value()) return std::nullopt;
    if (k == 0) continue;
    merged.out.sources.gates.merge(p.out.sources.gates);
    merged.out.sources.nets.merge(p.out.sources.nets);
    // A name already merged stays behind: a duplicate.
    if (!p.out.sources.gates.empty() || !p.out.sources.nets.empty()) {
      return std::nullopt;
    }
    merged.out.sources.net_elements.merge(p.out.sources.net_elements);
    merged.gate_names.merge(p.gate_names);
    std::move(p.gates.begin(), p.gates.end(),
              std::back_inserter(merged.gates));
    std::move(p.nets.begin(), p.nets.end(), std::back_inserter(merged.nets));
    std::move(p.primary_inputs.begin(), p.primary_inputs.end(),
              std::back_inserter(merged.primary_inputs));
  }
  merged.finish(last_line[used - 1]);
  if (!merged.out.diagnostics.empty()) return std::nullopt;
  return std::move(merged.out);
}

}  // namespace

DesignParse parse_design(std::string_view text, std::string filename) {
  return detail::parse_design(text, std::move(filename), 0);
}

DesignParse detail::parse_design(std::string_view text, std::string filename,
                                 std::size_t threads) {
  AWESIM_TRACE_SPAN("audit.parse");
  if (threads == 0) threads = core::ThreadPool::hardware_threads();
  if (std::optional<DesignParse> chunked =
          parse_chunked(text, filename, threads)) {
    return std::move(*chunked);
  }
  return parse_serial(text, std::move(filename));
}

DesignParse parse_design_file(const std::string& path) {
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
  // Read straight into the one string the parse views; the size is a
  // reservation only, so a file that is not regular still reads whole.
  std::string text;
  std::error_code size_error;
  const auto size = std::filesystem::file_size(path, size_error);
  if (!size_error) text.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return parse_design(text, path);
}

}  // namespace awesim::audit
