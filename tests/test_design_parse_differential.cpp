// audit::parse_design against the reference parser it replaced
// (tests/util/reference_design_parse.*): every DesignParse field --
// gates and nets with value bits, element order and kinds, sink hookups,
// primary inputs, the whole source map, and every diagnostic field --
// must be identical on the netlist corpus, on generated tree and mesh
// designs, on whitespace/value variants, and on a seeded byte-mutation
// leg -- through the public call and with at most 1, 2 and 8 chunks,
// including designs large enough to split and mutants that put an error
// in every chunk.  Registered under the ctest labels "audit" and
// "malformed".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "audit/design_netlist.h"
#include "obs/trace.h"
#include "util/reference_design_parse.h"

namespace awesim::audit {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same_loc(const DesignSourceMap::LineColumn& got,
                     const DesignSourceMap::LineColumn& want,
                     const std::string& what) {
  EXPECT_EQ(got.line, want.line) << what;
  EXPECT_EQ(got.column, want.column) << what;
}

void expect_same_design(const timing::Design& got,
                        const timing::Design& want) {
  ASSERT_EQ(got.gates().size(), want.gates().size());
  for (auto g = got.gates().begin(), w = want.gates().begin();
       g != got.gates().end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(g->second.name, w->second.name);
    EXPECT_EQ(bits(g->second.drive_resistance),
              bits(w->second.drive_resistance)) << g->first;
    EXPECT_EQ(bits(g->second.input_capacitance),
              bits(w->second.input_capacitance)) << g->first;
    EXPECT_EQ(bits(g->second.intrinsic_delay),
              bits(w->second.intrinsic_delay)) << g->first;
  }
  EXPECT_EQ(got.primary_inputs(), want.primary_inputs());
  ASSERT_EQ(got.net_count(), want.net_count());
  for (std::size_t i = 0; i < got.net_count(); ++i) {
    const timing::Net& g = got.net_at(i);
    const timing::Net& w = want.net_at(i);
    EXPECT_EQ(got.net_driver(i), want.net_driver(i));
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.sink_node, w.sink_node) << g.name;
    EXPECT_TRUE(g.macros.empty() && w.macros.empty()) << g.name;
    ASSERT_EQ(g.parasitics.size(), w.parasitics.size()) << g.name;
    for (std::size_t e = 0; e < g.parasitics.size(); ++e) {
      const timing::NetElement& ge = g.parasitics[e];
      const timing::NetElement& we = w.parasitics[e];
      EXPECT_EQ(ge.kind, we.kind) << g.name << " element " << e;
      EXPECT_EQ(ge.node_a, we.node_a) << g.name << " element " << e;
      EXPECT_EQ(ge.node_b, we.node_b) << g.name << " element " << e;
      EXPECT_EQ(bits(ge.value), bits(we.value)) << g.name << " element " << e;
    }
  }
}

void expect_same_parse(const DesignParse& got, const DesignParse& want) {
  ASSERT_EQ(got.design.has_value(), want.design.has_value());
  if (want.design) expect_same_design(*got.design, *want.design);

  EXPECT_EQ(got.sources.file, want.sources.file);
  ASSERT_EQ(got.sources.gates.size(), want.sources.gates.size());
  for (auto g = got.sources.gates.begin(), w = want.sources.gates.begin();
       g != got.sources.gates.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    expect_same_loc(g->second, w->second, "gate " + g->first);
  }
  ASSERT_EQ(got.sources.nets.size(), want.sources.nets.size());
  for (auto g = got.sources.nets.begin(), w = want.sources.nets.begin();
       g != got.sources.nets.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    expect_same_loc(g->second, w->second, "net " + g->first);
  }
  ASSERT_EQ(got.sources.net_elements.size(),
            want.sources.net_elements.size());
  for (auto g = got.sources.net_elements.begin(),
            w = want.sources.net_elements.begin();
       g != got.sources.net_elements.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    ASSERT_EQ(g->second.size(), w->second.size()) << g->first;
    for (std::size_t e = 0; e < g->second.size(); ++e) {
      expect_same_loc(g->second[e], w->second[e],
                      g->first + " element " + std::to_string(e));
    }
  }

  ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size());
  for (std::size_t i = 0; i < got.diagnostics.size(); ++i) {
    const core::Diagnostic& g = got.diagnostics[i];
    const core::Diagnostic& w = want.diagnostics[i];
    const std::string what = "diagnostic " + std::to_string(i) + ": " +
                             w.to_string();
    EXPECT_EQ(g.code, w.code) << what;
    EXPECT_EQ(g.severity, w.severity) << what;
    EXPECT_EQ(g.message, w.message) << what;
    EXPECT_EQ(g.element, w.element) << what;
    EXPECT_EQ(g.node, w.node) << what;
    EXPECT_EQ(g.file, w.file) << what;
    EXPECT_EQ(g.line, w.line) << what;
    EXPECT_EQ(g.column, w.column) << what;
    EXPECT_EQ(bits(g.condition_estimate), bits(w.condition_estimate))
        << what;
  }
}

/// The public parse and the parse with at most 1, 2 and 8 chunks, each
/// against the reference.
void expect_same_text(const std::string& text, const std::string& label) {
  SCOPED_TRACE(label);
  const DesignParse want = testutil::reference_parse_design(text, label);
  expect_same_parse(parse_design(text, label), want);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    expect_same_parse(detail::parse_design(text, label, threads), want);
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           AWESIM_NETLIST_DIR)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// A seeded gate design in the perfbench card style: a binary tree of
/// RC-tree nets, or a chain of cross-linked RC meshes; `gates` 0 picks
/// a small default.
std::string generated_design(std::uint32_t seed, bool mesh,
                             std::size_t gates = 0) {
  std::mt19937 rng(seed);
  const auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto below = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  if (gates == 0) gates = mesh ? 12 : 15;
  std::ostringstream out;
  out.precision(6);
  out << "* generated " << (mesh ? "mesh" : "tree") << " design\n";
  for (std::size_t i = 0; i < gates; ++i) {
    out << ".gate g" << i << " rdrive=" << uniform(200, 2000)
        << " cin=" << uniform(2e-15, 8e-15)
        << " delay=" << uniform(5e-12, 20e-12) << "\n";
  }
  out << ".input g0\n";
  for (std::size_t i = 0; i < gates; ++i) {
    out << ".net g" << i << " n" << i << "\n";
    const std::size_t nodes = 8 + below(mesh ? 40 : 20);
    std::size_t card = 0;
    out << "R" << card++ << " DRV m0 " << uniform(5, 40) << "\n";
    for (std::size_t j = 1; j < nodes; ++j) {
      const std::size_t parent = mesh ? j - 1 : j - 1 - below(j < 4 ? j : 4);
      out << "R" << card++ << " m" << parent << " m" << j << " "
          << uniform(5, 40) << "\n";
    }
    for (std::size_t j = 0; j < nodes; ++j) {
      out << "C" << card++ << " m" << j << " 0 " << uniform(1e-15, 5e-15)
          << "\n";
    }
    if (mesh) {
      for (std::size_t k = 0; k < nodes / 4; ++k) {
        const std::size_t a = below(nodes - 3);
        out << "R" << card++ << " m" << a << " m" << a + 2 << " "
            << uniform(20, 200) << "\n";
        out << "C" << card++ << " m" << a << " m" << a + 3 << " "
            << uniform(0.2e-15, 1e-15) << "\n";
      }
    }
    out << "R" << card++ << " m" << nodes - 1 << " S0 " << uniform(5, 40)
        << "\n";
    const std::size_t child = mesh ? i + 1 : 2 * i + 1;
    out << ".sink " << (child < gates ? "g" + std::to_string(child) : "out")
        << " S0\n";
    if (!mesh && child + 1 < gates) {
      out << "R" << card++ << " m" << nodes / 2 << " S1 " << uniform(5, 40)
          << "\n";
      out << ".sink g" << child + 1 << " S1\n";
    }
    out << ".endnet\n";
  }
  out << ".end\n";
  return out.str();
}

/// A small design touching every card kind, valid as written.
const char* const kBase =
    "* variant base\n"
    ".gate drv rdrive=1k cin=5f delay=10p\n"
    ".gate snk rdrive=2k cin=4f\n"
    ".input drv\n"
    ".net drv n1\n"
    "R1 DRV a 100\n"
    "C1 a 0 10f\n"
    "L1 a b 1n\n"
    "R2 b S 50\n"
    ".sink snk S\n"
    ".endnet\n";

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

/// Whitespace, case, comment and value variants of kBase plus cards
/// that trip each parse error.
std::vector<std::string> variants() {
  const std::string base = kBase;
  std::vector<std::string> out = {
      base,
      replace_all(base, "\n", "\r\n"),
      replace_all(base, " ", "\t"),
      replace_all(base, " ", " \v"),
      replace_all(base, " ", "\f "),
      replace_all(base, " ", " \r\t "),
      base.substr(0, base.size() - 1),          // no final newline
      base.substr(0, base.size() - 8),          // cut inside .endnet
      replace_all(base, "\n", " * trailing comment\n"),
      replace_all(base, "\n", " *\n"),
      replace_all(base, "100\n", "*100\n"),     // value eaten by a comment
      replace_all(base, ".gate", ".GATE"),
      replace_all(replace_all(base, ".net", ".NeT"), ".endnet", ".ENDNET"),
      replace_all(replace_all(base, ".sink", ".SINK"), ".input", ".Input"),
      replace_all(replace_all(base, "R1", "r1"), "C1", "c1"),
      replace_all(base, "L1", "l1"),
      replace_all(base, "rdrive=", "RDrive="),
      replace_all(base, "100", "+1k"),
      replace_all(base, "100", "2.5meg"),
      replace_all(base, "100", "3.3Meg"),
      replace_all(base, "10f", "10fF"),
      replace_all(base, "10f", "1u"),
      replace_all(base, "10f", "4.7pF"),
      replace_all(base, "1n", "2t"),
      replace_all(base, "1n", "1g"),
      replace_all(base, "100", "nan"),
      replace_all(base, "100", "NaN"),
      replace_all(base, "100", "inf"),
      replace_all(base, "100", "-inf"),
      replace_all(base, "100", "1e400"),
      replace_all(base, "100", "-1e400"),
      replace_all(base, "100", "1e-400"),
      replace_all(base, "100", "4.9e-324"),
      replace_all(base, "100", "2.2250738585072011e-308"),
      replace_all(base, "100", "1e-310"),
      replace_all(base, "100", "0"),
      replace_all(base, "100", "-0"),
      replace_all(base, "100", "-0.0k"),
      replace_all(base, "100", "0x1p3"),
      // Around the exact-decimal fast path's limits: 2^53 digits,
      // 10^+-22, and the forms std::from_chars takes or refuses.
      replace_all(base, "100", "9007199254740991"),
      replace_all(base, "100", "9007199254740993"),
      replace_all(base, "100", "900719925474099.1"),
      replace_all(base, "100", "90071992547409.95"),
      replace_all(base, "100", "123456789012345678901234567890"),
      replace_all(base, "100", "0.000000000000000000000123"),
      replace_all(base, "100", "1e22"),
      replace_all(base, "100", "1e23"),
      replace_all(base, "100", "1.5e-22"),
      replace_all(base, "100", "15e-23"),
      replace_all(base, "100", "0.1"),
      replace_all(base, "100", "-.5"),
      replace_all(base, "100", ".5"),
      replace_all(base, "100", "1."),
      replace_all(base, "100", "+.5"),
      replace_all(base, "100", "1e+5"),
      replace_all(base, "100", "1E05"),
      replace_all(base, "100", "1e-"),
      replace_all(base, "100", "1e+"),
      replace_all(base, "100", "1e5.5"),
      replace_all(base, "100", "1.2.3"),
      replace_all(base, "100", "--5"),
      replace_all(base, "100", "1e99999999999"),
      replace_all(base, "100", "1.5x"),
      replace_all(base, "100", "1e"),
      replace_all(base, "100", "."),
      replace_all(base, "100", "-"),
      replace_all(base, "100", "1,5"),
      replace_all(base, "100", "1_000"),
      replace_all(base, "cin=5f", "cin=5f cin"),
      replace_all(base, "cin=5f", "cin=5f bogus=1"),
      replace_all(base, "cin=5f", "cin="),
      replace_all(base, "cin=5f", "=5f"),
      replace_all(base, "R1 DRV a 100", "R1 DRV a"),
      replace_all(base, "R1 DRV a 100", "R1 DRV a 100 7"),
      replace_all(base, "R1 DRV a 100", "X1 DRV a 100"),
      replace_all(base, "R1 DRV a 100", "X1 DRV a bad"),
      replace_all(base, "R1 DRV a 100", "R1 DRV a bad"),
      replace_all(base, "R1 DRV a 100", "\xc2\xa0R1 DRV a 100"),
      replace_all(base, "R1 DRV a 100", "R1\xa0" "DRV a 100"),
      replace_all(base, "R1 DRV a 100", "R1 DRV\x85" "a 100"),
      replace_all(base, "R1 DRV a 100", std::string("R1 DRV a 100\0", 13)),
      replace_all(base, ".sink snk S", ".sink snk"),
      replace_all(base, ".sink snk S", ".sink"),
      replace_all(base, ".input drv", ".input"),
      replace_all(base, ".input drv", ".input nobody"),
      replace_all(base, ".net drv n1", ".net drv"),
      replace_all(base, ".net drv n1", ".net nobody n1"),
      replace_all(base, ".gate snk rdrive=2k cin=4f", ".gate"),
      replace_all(base, ".gate snk rdrive=2k cin=4f", ".gate drv"),
      replace_all(base, ".endnet\n", ""),
      replace_all(base, ".endnet\n", ".endnet\n.endnet\n"),
      replace_all(base, ".endnet\n", ".net drv n1\n.endnet\n"),
      replace_all(base, ".endnet\n", ".endnet\n.net drv n1\n.endnet\n"),
      replace_all(base, ".sink snk S\n", ".sink snk S\n.bogus\n"),
      replace_all(base, "C1 a 0 10f\n", ".end\nC1 a 0 10f\n"),
      replace_all(base, "C1 a 0 10f\n", ".END\nC1 a 0 10f\n"),
      base + "R9 a b 1\n",
      base + ".sink snk S\n",
      "",
      "\n",
      "\r\n\v\f",
      "*\n",
      ".",
      ".end",
      "R",
  };
  return out;
}

TEST(DesignParseDifferential, CorpusFilesMatchTheReference) {
  const auto files = corpus_files();
  ASSERT_GT(files.size(), 20u);
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    expect_same_parse(parse_design_file(path.string()),
                      testutil::reference_parse_design_file(path.string()));
    expect_same_text(read_file(path), path.filename().string());
  }
  const std::string missing = std::string(AWESIM_NETLIST_DIR) + "/absent.sp";
  expect_same_parse(parse_design_file(missing),
                    testutil::reference_parse_design_file(missing));
  expect_same_parse(parse_design_file(AWESIM_NETLIST_DIR),
                    testutil::reference_parse_design_file(AWESIM_NETLIST_DIR));
}

TEST(DesignParseDifferential, GeneratedTreeAndMeshDesignsMatch) {
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    for (const bool mesh : {false, true}) {
      const std::string text = generated_design(seed, mesh);
      ASSERT_TRUE(parse_design(text, "gen").design.has_value());
      expect_same_text(text, "seed " + std::to_string(seed) +
                                 (mesh ? " mesh" : " tree"));
    }
  }
}

/// The number of chunks the last parse_design calls parsed, from the
/// audit.chunk span count (0 when tracing is compiled out).
template <typename Parse>
std::uint64_t chunks_parsed(Parse parse) {
  const bool was = obs::tracing_enabled();
  obs::set_tracing(true);
  const obs::PhaseBreakdown before = obs::snapshot();
  parse();
  std::uint64_t chunks = 0;
  for (const obs::NamedPhaseStats& p : obs::since(before)) {
    if (p.name == "audit.chunk") chunks = p.stats.count;
  }
  obs::set_tracing(was);
  return chunks;
}

/// Designs large enough to split, several ways of writing the .net
/// lines the chunks start at: each parse at 1, 2 and 8 chunks is the
/// reference's, and the chunked path really runs.
TEST(DesignParseDifferential, ChunkedParsesMatchAtEveryThreadCount) {
  for (const bool mesh : {false, true}) {
    const std::string text = generated_design(11, mesh, mesh ? 420 : 700);
    ASSERT_GT(text.size(), 8u * 64 * 1024);
    const std::vector<std::string> texts = {
        text,
        replace_all(text, "\n.net ", "\n.NeT "),
        replace_all(text, "\n.net ", "\n* .net fake\n \t.net "),
        replace_all(text, "\n", "\r\n"),
        text.substr(0, text.size() - 6),  // no .end: the last net still open
    };
    for (std::size_t i = 0; i < texts.size(); ++i) {
      expect_same_text(texts[i], std::string(mesh ? "mesh" : "tree") +
                                     " variant " + std::to_string(i));
    }
    if (obs::tracing_compiled_in()) {
      EXPECT_EQ(chunks_parsed([&] {
                  EXPECT_TRUE(
                      detail::parse_design(text, "gen", 8).design.has_value());
                }),
                8u);
      EXPECT_EQ(chunks_parsed([&] { detail::parse_design(text, "gen", 2); }),
                2u);
      EXPECT_EQ(chunks_parsed([&] { detail::parse_design(text, "gen", 1); }),
                0u);
      EXPECT_EQ(chunks_parsed([&] { parse_design(kBase, "small"); }), 0u);
    }
  }
}

/// An error, a missing .endnet, a duplicate gate or net, a .end and the
/// errors only the whole design shows (an undeclared driver or primary
/// input), each put at every chunk boundary of an 8-way split: the
/// chunked parse falls back to the serial parser (or, for the .end,
/// drops the chunks after it), so every diagnostic is the reference's.
TEST(DesignParseDifferential, ChunkMutantsGiveTheSerialDiagnostics) {
  const std::string text = generated_design(12, true, 420);
  std::vector<std::size_t> net_at;  // offset of each .net line
  for (std::size_t pos = text.find("\n.net "); pos != std::string::npos;
       pos = text.find("\n.net ", pos + 1)) {
    net_at.push_back(pos + 1);
  }
  ASSERT_EQ(net_at.size(), 420u);
  const auto line_end = [&](std::size_t pos) {
    return text.find('\n', pos) + 1;
  };
  // Near each of the seven cuts of an 8-way split (the cut moves
  // forward to a .net line, so these nets end one chunk or open the
  // next), the first net and the last.
  std::vector<std::size_t> positions;
  for (std::size_t p = 0; p < 8; ++p) {
    positions.push_back(net_at.size() * p / 8);
  }
  positions.push_back(net_at.size() - 1);
  for (const std::size_t j : positions) {
    const std::size_t at = net_at[j];
    const std::size_t first_card = line_end(at);
    const std::string name = "n" + std::to_string(j);
    std::vector<std::pair<std::string, std::string>> mutants;
    std::string m = text;
    m.replace(first_card, line_end(first_card) - first_card,
              "R0 DRV m0 bad\n");
    mutants.emplace_back("bad value", m);
    m = text;
    m.erase(text.find(".endnet\n", at), 8);
    mutants.emplace_back("missing .endnet", m);
    mutants.emplace_back("duplicate gate",
                         std::string(text).insert(at, ".gate g1\n"));
    m = text;
    m.replace(at, line_end(at) - at,
              ".net g" + std::to_string(j) + (j == 0 ? " n1\n" : " n0\n"));
    mutants.emplace_back("duplicate net", m);
    mutants.emplace_back(".end", std::string(text).insert(at, ".end\n"));
    m = text;
    m.replace(at, line_end(at) - at, ".net nobody " + name + "\n");
    mutants.emplace_back("undeclared driver", m);
    mutants.emplace_back("undeclared input",
                         std::string(text).insert(at, ".input nobody\n"));
    for (const auto& [what, mutant] : mutants) {
      expect_same_text(mutant, what + " at net " + std::to_string(j));
      if (HasFailure()) return;
    }
  }
}

TEST(DesignParseDifferential, WhitespaceAndValueVariantsMatch) {
  const std::vector<std::string> texts = variants();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    expect_same_text(texts[i], "variant " + std::to_string(i));
  }
}

TEST(DesignParseDifferential, RandomDecimalValuesMatch) {
  // Random doubles over the whole exponent range, printed at every
  // precision in three styles, as element values of one net.
  std::mt19937_64 rng(1989);
  std::ostringstream text;
  text << ".gate d\n.net d n\n";
  // Half the exponents near the fast path's +-22 window, half anywhere
  // in the normal range (an out-of-range value is a parse error, which
  // would drop the design and with it the values compared here).
  char value[512];
  for (int i = 0; i < 20000; ++i) {
    const double mantissa =
        std::uniform_real_distribution<double>(-10.0, 10.0)(rng);
    const int span = i % 2 == 0 ? 30 : 300;
    const int exponent = std::uniform_int_distribution<int>(-span, span)(rng);
    const int precision = std::uniform_int_distribution<int>(1, 19)(rng);
    const char* const style[] = {"%.*g", "%.*e", "%.*f"};
    const int pick = std::uniform_int_distribution<int>(0, 2)(rng);
    std::snprintf(value, sizeof value, style[pick], precision,
                  mantissa * std::pow(10.0, exponent));
    text << "R" << i << " a b " << value << "\n";
  }
  // Digit strings of 1..18 digits, a point anywhere, and an exponent
  // that puts the decimal scale within a few steps of +-22.
  for (int i = 0; i < 20000; ++i) {
    std::string digits;
    const int count = std::uniform_int_distribution<int>(1, 18)(rng);
    for (int d = 0; d < count; ++d) {
      digits += static_cast<char>('0' + (d == 0 ? 1 : 0) +
                                  std::uniform_int_distribution<int>(
                                      0, d == 0 ? 8 : 9)(rng));
    }
    const int point = std::uniform_int_distribution<int>(0, count)(rng);
    if (point < count) digits.insert(static_cast<std::size_t>(point), ".");
    const int scale = std::uniform_int_distribution<int>(-26, 26)(rng);
    const int exponent = scale + (count - point);
    text << "C" << i << " a 0 " << digits << "e" << exponent << "\n";
  }
  text << ".endnet\n";
  ASSERT_TRUE(parse_design(text.str(), "random decimals").design.has_value());
  expect_same_text(text.str(), "random decimals");
}

TEST(DesignParseDifferential, SeededByteMutationsMatch) {
  std::vector<std::string> seeds = variants();
  for (const auto& path : corpus_files()) seeds.push_back(read_file(path));
  seeds.push_back(generated_design(7, false));
  seeds.push_back(generated_design(8, true));

  // Bytes that steer the scanner: every whitespace class member, comment
  // and directive starts, value characters and suffixes, high bytes.
  static const char kAlphabet[] =
      " \t\n\v\f\r*.=+-0123456789eEkKfFpPmMgGtTuUnNrRcClLxX_\x80\xa0\xff";
  std::mt19937_64 rng(20261018);
  const auto below = [&](std::size_t n) {
    return n == 0 ? 0 : std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  constexpr int kIterations = 4000;
  for (int it = 0; it < kIterations; ++it) {
    std::string text = seeds[below(seeds.size())];
    const std::size_t edits = 1 + below(4);
    for (std::size_t k = 0; k < edits; ++k) {
      switch (below(4)) {
        case 0:  // flip one byte
          if (!text.empty()) {
            text[below(text.size())] = kAlphabet[below(sizeof kAlphabet - 1)];
          }
          break;
        case 1:  // insert one byte
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                         below(text.size() + 1)),
                      kAlphabet[below(sizeof kAlphabet - 1)]);
          break;
        case 2:  // delete one byte
          if (!text.empty()) text.erase(below(text.size()), 1);
          break;
        default: {  // duplicate one line
          const std::size_t at = below(text.size() + 1);
          const std::size_t begin =
              at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
          std::size_t end = text.find('\n', at);
          end = end == std::string::npos ? text.size() : end + 1;
          text.insert(begin, text.substr(begin, end - begin));
          break;
        }
      }
    }
    expect_same_text(text, "mutant " + std::to_string(it));
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "first mismatching mutant (iteration " << it << "):\n"
             << text;
    }
  }
}

}  // namespace
}  // namespace awesim::audit
