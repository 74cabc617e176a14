// Malformed-netlist corpus: every file under netlists/bad/ must be
// rejected with precise, structured diagnostics -- never a crash, never a
// silently-parsed circuit -- and the collecting parser must report ALL
// the errors in a file, not just the first.  Registered under the ctest
// label "malformed" so CI can run the corpus as its own leg.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "netlist/parser.h"

namespace awesim::netlist {

namespace {

std::string bad_path(const std::string& name) {
  return std::string(AWESIM_NETLIST_DIR) + "/bad/" + name;
}

}  // namespace

TEST(NetlistMalformed, EveryCorpusFileIsRejectedWithLocatedDiagnostics) {
  const std::filesystem::path dir =
      std::filesystem::path(AWESIM_NETLIST_DIR) / "bad";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".sp") continue;
    ++files;
    const std::string path = entry.path().string();
    const ParseResult result = parse_file_collect(path);
    EXPECT_FALSE(result.ok()) << path;
    ASSERT_FALSE(result.diagnostics.empty()) << path;
    for (const auto& d : result.diagnostics) {
      EXPECT_GE(d.severity, core::Severity::Error) << path;
      EXPECT_EQ(d.file, path);
      EXPECT_FALSE(d.message.empty()) << path;
      if (d.code == core::DiagCode::ParseError) {
        EXPECT_GT(d.line, 0u) << path << ": " << d.message;
        EXPECT_GT(d.column, 0u) << path << ": " << d.message;
      }
    }
  }
  EXPECT_GE(files, 8u) << "corpus shrank unexpectedly";
}

TEST(NetlistMalformed, AllErrorsInOneFileAreReported) {
  const ParseResult result = parse_file_collect(bad_path("many_errors.sp"));
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 5u);
  const std::vector<std::size_t> lines = {2, 3, 4, 6, 7};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(result.diagnostics[i].line, lines[i]) << i;
    EXPECT_EQ(result.diagnostics[i].code, core::DiagCode::ParseError) << i;
  }
  // Spot-check columns and offending tokens.
  EXPECT_EQ(result.diagnostics[1].column, 8u);   // "10zz" on C1
  EXPECT_EQ(result.diagnostics[1].element, "10zz");
  EXPECT_EQ(result.diagnostics[2].column, 8u);   // "WIGGLE" on V1
  EXPECT_EQ(result.diagnostics[2].element, "WIGGLE");
  EXPECT_EQ(result.diagnostics[3].column, 1u);   // ".option"
  EXPECT_EQ(result.diagnostics[4].element, "nosuch");
}

TEST(NetlistMalformed, ValidationErrorsCarryTheStructuralMessage) {
  for (const std::string name :
       {"duplicate_elements.sp", "zero_value.sp", "dangling_node.sp"}) {
    const ParseResult result = parse_file_collect(bad_path(name));
    EXPECT_FALSE(result.ok()) << name;
    bool saw_validation = false;
    for (const auto& d : result.diagnostics) {
      if (d.code == core::DiagCode::ValidationError) saw_validation = true;
    }
    EXPECT_TRUE(saw_validation) << name;
  }
}

TEST(NetlistMalformed, RecoverySkipsBadCardsButKeepsParsingGoodOnes) {
  // A bad card in the middle must not hide later errors *or* derail the
  // line numbering of subsequent cards.
  const ParseResult result = parse_collect(
      "V1 a 0 DC 1\n"
      "Rbroken a b\n"
      "R2 a b 1k\n"
      "Calso b 0 nope\n",
      "inline.sp");
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(result.diagnostics[0].line, 2u);
  EXPECT_EQ(result.diagnostics[1].line, 4u);
  EXPECT_EQ(result.diagnostics[1].element, "nope");
  EXPECT_EQ(result.diagnostics[1].file, "inline.sp");
}

TEST(NetlistMalformed, CleanFilesStillParseThroughCollect) {
  const ParseResult result = parse_collect(
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "C1 out 0 1p\n"
      ".end\n");
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.circuit->elements().size(), 3u);
}

}  // namespace awesim::netlist
