// The cache-key encoding (timing::detail::KeyBuilder): LEB128 varints
// at their byte-count boundaries, length-prefixed text at the same
// boundaries, raw 8-byte doubles, and the property every content-
// addressed store relies on -- under one fixed schema, two keys are
// equal iff their fields are (doubles by bit pattern).  Plus the stage
// key's layout contract: the content-key prefix stage_result_key
// reports is the key the lint store is addressed by.  Registered under
// the ctest label "numeric".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "timing/analyzer.h"
#include "timing/session.h"
#include "timing/stage_cache.h"
#include "util/random_circuits.h"

namespace awesim::timing::detail {
namespace {

std::string varint(std::uint64_t v) { return KeyBuilder().integer(v).take(); }

/// Decodes one varint at `pos`, advancing it.
std::uint64_t read_varint(const std::string& bytes, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<unsigned char>(bytes.at(pos++));
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

TEST(KeyEncoding, VarintsAtTheirByteBoundaries) {
  EXPECT_EQ(varint(0), std::string(1, '\x00'));
  EXPECT_EQ(varint(127), "\x7f");
  EXPECT_EQ(varint(128), "\x80\x01");
  EXPECT_EQ(varint(16383), "\xff\x7f");
  EXPECT_EQ(varint(16384), "\x80\x80\x01");
  EXPECT_EQ(varint(std::uint64_t{1} << 63),
            std::string(9, '\x80') + "\x01");
  EXPECT_EQ(varint(std::numeric_limits<std::uint64_t>::max()),
            std::string(9, '\xff') + "\x01");
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384}, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::string bytes = varint(v);
    std::size_t pos = 0;
    EXPECT_EQ(read_varint(bytes, pos), v);
    EXPECT_EQ(pos, bytes.size()) << v;
  }
}

TEST(KeyEncoding, TextLengthsAtTheVarintBoundaries) {
  for (const std::size_t n : {0, 1, 127, 128, 16383, 16384}) {
    const std::string s(n, 'x');
    const std::string bytes = KeyBuilder().text(s).take();
    EXPECT_EQ(bytes, varint(n) + s) << n;
  }
}

TEST(KeyEncoding, TagsAreOneByteAndDoublesTheirEightRawBytes) {
  EXPECT_EQ(KeyBuilder().tag('A').take(), "A");
  for (const double v : {0.0, -0.0, 1.0, 1e-300, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    const std::string bytes = KeyBuilder().number(v).take();
    ASSERT_EQ(bytes.size(), sizeof v);
    EXPECT_EQ(std::memcmp(bytes.data(), &v, sizeof v), 0);
  }
}

// One fixed schema: each slot is a tag, an integer, a double, a text,
// or a counted list of texts (the count selects how many follow, as the
// parasitic sections of the real keys do).
enum class Slot { Tag, Integer, Number, Text, List };
using Field = std::variant<char, std::uint64_t, std::uint64_t /*bits*/,
                           std::string, std::vector<std::string>>;

struct Record {
  std::vector<Field> fields;
  bool operator==(const Record&) const = default;
};

std::string key_of(const std::vector<Slot>& schema, const Record& r) {
  KeyBuilder kb;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const Field& f = r.fields[i];
    switch (schema[i]) {
      case Slot::Tag: kb.tag(std::get<0>(f)); break;
      case Slot::Integer: kb.integer(std::get<1>(f)); break;
      case Slot::Number: {
        double v = 0.0;
        const std::uint64_t bits = std::get<2>(f);
        std::memcpy(&v, &bits, sizeof v);
        kb.number(v);
        break;
      }
      case Slot::Text: kb.text(std::get<3>(f)); break;
      case Slot::List: {
        const auto& items = std::get<4>(f);
        kb.integer(items.size());
        for (const std::string& s : items) kb.text(s);
        break;
      }
    }
  }
  return kb.take();
}

TEST(KeyEncoding, KeysAreEqualIffFieldsAreEqualUnderOneSchema) {
  std::mt19937_64 rng(7);
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  // Small pools, so equal and near-equal fields are common; the values
  // straddle every varint boundary and the doubles that compare equal
  // but differ in bits (0.0/-0.0) or compare unequal with equal bits
  // (NaN).
  const std::vector<std::uint64_t> ints = {
      0, 1, 127, 128, 255, 16383, 16384, std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint64_t> doubles;
  for (const double v : {0.0, -0.0, 1.0, 2.0, std::nan(""), 1e-310}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    doubles.push_back(bits);
  }
  const std::vector<std::string> texts = {
      "", "a", "b", "ab", std::string(1, '\0'), "\x80", "\x01",
      std::string(127, 'a'), std::string(128, 'a')};
  const std::vector<char> tags = {'A', 'B', '\x01', '\x80'};

  for (int schema_seed = 0; schema_seed < 40; ++schema_seed) {
    std::vector<Slot> schema(1 + pick(6));
    for (Slot& s : schema) s = static_cast<Slot>(pick(5));
    const auto random_field = [&](Slot s) -> Field {
      switch (s) {
        case Slot::Tag:
          return Field(std::in_place_index<0>, tags[pick(tags.size())]);
        case Slot::Integer:
          return Field(std::in_place_index<1>, ints[pick(ints.size())]);
        case Slot::Number:
          return Field(std::in_place_index<2>, doubles[pick(doubles.size())]);
        case Slot::Text:
          return Field(std::in_place_index<3>, texts[pick(texts.size())]);
        case Slot::List: {
          std::vector<std::string> items(pick(3));
          for (std::string& item : items) item = texts[pick(texts.size())];
          return Field(std::in_place_index<4>, std::move(items));
        }
      }
      return Field{};
    };
    std::size_t equal_pairs = 0, unequal_pairs = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      // b is a, or a with one field redrawn (often to a neighbour of a
      // varint or length boundary, sometimes to the same value).
      Record a;
      for (const Slot s : schema) a.fields.push_back(random_field(s));
      Record b = a;
      if (pick(2) == 1) {
        const std::size_t i = pick(schema.size());
        b.fields[i] = random_field(schema[i]);
      }
      const bool same_fields = a == b;
      (same_fields ? equal_pairs : unequal_pairs) += 1;
      EXPECT_EQ(key_of(schema, a) == key_of(schema, b), same_fields)
          << "schema " << schema_seed << " trial " << trial;
    }
    EXPECT_GT(equal_pairs, 0u);
    EXPECT_GT(unequal_pairs, 0u);
  }
}

TEST(KeyEncoding, StageKeyContentPrefixAddressesTheLintStore) {
  const Design design = testutil::chain_design(5);
  auto cache = std::make_shared<StageCache>();
  Session session(design, {}, cache);
  session.analyze();
  ASSERT_EQ(cache->lint_entries(), design.net_count());

  const AnalysisOptions options;
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const Net& net = design.net_at(i);
    const Gate& driver = design.gates().at(design.net_driver(i));
    std::size_t content_size = 0;
    const std::string key = stage_result_key(driver, net, design.gates(),
                                             options, 1e-10, &content_size);
    ASSERT_LT(content_size, key.size());
    EXPECT_EQ(key.front(), 'A');
    const StageCache::Counters before = cache->counters();
    EXPECT_NE(cache->lookup_lint(std::string_view(key).substr(0, content_size)),
              nullptr)
        << net.name;
    EXPECT_EQ(cache->counters().lint_hits, before.lint_hits + 1);

    // Names, slew and measurement options sit past the prefix: they
    // change the result key, never the content key.
    Net renamed = net;
    renamed.name = net.name + "_renamed";
    AnalysisOptions other = options;
    other.order = options.order + 1;
    std::size_t other_size = 0;
    const std::string other_key = stage_result_key(
        driver, renamed, design.gates(), other, 2e-10, &other_size);
    EXPECT_NE(other_key, key);
    ASSERT_EQ(other_size, content_size);
    EXPECT_EQ(other_key.compare(0, other_size, key, 0, content_size), 0);
  }
}

}  // namespace
}  // namespace awesim::timing::detail
