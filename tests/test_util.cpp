// util module tests: BitVec, RNG, table printer, CLI parser, resource,
// JSON string escaping.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "proof/json.hpp"
#include "util/bitvec.hpp"
#include "util/cli.hpp"
#include "util/json_escape.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace trojanscout::util {
namespace {

TEST(BitVec, BasicSetGetResize) {
  BitVec v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_FALSE(v.get(3));
  v.set(3, true);
  EXPECT_TRUE(v.get(3));
  v.flip(3);
  EXPECT_FALSE(v.get(3));
  v.resize(100);
  EXPECT_EQ(v.size(), 100u);
  v.set(99, true);
  EXPECT_TRUE(v.get(99));
  EXPECT_EQ(v.popcount(), 1u);
}

TEST(BitVec, FromUintAndBack) {
  const BitVec v = BitVec::from_uint(0xDEAD, 16);
  EXPECT_EQ(v.to_uint(), 0xDEADu);
  EXPECT_EQ(v.to_hex_string(), "dead");
  EXPECT_EQ(BitVec::from_uint(0x5, 3).to_uint(), 0x5u);
  EXPECT_EQ(BitVec::from_uint(0xFF, 4).to_uint(), 0xFu) << "masked to width";
}

TEST(BitVec, BinaryStringRoundTrip) {
  const BitVec v = BitVec::from_binary_string("10110");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.to_uint(), 0b10110u);
  EXPECT_EQ(v.to_binary_string(), "10110");
  EXPECT_THROW(BitVec::from_binary_string("10x1"), std::invalid_argument);
}

TEST(BitVec, WideValuesCrossWordBoundary) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_EQ(v.popcount(), 3u);
  BitVec w = v;
  w ^= v;
  EXPECT_EQ(w.popcount(), 0u);
  w |= v;
  EXPECT_EQ(w, v);
  w &= BitVec(130);
  EXPECT_EQ(w.popcount(), 0u);
}

TEST(BitVec, SetAllRespectsWidth) {
  BitVec v(67, false);
  v.set_all();
  EXPECT_EQ(v.popcount(), 67u);
  v.clear_all();
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  Xoshiro256 c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedValuesInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniformBits) {
  Xoshiro256 rng(9);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.next_bool() ? 1 : 0;
  EXPECT_GT(ones, 4700);
  EXPECT_LT(ones, 5300);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| Name "), std::string::npos);
  EXPECT_NE(out.find("| alpha "), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table table({"A", "B", "C"});
  table.add_row({"x"});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("| x "), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog",      "--alpha=3",  "--beta", "7",
                        "positional", "--gamma",   "--d=x"};
  CliParser cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.has("gamma"));
  EXPECT_TRUE(cli.get_bool("gamma", false));
  EXPECT_EQ(cli.get_string("d", ""), "x");
  EXPECT_EQ(cli.get_string("missing", "fb"), "fb");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, HexAndDoubleValues) {
  const char* argv[] = {"prog", "--addr=0x1F", "--ratio=2.5"};
  CliParser cli(3, argv);
  EXPECT_EQ(cli.get_int("addr", 0), 0x1F);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0), 2.5);
}

TEST(JsonEscape, EveryAsciiByteRoundTripsThroughTheParser) {
  std::string all;
  for (int b = 0x00; b <= 0x7f; ++b) {
    const std::string text(1, static_cast<char>(b));
    all += text;
    std::string literal = "\"";
    append_json_escaped(literal, text);
    literal += '"';
    proof::Json parsed;
    std::string error;
    ASSERT_TRUE(proof::Json::parse(literal, parsed, &error))
        << "byte " << b << ": " << error;
    ASSERT_TRUE(parsed.is_string()) << "byte " << b;
    EXPECT_EQ(parsed.as_string(), text) << "byte " << b;
    // Control bytes never appear raw in the output.
    for (const char c : literal) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "byte " << b;
    }
  }
  std::string escaped;
  append_json_escaped(escaped, all);
  proof::Json parsed;
  ASSERT_TRUE(proof::Json::parse("\"" + escaped + "\"", parsed, nullptr));
  EXPECT_EQ(parsed.as_string(), all);

  // The short forms, and \u00XX for the other control bytes.
  std::string forms;
  append_json_escaped(forms, std::string("\"\\\n\r\t\x01\x1f", 7));
  EXPECT_EQ(forms, "\\\"\\\\\\n\\r\\t\\u0001\\u001f");
}

TEST(Resource, RssIsPositive) {
  EXPECT_GT(peak_rss_bytes(), 0u);
  EXPECT_GT(current_rss_bytes(), 0u);
}

TEST(Resource, VmHwmAgreesWithGetrusage) {
  // The two peak-RSS sources (getrusage ru_maxrss vs /proc/self/status
  // VmHWM) measure the same kernel high-water mark; the CLI summary prints
  // both as a cross-check. On Linux both must be available and agree to
  // within a small slack (page accounting differs by a few pages).
  const std::uint64_t rusage = peak_rss_bytes();
  const std::uint64_t hwm = peak_rss_hwm_bytes();
#ifdef __linux__
  ASSERT_GT(hwm, 0u);
  const std::uint64_t hi = rusage > hwm ? rusage : hwm;
  const std::uint64_t lo = rusage > hwm ? hwm : rusage;
  EXPECT_LT(hi - lo, 16u << 20)
      << "rusage=" << rusage << " vmhwm=" << hwm;
#else
  // Non-Linux: VmHWM is best-effort and may be unavailable (returns 0).
  if (hwm > 0) EXPECT_GT(rusage, 0u);
#endif
}

TEST(Resource, FormatBytesScales) {
  EXPECT_STREQ(format_bytes(512), "512 B");
  EXPECT_STREQ(format_bytes(2048), "2.00 KB");
  EXPECT_STREQ(format_bytes(3u << 20), "3.00 MB");
  EXPECT_STREQ(format_bytes(5ull << 30), "5.00 GB");
}

}  // namespace
}  // namespace trojanscout::util
