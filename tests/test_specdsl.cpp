// Spec-DSL tests: parsing, elaboration equivalence with code-built specs,
// and error reporting.
#include <gtest/gtest.h>

#include "bmc/bmc.hpp"
#include "core/detector.hpp"
#include "designs/mc8051.hpp"
#include "properties/monitors.hpp"
#include "specdsl/specdsl.hpp"

namespace trojanscout::specdsl {
namespace {

constexpr const char* kSpSpec = R"(
# Stack-pointer contract for the 8051-class core.
register sp
  way "Reset"      : reset == 1 -> const 0x07
  way "LCALL"      : phase == 1 && opcode == 0x12 -> add 1
  way "RET"        : phase == 1 && opcode == 0x22 -> sub 1
  way "MOV SP,#d"  : phase == 1 && opcode == 0x75 -> code_operand
)";

TEST(SpecDsl, ParsesWaysWithDescriptionsAndCycleLabels) {
  designs::Design design = designs::build_mc8051({});
  const auto spec = parse_spec(design.nl, kSpSpec);
  ASSERT_EQ(spec.registers.size(), 1u);
  const auto& sp = spec.registers[0];
  EXPECT_EQ(sp.reg, "sp");
  ASSERT_EQ(sp.ways.size(), 4u);
  EXPECT_EQ(sp.ways[0].description, "Reset");
  EXPECT_EQ(sp.ways[3].description, "MOV SP,#d");
}

TEST(SpecDsl, DetectionMatchesTheBuiltInSpec) {
  designs::Mc8051Options options;
  options.trojan = designs::Mc8051Trojan::kT800;
  designs::Design design = designs::build_mc8051(options);

  // Monitor from the DSL spec.
  designs::Design from_dsl = design;
  const auto dsl_spec = parse_spec(from_dsl.nl, kSpSpec);
  const auto bad_dsl = properties::build_corruption_monitor(
      from_dsl.nl, dsl_spec.registers[0],
      properties::CorruptionMonitorKind::kExact);
  bmc::BmcOptions bmc_options;
  bmc_options.max_frames = 8;
  const auto dsl_result =
      bmc::check_bad_signal(from_dsl.nl, bad_dsl, bmc_options);

  // Monitor from the code-built spec.
  designs::Design from_code = design;
  const auto bad_code = properties::build_corruption_monitor(
      from_code.nl, from_code.spec.at("sp"),
      properties::CorruptionMonitorKind::kExact);
  const auto code_result =
      bmc::check_bad_signal(from_code.nl, bad_code, bmc_options);

  ASSERT_EQ(dsl_result.status, bmc::BmcStatus::kViolated);
  ASSERT_EQ(code_result.status, bmc::BmcStatus::kViolated);
  EXPECT_EQ(dsl_result.witness->violation_frame,
            code_result.witness->violation_frame);
}

TEST(SpecDsl, CleanDesignCertifiesUnderTheDslSpec) {
  designs::Design design = designs::build_mc8051({});
  const auto spec = parse_spec(design.nl, kSpSpec);
  const auto bad = properties::build_corruption_monitor(
      design.nl, spec.registers[0],
      properties::CorruptionMonitorKind::kExact);
  bmc::BmcOptions options;
  options.max_frames = 10;
  EXPECT_EQ(bmc::check_bad_signal(design.nl, bad, options).status,
            bmc::BmcStatus::kBoundReached);
}

TEST(SpecDsl, BitSelectsAndBooleansElaborate) {
  designs::Design design = designs::build_mc8051({});
  const char* text = R"(
register ie
  way "set or clear" : (phase == 1 && opcode == 0xA8) || reset == 1 -> const 0
  way "bit poke" : ie[7] == 1 && !(int_req == 1) -> hold
)";
  const auto spec = parse_spec(design.nl, text);
  EXPECT_EQ(spec.registers[0].ways.size(), 2u);
}

TEST(SpecDsl, ObligationsParse) {
  designs::Design design = designs::build_mc8051({});
  const char* text = R"(
register acc
  way "Reset" : reset == 1 -> const 0
  obligation "acc drives port0" : reset == 0 observe acc latency 2
)";
  const auto spec = parse_spec(design.nl, text);
  ASSERT_EQ(spec.registers[0].obligations.size(), 1u);
  EXPECT_EQ(spec.registers[0].obligations[0].latency, 2u);
  EXPECT_EQ(spec.registers[0].obligations[0].observed_value.size(), 8u);
}

struct BadSpecCase {
  const char* label;
  const char* text;
  /// 1-based line the diagnostic must name; 0 = no line (whole-file error).
  int line;
  /// Substring the diagnostic must carry (the what, not just a location).
  const char* message;
};

// Names each case by its label, so the test name stays the same across
// builds (gtest would otherwise print the struct's pointer bytes).
void PrintTo(const BadSpecCase& c, std::ostream* os) { *os << c.label; }

class SpecDslErrors : public ::testing::TestWithParam<BadSpecCase> {};

/// A spec author fixes what the diagnostic names: every parse error must
/// point at the offending line and say what is wrong with it.
TEST_P(SpecDslErrors, AreReportedWithLineNumberAndCause) {
  designs::Design design = designs::build_mc8051({});
  const BadSpecCase& c = GetParam();
  try {
    parse_spec(design.nl, c.text);
    FAIL() << c.label << ": expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    if (c.line > 0) {
      const std::string expected_loc =
          "line " + std::to_string(c.line) + ":";
      EXPECT_NE(what.find(expected_loc), std::string::npos)
          << c.label << ": diagnostic lacks '" << expected_loc
          << "': " << what;
    }
    EXPECT_NE(what.find(c.message), std::string::npos)
        << c.label << ": diagnostic lacks '" << c.message << "': " << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpecDslErrors,
    ::testing::Values(
        BadSpecCase{"unknown register", "register bogus\n", 1,
                    "design has no register 'bogus'"},
        BadSpecCase{"way outside block", "way \"x\" : reset == 1 -> hold\n",
                    1, "statement outside a register block"},
        BadSpecCase{"unknown signal",
                    "register sp\n  way \"x\" : nosuch == 1 -> hold\n", 2,
                    "unknown port or register 'nosuch'"},
        BadSpecCase{"missing arrow",
                    "register sp\n  way \"x\" : reset == 1 const 0\n", 2,
                    "expected '->' in way"},
        BadSpecCase{"bad integer",
                    "register sp\n  way \"x\" : reset == zz -> hold\n", 2,
                    "expected integer"},
        BadSpecCase{"width mismatch",
                    "register sp\n  way \"x\" : reset == 1 -> pc\n", 2,
                    "width does not match"},
        BadSpecCase{"empty spec", "# nothing here\n", 0,
                    "no register blocks found"},
        BadSpecCase{"bad arity: add without operand",
                    "register sp\n  way \"x\" : reset == 1 -> add\n", 2,
                    "unexpected end of line"},
        BadSpecCase{"bad arity: dangling comparison",
                    "register sp\n  way \"x\" : reset == -> hold\n", 2,
                    "unexpected end of line"},
        BadSpecCase{"bad arity: latency without a count",
                    "register sp\n  way \"x\" : reset == 1 -> hold\n"
                    "  obligation \"o\" : reset == 1 latency\n",
                    3, "unexpected end of line"},
        BadSpecCase{"missing latency",
                    "register sp\n  way \"x\" : reset == 1 -> hold\n"
                    "  obligation \"o\" : reset == 1\n",
                    3, "obligation needs 'latency <N>'"},
        BadSpecCase{"duplicate register block",
                    "register sp\n  way \"x\" : reset == 1 -> hold\n"
                    "register sp\n  way \"y\" : reset == 1 -> hold\n",
                    3, "duplicate register block 'sp'"},
        BadSpecCase{"unrecognized statement",
                    "register sp\n  wayy \"x\" : reset == 1 -> hold\n", 2,
                    "unrecognized statement"}));

}  // namespace
}  // namespace trojanscout::specdsl
