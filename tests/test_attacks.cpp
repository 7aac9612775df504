// Section 4 attack tests: the pseudo-critical and bypass register attacks
// evade the Eq. 2 check (that is their point) and are exposed by the Eq. 3
// pseudo-critical monitor and the Eq. 4 fork miter respectively. Also tests
// the no-false-positive direction on clean designs.
#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "core/parallel_detector.hpp"
#include "designs/attacks.hpp"
#include "designs/catalog.hpp"
#include "designs/mc8051.hpp"
#include "designs/risc.hpp"
#include "netlist/wordops.hpp"
#include "properties/miter.hpp"
#include "properties/monitors.hpp"
#include "sim/simulator.hpp"

namespace trojanscout::core {
namespace {

using designs::Design;

DetectorOptions bmc_budget(std::size_t frames) {
  DetectorOptions options;
  options.engine.kind = EngineKind::kBmc;
  options.engine.max_frames = frames;
  options.engine.time_limit_seconds = 60.0;
  options.scan_pseudo_critical = false;
  options.check_bypass = false;
  return options;
}

Design pseudo_attacked_mc8051() {
  designs::Mc8051Options options;
  options.trojan = designs::Mc8051Trojan::kT800;
  options.payload_enabled = false;  // transformer supplies the payload
  Design design = designs::build_mc8051(options);
  designs::plant_pseudo_critical(design, "sp");
  return design;
}

Design bypass_attacked_mc8051() {
  designs::Mc8051Options options;
  options.trojan = designs::Mc8051Trojan::kT800;
  options.payload_enabled = false;
  Design design = designs::build_mc8051(options);
  designs::plant_bypass(design, "sp");
  return design;
}

TEST(PseudoCriticalAttack, EvadesTheCorruptionCheckOnTheCriticalRegister) {
  const Design design = pseudo_attacked_mc8051();
  TrojanDetector detector(design, bmc_budget(10));
  const CheckResult result = detector.check_corruption("sp");
  EXPECT_FALSE(result.violated)
      << "the attack corrupts the shadow register, never SP itself";
  EXPECT_TRUE(result.bound_reached);
}

TEST(PseudoCriticalAttack, Eq3MonitorExposesTheCorruptedShadow) {
  const Design design = pseudo_attacked_mc8051();
  TrojanDetector detector(design, bmc_budget(10));
  const CheckResult result =
      detector.check_pseudo_pair("sp", designs::pseudo_register_name("sp"));
  ASSERT_TRUE(result.violated);
  // Replay: the shadow mirrors SP up to the violation, then deviates.
  const auto& witness = *result.witness;
  const auto sp_trace = sim::replay_register(design.nl, witness, "sp");
  const auto shadow_trace =
      sim::replay_register(design.nl, witness, designs::pseudo_register_name("sp"));
  // The monitor compares the shadow's latched value at cycle t (latched at
  // the end of t-1) against SP's value one cycle earlier.
  const std::size_t t = witness.violation_frame;
  ASSERT_GE(t, 2u);
  EXPECT_NE(shadow_trace[t - 1], sp_trace[t - 2])
      << "deviates at the violation";
}

TEST(PseudoCriticalAttack, FullDetectorScanFindsIt) {
  // The scan's minimum-violation-depth rule needs a multi-cycle trigger
  // (shallow deviations are indistinguishable from ordinary register
  // divergence), so this uses the T400 sequence trigger on the stack
  // pointer instead of the single-byte UART trigger.
  designs::Mc8051Options mc_options;
  mc_options.trojan = designs::Mc8051Trojan::kT400;
  mc_options.payload_enabled = false;
  Design design = designs::build_mc8051(mc_options);
  designs::plant_pseudo_critical(design, "sp");
  ParallelDetectorOptions options;
  options.detector = bmc_budget(14);
  options.detector.scan_pseudo_critical = true;
  options.jobs = 1;
  const DetectionReport report = ParallelDetector(design, options).run();
  ASSERT_TRUE(report.trojan_found) << report.summary();
  bool pseudo_finding = false;
  for (const auto& finding : report.findings) {
    if (finding.kind == FindingKind::kPseudoCritical &&
        finding.register_name == "sp") {
      pseudo_finding = true;
    }
  }
  EXPECT_TRUE(pseudo_finding) << report.summary();
}

TEST(PseudoCriticalCertification, FaithfulMirrorIsCertifiedNotFlagged) {
  // A handcrafted design with a genuine pseudo-critical register (identity
  // and complement polarities) and no Trojan: Eq. 3 must reach the bound.
  netlist::Netlist nl;
  const netlist::Word in = nl.add_input_port("in", 4);
  const netlist::Word r = netlist::w_make_register(nl, "r", 4, 0);
  netlist::w_connect(nl, r, in);
  const netlist::Word p = netlist::w_make_register(nl, "p", 4, 0);
  netlist::w_connect(nl, p, r);
  const netlist::Word q = netlist::w_make_register(nl, "q", 4, 0xF);
  netlist::w_connect(nl, q, netlist::w_not(nl, r));
  nl.add_output_port("out", p);

  {
    netlist::Netlist copy = nl;
    const auto bad = properties::build_pseudo_critical_monitor(
        copy, "r", "p", properties::PseudoPolarity::kIdentity, false);
    EngineOptions engine;
    engine.max_frames = 12;
    const CheckResult result = run_engine(copy, bad, engine);
    EXPECT_FALSE(result.violated);
    EXPECT_TRUE(result.bound_reached);
  }
  {
    netlist::Netlist copy = nl;
    const auto bad = properties::build_pseudo_critical_monitor(
        copy, "r", "q", properties::PseudoPolarity::kComplement, false);
    EngineOptions engine;
    engine.max_frames = 12;
    const CheckResult result = run_engine(copy, bad, engine);
    EXPECT_FALSE(result.violated) << "complement polarity must certify too";
  }
  {
    // Wrong polarity must be refuted.
    netlist::Netlist copy = nl;
    const auto bad = properties::build_pseudo_critical_monitor(
        copy, "r", "q", properties::PseudoPolarity::kIdentity, false);
    EngineOptions engine;
    engine.max_frames = 12;
    EXPECT_TRUE(run_engine(copy, bad, engine).violated);
  }
}

TEST(BypassAttack, EvadesTheCorruptionCheckOnTheCriticalRegister) {
  const Design design = bypass_attacked_mc8051();
  TrojanDetector detector(design, bmc_budget(10));
  const CheckResult result = detector.check_corruption("sp");
  EXPECT_FALSE(result.violated)
      << "the bypass register is corrupted, never SP itself";
}

TEST(BypassAttack, Eq4MiterExposesTheBypass) {
  const Design design = bypass_attacked_mc8051();
  TrojanDetector detector(design, bmc_budget(24));
  const CheckResult result = detector.check_bypass("sp");
  ASSERT_TRUE(result.violated) << result.status;
}

TEST(BypassAttack, CleanDesignPassesTheEq4Miter) {
  // The crucial no-false-positive direction: on the clean core, forcing ~SP
  // into one copy must always reach the outputs, so the miter's bad signal
  // is unreachable.
  const Design design = designs::build_clean("mc8051");
  TrojanDetector detector(design, bmc_budget(14));
  const CheckResult result = detector.check_bypass("sp");
  EXPECT_FALSE(result.violated);
  EXPECT_TRUE(result.bound_reached);
}

TEST(BypassAttack, CleanRiscPassesTheEq4MiterOnEepromData) {
  const Design design = designs::build_clean("risc");
  TrojanDetector detector(design, bmc_budget(14));
  const CheckResult result = detector.check_bypass("eeprom_data");
  EXPECT_FALSE(result.violated);
}

TEST(BypassAttack, RiscBypassOnEepromDataIsDetected) {
  designs::RiscOptions options;
  options.trojan = designs::RiscTrojan::kT300;
  options.trigger_count = 2;
  options.payload_enabled = false;
  Design design = designs::build_risc(options);
  designs::plant_bypass(design, "eeprom_data");
  TrojanDetector detector(design, bmc_budget(40));
  const CheckResult result = detector.check_bypass("eeprom_data");
  EXPECT_TRUE(result.violated) << result.status;
}

TEST(Attacks, TransformersRequireAnExposedTrigger) {
  Design clean = designs::build_clean("mc8051");
  EXPECT_THROW(designs::plant_pseudo_critical(clean, "sp"),
               std::invalid_argument);
  EXPECT_THROW(designs::plant_bypass(clean, "sp"), std::invalid_argument);
}

TEST(Attacks, PseudoCandidatesHaveMatchingWidth) {
  const Design design = pseudo_attacked_mc8051();
  TrojanDetector detector(design, bmc_budget(4));
  const auto candidates = detector.pseudo_candidates("sp");
  const std::size_t width = design.nl.find_register("sp").dffs.size();
  bool has_shadow = false;
  for (const auto& name : candidates) {
    EXPECT_EQ(design.nl.find_register(name).dffs.size(), width);
    if (name == designs::pseudo_register_name("sp")) has_shadow = true;
  }
  EXPECT_TRUE(has_shadow);
}

}  // namespace
}  // namespace trojanscout::core
