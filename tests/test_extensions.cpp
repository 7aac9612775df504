// Tests for the extensions beyond the paper's core: witness minimization
// and unbounded proofs (PDR through the obligation API).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bmc/bmc.hpp"
#include "core/detector.hpp"
#include "core/minimize.hpp"
#include "designs/aes.hpp"
#include "designs/catalog.hpp"
#include "designs/mc8051.hpp"
#include "designs/risc.hpp"
#include "properties/monitors.hpp"
#include "sim/simulator.hpp"
#include "sim/witness.hpp"

namespace trojanscout {
namespace {

TEST(MinimizeWitness, ShrinksTheRiscTriggerToItsEssentials) {
  designs::RiscOptions options;
  options.trojan = designs::RiscTrojan::kFig1StackPointer;
  options.trigger_count = 4;
  designs::Design design = designs::build_risc(options);
  const auto bad = properties::build_corruption_monitor(
      design.nl, design.spec.at("stack_pointer"),
      properties::CorruptionMonitorKind::kExact);

  bmc::BmcOptions bmc_options;
  bmc_options.max_frames = 40;
  const auto result = bmc::check_bad_signal(design.nl, bad, bmc_options);
  ASSERT_EQ(result.status, bmc::BmcStatus::kViolated);

  core::MinimizeStats stats;
  const sim::Witness minimized =
      core::minimize_witness(design.nl, bad, *result.witness, &stats);
  EXPECT_LE(stats.bits_after, stats.bits_before);
  EXPECT_GT(stats.simulations, 1u);

  // The minimized witness must still violate.
  sim::Simulator simulator(design.nl);
  for (std::size_t t = 0; t <= minimized.violation_frame; ++t) {
    simulator.set_inputs(minimized.frames[t].bits);
    simulator.eval();
    if (t == minimized.violation_frame) {
      EXPECT_TRUE(simulator.value(bad));
    }
    simulator.step();
  }
}

TEST(MinimizeWitness, RejectsNonViolatingWitness) {
  designs::Design design = designs::build_mc8051({});
  const auto bad = properties::build_corruption_monitor(
      design.nl, design.spec.at("sp"),
      properties::CorruptionMonitorKind::kExact);
  sim::Witness bogus;
  bogus.violation_frame = 1;
  bogus.frames.resize(2);
  for (auto& frame : bogus.frames) {
    frame.bits = util::BitVec(design.nl.num_inputs());
  }
  EXPECT_THROW(core::minimize_witness(design.nl, bad, bogus),
               std::invalid_argument);
}

/// Eq. 2 (no data corruption) on `reg`, run by PDR through the obligation
/// API: the unbounded prover the `prove` subcommand uses.
core::CheckResult prove_corruption(const designs::Design& design,
                                   const std::string& reg,
                                   std::size_t max_frames = 128) {
  core::DetectorOptions options;
  options.engine.kind = core::EngineKind::kPdr;
  options.engine.max_frames = max_frames;
  options.engine.time_limit_seconds = 30.0;
  return core::TrojanDetector(design, options)
      .run_obligation({core::Obligation::Kind::kCorruption, reg, {}});
}

TEST(UnboundedProof, CleanContractIsProvenForAllTime) {
  // A clean core's register follows its spec from every reachable state, so
  // no reset-every-T-cycles caveat is needed (strengthens the paper's
  // Section 3.2 protocol). These are all the clean contracts the retired
  // k-induction prover proved; the invariant is re-proved by the engine
  // before it claims the proof.
  struct Case {
    const char* family;
    std::vector<std::string> registers;
  };
  const std::vector<Case> cases = {
      {"mc8051", designs::build_clean("mc8051").critical_registers},
      {"risc", {"stack_pointer", "interrupt_enable", "sleep_flag"}},
      {"aes", {"key_reg"}},
  };
  for (const Case& c : cases) {
    const designs::Design design = designs::build_clean(c.family);
    for (const std::string& reg : c.registers) {
      SCOPED_TRACE(std::string(c.family) + "/" + reg);
      const core::CheckResult result = prove_corruption(design, reg);
      EXPECT_TRUE(result.proven_unbounded) << result.status;
      EXPECT_FALSE(result.violated);
      EXPECT_TRUE(result.invariant.has_value());
    }
  }
}

TEST(UnboundedProof, TrojanYieldsAReplayableCounterexample) {
  designs::Mc8051Options options;
  options.trojan = designs::Mc8051Trojan::kT700;
  const designs::Design design = designs::build_mc8051(options);
  const core::CheckResult result = prove_corruption(design, "acc");
  ASSERT_TRUE(result.violated) << result.status;
  EXPECT_FALSE(result.proven_unbounded);
  ASSERT_TRUE(result.witness.has_value());
  // The witness drives the same monitored netlist the engine ran on.
  const auto property = core::TrojanDetector(design, {}).instrument_obligation(
      {core::Obligation::Kind::kCorruption, "acc", {}});
  EXPECT_TRUE(
      sim::replay_confirms(property.nl, property.bad, *result.witness)
          .confirmed);
}

TEST(UnboundedProof, TimeBombIsNotProvenWithinThreeFrames) {
  // RISC-T100's trigger needs 50 instructions from reset and AES-T1200's
  // key corruption waits for a long counter, so PDR finds no counterexample
  // within 3 frames — but each Trojan exists, so it must stop at the bound
  // rather than claim a proof.
  designs::RiscOptions risc;
  risc.trojan = designs::RiscTrojan::kT100;
  risc.trigger_count = 50;
  designs::AesOptions aes;
  aes.trojan = designs::AesTrojan::kT1200;
  const std::vector<std::pair<designs::Design, std::string>> bombs = {
      {designs::build_risc(risc), "program_counter"},
      {designs::build_aes(aes), "key_reg"},
  };
  for (const auto& [design, reg] : bombs) {
    SCOPED_TRACE(reg);
    const core::CheckResult result =
        prove_corruption(design, reg, /*max_frames=*/3);
    EXPECT_FALSE(result.proven_unbounded);
    EXPECT_FALSE(result.violated);
    EXPECT_TRUE(result.bound_reached) << result.status;
  }
}

TEST(UnboundedProof, CleanRiscEepromRegistersAreProvenForAllTime) {
  const designs::Design design = designs::build_risc({});
  for (const char* reg : {"eeprom_data", "eeprom_address"}) {
    const core::CheckResult result = prove_corruption(design, reg);
    EXPECT_TRUE(result.proven_unbounded) << reg << ": " << result.status;
  }
}

}  // namespace
}  // namespace trojanscout
