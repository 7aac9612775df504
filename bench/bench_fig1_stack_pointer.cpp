// Regenerates Figure 1 / Examples 1, 2 and 4: the RISC stack-pointer Trojan.
//
// Scenario: the stack pointer's valid ways are CALL (+1), RETURN (-1) and
// RESET (0). The Trojan counts instructions whose bits [13:10] lie in
// 0x4..0xB and, at the configured count, decrements SP by two.
//
// The bench demonstrates:
//  1. Example 2 — BMC produces a counterexample made of trigger-pattern
//     instructions (the paper's "100 ADD instructions"; ADDLW carries bits
//     0x7 in [13:10] here), and the witness replays to a corrupted SP.
//  2. Example 4 — the bound matters: unrolled below 4 x trigger_count
//     cycles, no counterexample exists; at the threshold it appears.
//  3. The ATPG back end finds the same Trojan.
#include <iostream>

#include "bench_common.hpp"
#include "designs/risc.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"

int main(int argc, char** argv) {
  using namespace trojanscout;
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags, {"trigger"})) return 1;
  bench::BenchConfig config = bench::BenchConfig::from_cli(cli);
  const unsigned trigger = static_cast<unsigned>(
      cli.get_int("trigger", config.risc_trigger_count));

  designs::RiscOptions options;
  options.trojan = designs::RiscTrojan::kFig1StackPointer;
  options.trigger_count = trigger;
  const designs::Design design = designs::build_risc(options);

  std::cout << "=== Figure 1: RISC stack-pointer Trojan (trigger count "
            << trigger << ") ===\n\n";

  // Example 4: sweep the BMC bound around the 4 * trigger threshold.
  util::Table sweep({"BMC bound (cycles)", "Result", "Violation cycle",
                     "Time (s)"});
  const std::size_t threshold = 4 * trigger;
  for (const std::size_t bound :
       {threshold / 2, threshold - 4, threshold + 8, threshold + 40}) {
    core::EngineOptions engine;
    engine.kind = core::EngineKind::kBmc;
    engine.max_frames = bound;
    engine.time_limit_seconds = config.budget_seconds;
    core::DetectorOptions detector_options;
    detector_options.engine = engine;
    core::TrojanDetector detector(design, detector_options);
    const core::CheckResult result = detector.check_corruption("stack_pointer");
    sweep.add_row({std::to_string(bound),
                   result.violated ? "counterexample" : "no counterexample",
                   result.violated
                       ? std::to_string(result.witness->violation_frame)
                       : "-",
                   util::cell_double(result.seconds, 2)});
  }
  sweep.print(std::cout);
  std::cout << "(Example 4: below ~" << threshold
            << " unrolled cycles the trigger cannot complete.)\n\n";

  // Example 2: inspect the witness instruction stream.
  core::EngineOptions engine;
  engine.kind = core::EngineKind::kBmc;
  engine.max_frames = threshold + 40;
  engine.time_limit_seconds = config.budget_seconds;
  core::DetectorOptions detector_options;
  detector_options.engine = engine;
  core::TrojanDetector detector(design, detector_options);
  const core::CheckResult result = detector.check_corruption("stack_pointer");
  if (result.violated) {
    const auto& witness = *result.witness;
    std::size_t in_range = 0;
    for (std::size_t t = 0; t + 3 < witness.frames.size(); t += 4) {
      const std::uint64_t instr =
          witness.port_value(design.nl, "prog_data", t + 3);
      const unsigned msb4 = static_cast<unsigned>((instr >> 10) & 0xF);
      if (msb4 >= 0x4 && msb4 <= 0xB) ++in_range;
    }
    std::cout << "Witness: " << witness.frames.size()
              << " cycles; instruction windows with bits[13:10] in 0x4..0xB: "
              << in_range << " (needs " << trigger << ")\n";
    const auto trace =
        sim::replay_register(design.nl, witness, "stack_pointer");
    std::cout << "Stack-pointer trace tail:";
    for (std::size_t t = trace.size() >= 6 ? trace.size() - 6 : 0;
         t < trace.size(); ++t) {
      std::cout << " " << trace[t].to_uint();
    }
    std::cout << "  <- corrupted by -2 outside any valid way\n";
    if (sim::write_witness_vcd(design.nl, witness, "fig1_witness.vcd")) {
      std::cout << "Waveform written to fig1_witness.vcd\n";
    }
  } else {
    std::cout << "BMC found no counterexample (unexpected)\n";
  }

  // ATPG cross-check. Sequential ATPG searches a wider window: its
  // functional-stimulus phase needs enough cycles for a realistic
  // instruction mix (~3/8 trigger-pattern density) to accumulate the count.
  core::DetectorOptions atpg_options;
  atpg_options.engine = bench::make_engine(config, core::EngineKind::kAtpg,
                                           design, "risc",
                                           config.budget_seconds);
  atpg_options.engine.max_frames =
      std::max<std::size_t>(12 * trigger + 80, threshold + 60);
  core::TrojanDetector atpg_detector(design, atpg_options);
  const core::CheckResult atpg = atpg_detector.check_corruption("stack_pointer");
  std::cout << "\nATPG: " << (atpg.violated ? "counterexample at cycle " +
                                                  std::to_string(
                                                      atpg.witness->violation_frame)
                                            : "no counterexample")
            << " in " << util::cell_double(atpg.seconds, 2) << " s\n";
  return 0;
}
