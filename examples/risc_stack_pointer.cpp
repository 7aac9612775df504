// The paper's running example (Figure 1): a RISC processor whose stack
// pointer is decremented by two once 25 instructions with bits [13:10] in
// 0x4..0xB have executed. Walks through:
//   * the Table 2 valid-ways contract for the stack pointer,
//   * BMC detection and the recovered trigger sequence,
//   * witness replay showing the corruption,
//   * a VCD dump for waveform inspection.
//
// Run: ./risc_stack_pointer [--trigger=N]
#include <iostream>

#include "core/detector.hpp"
#include "designs/risc.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"
#include "util/cli.hpp"

using namespace trojanscout;

int main(int argc, char** argv) {
  const util::CliParser cli(argc, argv);
  if (!cli.check_flags({"trigger"})) return 1;
  const unsigned trigger =
      static_cast<unsigned>(cli.get_int("trigger", 25));

  designs::RiscOptions options;
  options.trojan = designs::RiscTrojan::kFig1StackPointer;
  options.trigger_count = trigger;
  const designs::Design design = designs::build_risc(options);

  std::cout << "3PIP under audit: " << design.name << " ("
            << design.nl.size() << " gates, " << design.nl.dffs().size()
            << " flip-flops)\n\nStack pointer contract (from the datasheet):\n";
  for (const auto& way : design.spec.at("stack_pointer").ways) {
    std::cout << "  cycle " << way.cycle_label << ": " << way.description
              << " -> " << way.value_description << "\n";
  }

  core::DetectorOptions detector_options;
  detector_options.engine.kind = core::EngineKind::kBmc;
  detector_options.engine.max_frames = 4 * trigger + 40;
  detector_options.engine.time_limit_seconds = 120;
  core::TrojanDetector detector(design, detector_options);

  std::cout << "\nChecking Eq. (2) no-data-corruption on stack_pointer...\n";
  const core::CheckResult result = detector.check_corruption("stack_pointer");
  if (!result.violated) {
    std::cout << "No corruption found within " << result.frames_completed
              << " cycles.\n";
    return 1;
  }

  const auto& witness = *result.witness;
  std::cout << "VIOLATION at clock cycle " << witness.violation_frame
            << " (solved in " << result.seconds << " s).\n\n";

  // Decode the instruction stream of the witness (one instruction per 4
  // cycles; the instruction register loads at the 4th).
  std::cout << "Recovered trigger program (instruction per machine cycle):\n";
  unsigned matching = 0;
  for (std::size_t t = 3; t < witness.frames.size(); t += 4) {
    const std::uint64_t instr = witness.port_value(design.nl, "prog_data", t);
    const unsigned msb4 = static_cast<unsigned>((instr >> 10) & 0xF);
    const bool in_range = msb4 >= 0x4 && msb4 <= 0xB;
    if (in_range) ++matching;
    if (t < 24 || in_range) {
      std::cout << "  cycle " << t << ": instr=0x" << std::hex << instr
                << std::dec << " bits[13:10]=0x" << std::hex << msb4
                << std::dec << (in_range ? "  <- counts toward trigger" : "")
                << "\n";
    }
  }
  std::cout << "Matching instructions: " << matching << " (trigger fires at "
            << trigger << ")\n\n";

  const auto trace = sim::replay_register(design.nl, witness, "stack_pointer");
  std::cout << "Stack-pointer replay (last 8 cycles):";
  for (std::size_t t = trace.size() >= 8 ? trace.size() - 8 : 0;
       t < trace.size(); ++t) {
    std::cout << " " << trace[t].to_uint();
  }
  std::cout << "\nThe final -2 step has no CALL/RETURN/RESET justification: "
               "Trojan confirmed.\n";

  if (sim::write_witness_vcd(design.nl, witness, "risc_witness.vcd")) {
    std::cout << "Waveform written to risc_witness.vcd\n";
  }
  return 0;
}
