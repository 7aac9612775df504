// Ablation: detection cost versus trigger-sequence length (the paper's
// Example 4 generalized). The RISC Figure-1 Trojan is instantiated with
// increasing trigger counts; the required witness depth grows as 4 x count
// clock cycles and both engines' costs scale with it.
#include <iostream>

#include "bench_common.hpp"
#include "designs/risc.hpp"

int main(int argc, char** argv) {
  using namespace trojanscout;
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags, {})) return 1;
  bench::BenchConfig config = bench::BenchConfig::from_cli(cli);
  if (!cli.has("budget")) config.budget_seconds = 30;  // default for this bench

  std::cout << "=== Trigger-length sweep: RISC Figure-1 stack-pointer Trojan "
               "===\n\n";
  util::Table table({"Trigger count", "Witness depth (BMC)", "BMC time (s)",
                     "ATPG detected?", "ATPG time (s)"});

  for (const unsigned trigger : {2u, 5u, 10u, 25u, 50u}) {
    designs::RiscOptions options;
    options.trojan = designs::RiscTrojan::kFig1StackPointer;
    options.trigger_count = trigger;
    const designs::Design design = designs::build_risc(options);

    core::DetectorOptions bmc_options;
    bmc_options.engine.kind = core::EngineKind::kBmc;
    bmc_options.engine.max_frames = 4 * trigger + 60;
    bmc_options.engine.time_limit_seconds = config.budget_seconds;
    core::TrojanDetector bmc(design, bmc_options);
    const core::CheckResult bmc_result = bmc.check_corruption("stack_pointer");

    core::DetectorOptions atpg_options;
    atpg_options.engine =
        bench::make_engine(config, core::EngineKind::kAtpg, design, "risc",
                           config.budget_seconds);
    // Wider window than BMC's: the ATPG finds the trigger via functional
    // stimuli whose trigger-pattern density is ~3/8 per instruction.
    atpg_options.engine.max_frames = 12 * trigger + 80;
    core::TrojanDetector atpg(design, atpg_options);
    const core::CheckResult atpg_result =
        atpg.check_corruption("stack_pointer");

    table.add_row({std::to_string(trigger),
                   bmc_result.violated
                       ? std::to_string(bmc_result.witness->violation_frame)
                       : "-",
                   util::cell_double(bmc_result.seconds, 2),
                   atpg_result.violated ? "Yes" : "N/A",
                   util::cell_double(atpg_result.seconds, 2)});
    std::cerr << "[sweep] trigger " << trigger << " done\n";
  }
  table.print(std::cout);
  return 0;
}
