// Ablation: what each CDCL feature buys on the paper's workload.
//
// The detection query (RISC-T100, Eq. 2 on the program counter) is solved
// with clause learning, VSIDS, and phase saving individually disabled.
// Correctness is unaffected (the test suite cross-checks all ablations
// against brute force); this bench quantifies the speed difference.
#include <iostream>

#include "bench_common.hpp"
#include "designs/risc.hpp"

int main(int argc, char** argv) {
  using namespace trojanscout;
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags, {"trigger"})) return 1;
  bench::BenchConfig config = bench::BenchConfig::from_cli(cli);
  if (!cli.has("budget")) config.budget_seconds = 30;  // default for this bench
  const unsigned trigger = static_cast<unsigned>(cli.get_int("trigger", 10));

  std::cout << "=== SAT-solver feature ablation (BMC on RISC-T100, trigger "
            << trigger << ") ===\n\n";

  struct Variant {
    const char* name;
    sat::SolverOptions options;
  };
  std::vector<Variant> variants;
  variants.push_back({"full CDCL", {}});
  {
    sat::SolverOptions o;
    o.enable_learning = false;
    variants.push_back({"no clause learning", o});
  }
  {
    sat::SolverOptions o;
    o.enable_vsids = false;
    variants.push_back({"no VSIDS (index order)", o});
  }
  {
    sat::SolverOptions o;
    o.enable_phase_saving = false;
    variants.push_back({"no phase saving", o});
  }

  util::Table table({"Solver variant", "Detected?", "Time (s)", "Frames",
                     "Memory"});
  for (const auto& variant : variants) {
    designs::RiscOptions risc_options;
    risc_options.trojan = designs::RiscTrojan::kT100;
    risc_options.trigger_count = trigger;
    const designs::Design design = designs::build_risc(risc_options);

    core::DetectorOptions options;
    options.engine.kind = core::EngineKind::kBmc;
    options.engine.max_frames = 16 * trigger;
    options.engine.time_limit_seconds = config.budget_seconds;
    options.engine.solver = variant.options;
    core::TrojanDetector detector(design, options);
    const core::CheckResult result =
        detector.check_corruption("program_counter");
    table.add_row({variant.name, result.violated ? "Yes" : "N/A",
                   util::cell_double(result.seconds, 3),
                   std::to_string(result.frames_completed),
                   bench::mem_cell(result.memory_bytes)});
    std::cerr << "[ablation] " << variant.name << " done\n";
  }
  table.print(std::cout);
  return 0;
}
