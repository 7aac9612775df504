// Ablation / Section 4.4 scaling claims: how many clock cycles each engine
// unrolls as the time budget grows, and the memory each needs.
//
// Reproduced qualitative claims:
//  * ATPG unrolls ~2.5-3x more cycles than BMC in the same budget, counting
//    the frames ATPG aborts at the depth engine's 64-backtrack limit (the
//    "ATPG proven" column counts only the search-exhausted ones);
//  * BMC memory grows with unroll depth (CNF copies of the design), ATPG
//    memory stays roughly flat (one ternary value array per frame);
//  * given enough time, designs unroll for >1000 cycles;
//  * AES unrolls fewer frames than the processors (larger per-frame cone).
#include <iostream>

#include "bench_common.hpp"
#include "properties/monitors.hpp"

int main(int argc, char** argv) {
  using namespace trojanscout;
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags, {"budgets-extended"})) {
    return 1;
  }
  bench::BenchConfig config = bench::BenchConfig::from_cli(cli);

  std::cout << "=== Unroll-depth scaling: frames certified per time budget "
               "===\n\n";
  util::Table table({"Design", "Register", "Budget (s)", "BMC frames",
                     "BMC mem", "ATPG frames", "ATPG proven", "ATPG mem",
                     "ATPG/BMC"});

  std::vector<double> budgets = {1.0, 2.0, 5.0};
  if (cli.has("budgets-extended")) budgets.push_back(20.0);

  struct Target {
    const char* family;
    const char* reg;
  };
  for (const Target target : {Target{"mc8051", "sp"},
                              Target{"risc", "stack_pointer"},
                              Target{"aes", "key_reg"}}) {
    for (const double budget : budgets) {
      std::size_t frames[2] = {0, 0};
      std::size_t atpg_proven = 0;
      std::uint64_t memory[2] = {0, 0};
      for (const auto kind :
           {core::EngineKind::kBmc, core::EngineKind::kAtpg}) {
        const designs::Design design = designs::build_clean(target.family);
        core::DetectorOptions options;
        options.engine = bench::make_depth_engine(config, kind, budget);
        core::TrojanDetector detector(design, options);
        const core::CheckResult result = detector.check_corruption(target.reg);
        const int index = kind == core::EngineKind::kBmc ? 0 : 1;
        frames[index] = result.frames_completed;
        memory[index] = result.memory_bytes;
        if (kind == core::EngineKind::kAtpg) {
          atpg_proven = result.counters.atpg_frames_proven_clean;
        }
      }
      const double ratio =
          frames[0] > 0 ? static_cast<double>(frames[1]) /
                              static_cast<double>(frames[0])
                        : 0.0;
      table.add_row({target.family, target.reg, util::cell_double(budget, 1),
                     std::to_string(frames[0]), bench::mem_cell(memory[0]),
                     std::to_string(frames[1]), std::to_string(atpg_proven),
                     bench::mem_cell(memory[1]),
                     util::cell_double(ratio, 2)});
      std::cerr << "[unroll] " << target.family << " @ " << budget << "s done\n";
    }
  }
  table.print(std::cout);
  std::cout << "\n(The property is the Eq. 2 corruption check on a clean "
               "design. Every BMC frame is certified UNSAT. \"ATPG frames\" "
               "includes frames aborted at the 64-backtrack limit and so "
               "does ATPG/BMC; \"ATPG proven\" counts only the "
               "search-exhausted frames.)\n";
  return 0;
}
