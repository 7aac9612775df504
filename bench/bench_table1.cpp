// Regenerates Table 1: detection of the nine Trust-Hub / DeTrust Trojans by
// FANCI, VeriTrust, BMC and ATPG, with per-engine time, memory, and the
// maximum number of clock cycles unrolled within the depth budget.
//
// Semantics per column (see EXPERIMENTS.md):
//  * FANCI / VeriTrust "Detected?": whether any flagged suspect is an actual
//    Trojan gate of the design.
//  * BMC / ATPG "Detected?": whether the Eq. 2 no-data-corruption check on
//    the Trojan's target register produces a counterexample within the
//    budget; time and memory are for that run.
//  * "Max # clk cycles": how deep the same engine can certify the property
//    on the trigger-armed but payload-disabled variant within the depth
//    budget (the design is identical except the corruption mux, so this
//    measures exactly the paper's "how far can you unroll in the budget").
//  * Three clean-design rows reproduce the false-positive experiment.
#include <iostream>

#include "baselines/fanci.hpp"
#include "baselines/veritrust.hpp"
#include "bench_common.hpp"

namespace trojanscout {
namespace {

using bench::BenchConfig;
using core::CheckResult;
using core::EngineKind;

struct EngineRow {
  std::string detected;
  std::string time;
  std::string memory;
  std::string max_cycles;
};

EngineRow run_engine_row(const BenchConfig& config, EngineKind kind,
                         const designs::BenchmarkInfo& info,
                         bench::MetricsSink& sink) {
  EngineRow row;
  const char* engine = core::engine_name(kind);

  // Detection run on the armed design.
  designs::Design armed = info.build(/*payload_enabled=*/true);
  core::DetectorOptions options;
  options.engine =
      bench::make_engine(config, kind, armed, info.family, config.budget_seconds);
  options.scan_pseudo_critical = false;
  options.check_bypass = false;
  core::TrojanDetector detector(armed, options);
  const CheckResult detect = detector.check_corruption(info.critical_register);
  sink.add_check("table1", info.name, engine,
                 "corruption(" + info.critical_register + ")", detect);
  // Extra timing repeats for the --bench-out history (the regression gate
  // wants a stddev); the table cells come from the first run.
  for (std::size_t rep = 1;
       rep < config.repeats && sink.bench().enabled(); ++rep) {
    core::TrojanDetector repeat_detector(armed, options);
    const CheckResult repeat =
        repeat_detector.check_corruption(info.critical_register);
    sink.bench().add_sample(
        bench::bench_case_key(info.name, engine,
                              "corruption(" + info.critical_register + ")"),
        repeat.seconds);
  }
  row.detected = detect.violated ? "Yes" : "N/A";
  row.time = detect.violated ? util::cell_double(detect.seconds, 2) : "N/A";
  row.memory = detect.violated ? bench::mem_cell(detect.memory_bytes) : "N/A";

  // Depth run on the disarmed (payload-disabled) design.
  designs::Design disarmed = info.build(/*payload_enabled=*/false);
  core::DetectorOptions depth_options;
  depth_options.engine =
      bench::make_depth_engine(config, kind, config.depth_budget_seconds);
  depth_options.scan_pseudo_critical = false;
  depth_options.check_bypass = false;
  core::TrojanDetector depth_detector(disarmed, depth_options);
  const CheckResult depth =
      depth_detector.check_corruption(info.critical_register);
  sink.add_check("table1", info.name, engine,
                 "depth:corruption(" + info.critical_register + ")", depth);
  row.max_cycles =
      depth.violated ? "!" + bench::frames_cell(depth) : bench::frames_cell(depth);
  return row;
}

}  // namespace

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags | bench::kSinkFlags,
                          {"only"})) {
    return 1;
  }
  BenchConfig config = BenchConfig::from_cli(cli);
  // --only=<substring> restricts the benchmark rows (and skips the clean
  // rows unless they match) — CI uses it to smoke-test one small core.
  const std::string only = cli.get_string("only", "");
  bench::MetricsSink sink(cli, "table1");

  std::cout << "=== Table 1: Detecting the Trojans from Trust-Hub "
               "(DeTrust-hardened structures) ===\n"
            << "engine budget " << config.budget_seconds
            << " s, unroll-depth budget " << config.depth_budget_seconds
            << " s, RISC trigger count " << config.risc_trigger_count
            << "\n\n";

  util::Table table({"Trojan", "Critical reg", "FANCI", "VeriTrust",
                     "BMC det?", "BMC t(s)", "BMC mem", "BMC max clk",
                     "ATPG det?", "ATPG t(s)", "ATPG mem", "ATPG max clk"});

  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = config.risc_trigger_count;

  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    if (!only.empty() && info.name.find(only) == std::string::npos) continue;
    const designs::Design design = info.build(/*payload_enabled=*/true);

    // Structural / simulation baselines.
    baselines::FanciOptions fanci_options;
    const auto fanci = baselines::run_fanci(design.nl, fanci_options);
    bool fanci_hit = false;
    for (const auto& s : fanci.suspects) {
      fanci_hit = fanci_hit || design.is_trojan_gate(s.signal);
    }
    const auto workload = baselines::generate_workload(
        design.nl, info.family, info.family == "aes" ? 6000 : 20000, 42);
    const auto veritrust = baselines::run_veritrust(design.nl, workload);
    bool veritrust_hit = false;
    for (const auto& s : veritrust.suspects) {
      veritrust_hit = veritrust_hit || design.is_trojan_gate(s.signal);
    }

    const EngineRow bmc = run_engine_row(config, EngineKind::kBmc, info, sink);
    const EngineRow atpg =
        run_engine_row(config, EngineKind::kAtpg, info, sink);

    table.add_row({info.name, info.critical_register,
                   fanci_hit ? "Yes" : "No", veritrust_hit ? "Yes" : "No",
                   bmc.detected, bmc.time, bmc.memory, bmc.max_cycles,
                   atpg.detected, atpg.time, atpg.memory, atpg.max_cycles});
    std::cerr << "[table1] " << info.name << " done\n";
  }

  // False-positive rows: clean designs must not be flagged.
  for (const char* family : {"mc8051", "risc", "aes"}) {
    if (!only.empty() &&
        (std::string("clean-") + family).find(only) == std::string::npos) {
      continue;
    }
    const designs::Design clean = designs::build_clean(family);
    bool any_violation = false;
    std::size_t min_frames = config.max_frames;
    for (const auto& reg : clean.critical_registers) {
      core::DetectorOptions options;
      options.engine = bench::make_depth_engine(config, EngineKind::kBmc,
                                                config.depth_budget_seconds);
      options.scan_pseudo_critical = false;
      options.check_bypass = false;
      core::TrojanDetector detector(clean, options);
      const CheckResult result = detector.check_corruption(reg);
      sink.add_check("table1", std::string("clean-") + family, "BMC",
                     "depth:corruption(" + reg + ")", result);
      any_violation = any_violation || result.violated;
      min_frames = std::min(min_frames, result.frames_completed);
    }
    table.add_row({std::string("clean-") + family, "(all)", "-", "-",
                   any_violation ? "FALSE POSITIVE" : "No", "-", "-",
                   std::to_string(min_frames), "-", "-", "-", "-"});
    std::cerr << "[table1] clean-" << family << " done\n";
  }

  table.print(std::cout);
  std::cout << "\nNotes: 'N/A' = no counterexample found within the budget "
               "(AES-T1200's trigger needs ~2^128 cycles). Max-clk columns "
               "use the depth budget on the trigger-armed, payload-disabled "
               "variants.\n";
  return sink.flush() ? 0 : 1;
}

}  // namespace trojanscout

int main(int argc, char** argv) { return trojanscout::run(argc, argv); }
