// Regenerates Table 3: detecting pseudo-critical and bypass registers
// (Section 4 attacks) on the nine benchmarks.
//
// For each benchmark the design is rebuilt with the Trojan's trigger armed
// but its direct payload disabled, and the Section 4 attack transformers
// supply the evasive payload:
//  * pseudo-critical variant: a shadow register intercepts the critical
//    register's fanout and is corrupted on trigger (Eq. 3 exposes it);
//  * bypass variant: a frozen bypass register is muxed over the critical
//    register's fanout on trigger (Eq. 4 fork miter exposes it).
//
// "Detected?" uses both properties; max-#-clk-cycles columns measure how
// deep each engine certifies the property within the depth budget on the
// benign counterparts (faithful mirror / clean design), mirroring the
// paper's 100-second unroll measurements.
#include <iostream>

#include "bench_common.hpp"
#include "designs/attacks.hpp"

namespace trojanscout {
namespace {

using bench::BenchConfig;
using core::CheckResult;
using core::EngineKind;

struct Row {
  std::string detected_bmc = "-";
  std::string detected_atpg = "-";
  std::string pseudo_cycles_bmc = "-";
  std::string pseudo_cycles_atpg = "-";
  std::string bypass_cycles_bmc = "-";
  std::string bypass_cycles_atpg = "-";
};

CheckResult pseudo_check(const BenchConfig& config, EngineKind kind,
                         const designs::BenchmarkInfo& info, bool corrupt,
                         double budget) {
  designs::Design design = info.build(/*payload_enabled=*/false);
  designs::plant_pseudo_critical(design, info.critical_register, corrupt);
  core::DetectorOptions options;
  options.engine = bench::make_engine(config, kind, design, info.family, budget);
  core::TrojanDetector detector(design, options);
  return detector.check_pseudo_pair(
      info.critical_register,
      designs::pseudo_register_name(info.critical_register));
}

CheckResult bypass_check(const BenchConfig& config, EngineKind kind,
                         const designs::BenchmarkInfo& info, bool planted,
                         double budget) {
  designs::Design design = info.build(/*payload_enabled=*/false);
  if (planted) {
    designs::plant_bypass(design, info.critical_register);
  }
  core::DetectorOptions options;
  options.engine = bench::make_engine(config, kind, design, info.family, budget);
  core::TrojanDetector detector(design, options);
  return detector.check_bypass(info.critical_register);
}

CheckResult pseudo_depth_check(const BenchConfig& config, EngineKind kind,
                               const designs::BenchmarkInfo& info,
                               double budget) {
  designs::Design design = info.build(/*payload_enabled=*/false);
  designs::plant_pseudo_critical(design, info.critical_register,
                                 /*corrupt=*/false);
  core::DetectorOptions options;
  options.engine = bench::make_depth_engine(config, kind, budget);
  core::TrojanDetector detector(design, options);
  return detector.check_pseudo_pair(
      info.critical_register,
      designs::pseudo_register_name(info.critical_register));
}

CheckResult bypass_depth_check(const BenchConfig& config, EngineKind kind,
                               const designs::BenchmarkInfo& info,
                               double budget) {
  designs::Design design = info.build(/*payload_enabled=*/false);
  core::DetectorOptions options;
  options.engine = bench::make_depth_engine(config, kind, budget);
  core::TrojanDetector detector(design, options);
  return detector.check_bypass(info.critical_register);
}

}  // namespace

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags | bench::kSinkFlags,
                          {"only"})) {
    return 1;
  }
  BenchConfig config = BenchConfig::from_cli(cli);
  if (!cli.has("budget")) config.budget_seconds = 60;  // default for this bench
  // --only=<substring> restricts the benchmark rows — CI uses it to
  // smoke-test one small core (same contract as bench_table1).
  const std::string only = cli.get_string("only", "");
  bench::MetricsSink sink(cli, "table3");

  std::cout << "=== Table 3: Detecting pseudo-critical and bypass registers "
               "===\n"
            << "engine budget " << config.budget_seconds
            << " s, unroll-depth budget " << config.depth_budget_seconds
            << " s\n\n";

  util::Table table({"Name", "Critical reg", "BMC det?", "ATPG det?",
                     "Pseudo clk (BMC)", "Pseudo clk (ATPG)",
                     "Bypass clk (BMC)", "Bypass clk (ATPG)"});

  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = config.risc_trigger_count;

  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    if (!only.empty() && info.name.find(only) == std::string::npos) continue;
    Row row;
    for (const EngineKind kind : {EngineKind::kBmc, EngineKind::kAtpg}) {
      // Detection: either attack variant being exposed counts.
      const CheckResult pseudo = pseudo_check(config, kind, info,
                                              /*corrupt=*/true,
                                              config.budget_seconds);
      const CheckResult bypass = bypass_check(config, kind, info,
                                              /*planted=*/true,
                                              config.budget_seconds);
      const char* engine = core::engine_name(kind);
      sink.add_check("table3", info.name, engine,
                     "pseudo(" + info.critical_register + ")", pseudo);
      sink.add_check("table3", info.name, engine,
                     "bypass(" + info.critical_register + ")", bypass);
      const bool detected = pseudo.violated || bypass.violated;
      (kind == EngineKind::kBmc ? row.detected_bmc : row.detected_atpg) =
          detected ? "Yes" : "N/A";

      // Unroll-depth measurements on the benign counterparts.
      const CheckResult pseudo_depth = pseudo_depth_check(
          config, kind, info, config.depth_budget_seconds);
      const CheckResult bypass_depth = bypass_depth_check(
          config, kind, info, config.depth_budget_seconds);
      sink.add_check("table3", info.name, engine,
                     "depth:pseudo(" + info.critical_register + ")",
                     pseudo_depth);
      sink.add_check("table3", info.name, engine,
                     "depth:bypass(" + info.critical_register + ")",
                     bypass_depth);
      (kind == EngineKind::kBmc ? row.pseudo_cycles_bmc
                                : row.pseudo_cycles_atpg) =
          bench::frames_cell(pseudo_depth);
      (kind == EngineKind::kBmc ? row.bypass_cycles_bmc
                                : row.bypass_cycles_atpg) =
          bench::frames_cell(bypass_depth);
    }
    table.add_row({info.name, info.critical_register, row.detected_bmc,
                   row.detected_atpg, row.pseudo_cycles_bmc,
                   row.pseudo_cycles_atpg, row.bypass_cycles_bmc,
                   row.bypass_cycles_atpg});
    std::cerr << "[table3] " << info.name << " done\n";
  }
  table.print(std::cout);
  std::cout << "\nFANCI / VeriTrust detect none of these variants (the "
               "Section 4 attacks only add DeTrust-style registered logic); "
               "see bench_table1 for those columns.\n";
  return sink.flush() ? 0 : 1;
}

}  // namespace trojanscout

int main(int argc, char** argv) { return trojanscout::run(argc, argv); }
