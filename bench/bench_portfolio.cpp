// Engine-portfolio study: per corruption obligation, each engine alone
// (BMC, ATPG, PDR) vs the three-way race, on a Trojaned Table-1 core and
// the clean cores where only PDR can return an unbounded verdict.
//
// Two claims are checked, and the bench exits 1 if either breaks:
//   1. Dominance — the race's verdict is at least as strong as the best
//      single-engine verdict (violated > proven-unbounded > bound-reached),
//      on every obligation. Wall clock is reported but not gated here;
//      tools/bench_compare.py gates the timing samples against the
//      committed baseline.
//   2. Unbounded wins — on the clean designs the portfolio's winner
//      produces a proven-unbounded verdict (the PDR leg converges and the
//      race surfaces it), upgrading the paper's bounded trust claim.
//
//   --only=<substring>  restrict rows (CI quick mode)
//   --frames=N          frame bound per obligation (default 16)
//   --budget=S          per-engine wall-clock budget (default 100)
//   --repeats=N         timing repeats per case for --bench-out
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "portfolio/portfolio.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout {
namespace {

struct Row {
  std::string name;
  std::string family;
  designs::Design design;
  /// Empty = every corruption obligation; otherwise only this register's.
  std::string only_register;
  bool expect_unbounded = false;
};

struct Case {
  std::string label;
  std::string property;
  netlist::Netlist nl;
  netlist::SignalId bad = netlist::kNullSignal;
};

std::vector<Case> corruption_cases(const Row& row) {
  core::TrojanDetector detector(row.design, core::DetectorOptions{});
  std::vector<Case> cases;
  for (const core::Obligation& obligation : detector.enumerate_obligations()) {
    if (obligation.kind != core::Obligation::Kind::kCorruption) continue;
    if (!row.only_register.empty() && obligation.reg != row.only_register) {
      continue;
    }
    auto instrumented = detector.instrument_obligation(obligation);
    Case c;
    c.label = row.name;
    c.property = obligation.property_name();
    c.nl = std::move(instrumented.nl);
    c.bad = instrumented.bad;
    cases.push_back(std::move(c));
  }
  return cases;
}

int strength(const core::CheckResult& r) {
  if (r.violated) return 3;
  if (r.proven_unbounded) return 2;
  if (r.bound_reached) return 1;
  return 0;
}

std::string verdict_cell(const core::CheckResult& r, double seconds) {
  return r.status + " (" + util::cell_double(seconds, 3) + "s)";
}

}  // namespace

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags | bench::kSinkFlags,
                          {"only", "frames"})) {
    return 1;
  }
  const bench::BenchConfig config = bench::BenchConfig::from_cli(cli);
  const std::string only = cli.get_string("only", "");
  const std::size_t frames =
      static_cast<std::size_t>(cli.get_int("frames", 16));
  bench::MetricsSink sink(cli, "portfolio");

  std::vector<Row> rows;
  for (const auto& info : designs::trojan_benchmarks()) {
    if (info.name != "MC8051-T800") continue;
    rows.push_back({info.name, info.family,
                    info.build(/*payload_enabled=*/true),
                    info.critical_register, /*expect_unbounded=*/false});
  }
  rows.push_back({"clean-mc8051", "mc8051", designs::build_clean("mc8051"),
                  "", /*expect_unbounded=*/true});
  rows.push_back({"clean-router", "router", designs::build_clean("router"),
                  "", /*expect_unbounded=*/true});

  std::cout << "=== Engine portfolio vs single engines (corruption "
               "obligations, " << frames << " frames, "
            << config.budget_seconds << " s budget) ===\n\n";

  util::Table table({"Case", "Property", "BMC", "ATPG", "PDR", "Portfolio",
                     "Winner", "Dominates?"});

  constexpr core::EngineKind kSingles[] = {core::EngineKind::kBmc,
                                           core::EngineKind::kAtpg,
                                           core::EngineKind::kPdr};
  bool all_dominate = true;
  bool unbounded_ok = true;
  for (Row& row : rows) {
    if (!only.empty() && row.name.find(only) == std::string::npos) continue;
    for (const Case& c : corruption_cases(row)) {
      // One options block for every engine and for the race itself, so the
      // comparison (and the portfolio's own legs) run identical knobs; the
      // ATPG stimulus hints ride along and are ignored by BMC/PDR.
      core::EngineOptions options = bench::make_engine(
          config, core::EngineKind::kAtpg, row.design, row.family,
          config.budget_seconds);
      options.max_frames = frames;

      std::vector<std::string> cells = {c.label, c.property};
      int best_single = 0;
      for (std::size_t rep = 0; rep < config.repeats; ++rep) {
        core::CheckResult portfolio_result;
        double portfolio_seconds = 0.0;
        for (const core::EngineKind kind : kSingles) {
          util::Stopwatch timer;
          core::CheckResult r =
              portfolio::run_single(c.nl, c.bad, options, kind);
          const double seconds = timer.elapsed_seconds();
          sink.add_check("portfolio", c.label,
                         core::engine_flag_name(kind), c.property, r);
          if (rep + 1 == config.repeats) {
            if (strength(r) > best_single) best_single = strength(r);
            cells.push_back(verdict_cell(r, seconds));
          }
        }
        {
          util::Stopwatch timer;
          portfolio_result = portfolio::race(c.nl, c.bad, options);
          portfolio_seconds = timer.elapsed_seconds();
          sink.add_check("portfolio", c.label, "portfolio", c.property,
                         portfolio_result);
        }
        if (rep + 1 < config.repeats) continue;

        const bool dominates = strength(portfolio_result) >= best_single;
        all_dominate = all_dominate && dominates;
        if (row.expect_unbounded && !portfolio_result.proven_unbounded) {
          unbounded_ok = false;
        }
        cells.push_back(verdict_cell(portfolio_result, portfolio_seconds));
        cells.push_back(core::engine_flag_name(portfolio_result.engine_used));
        cells.push_back(dominates ? "yes" : "NO");
        table.add_row(cells);
      }
    }
  }

  table.print(std::cout);
  std::cout << "\nThe race's verdict selection is deterministic (strength, "
               "then bmc > atpg > pdr), so the Portfolio column must never "
               "be weaker than the strongest single-engine column.\n";
  if (!all_dominate) {
    std::cerr << "FAIL: portfolio verdict weaker than a single engine\n";
    return 1;
  }
  if (!unbounded_ok) {
    std::cerr << "FAIL: clean design without a proven-unbounded verdict\n";
    return 1;
  }
  return sink.flush() ? 0 : 1;
}

}  // namespace trojanscout

int main(int argc, char** argv) { return trojanscout::run(argc, argv); }
