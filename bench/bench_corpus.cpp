// Mutation-corpus throughput bench: generates the seeded Trojan corpus
// (src/fuzz) and runs the full differential detection harness over it —
// the same work `trojanscout_cli fuzz` performs, measured so a regression
// in the mutation engine, the obligation schedulers, or the engines
// themselves shows up in the BENCH_corpus.json history artifact that
// tools/bench_compare.py gates against bench/baselines/.
//
// Besides timing, the bench re-asserts the harness's three oracles on the
// small CI corpus: zero clean-design false positives, every simulator-shown
// Trojan detected, zero harness (witness/determinism) failures. Exit 1 on
// any violation, so the quick-mode CI leg doubles as a smoke test.
//
//   --seed=N      corpus seed (default 42)
//   --count=N     corpus size (default 24; keep small, this runs in CI)
//   --jobs=N      parallel obligation workers (default 2)
//   --repeats=N   timing repeats for --bench-out (CI uses 3)
#include <iostream>

#include "bench_common.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/mutation.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout {
namespace {

struct RunOutcome {
  fuzz::CorpusReport report;
  double generate_seconds = 0.0;
  double harness_seconds = 0.0;
};

RunOutcome run_once(const fuzz::CorpusOptions& corpus_options,
                    const fuzz::HarnessOptions& harness_options) {
  RunOutcome out;
  util::Stopwatch generate_timer;
  const std::vector<fuzz::MutationSpec> corpus =
      fuzz::generate_corpus(corpus_options);
  out.generate_seconds = generate_timer.elapsed_seconds();

  util::Stopwatch harness_timer;
  fuzz::CorpusHarness harness(harness_options);
  out.report = harness.run(corpus, corpus_options.seed);
  out.harness_seconds = harness_timer.elapsed_seconds();
  return out;
}

}  // namespace

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  const bench::BenchConfig config = bench::BenchConfig::from_cli(cli);
  bench::MetricsSink sink(cli, "corpus");

  fuzz::CorpusOptions corpus_options;
  corpus_options.seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 42));
  corpus_options.count =
      static_cast<std::size_t>(cli.get_int("count", 24));
  fuzz::HarnessOptions harness_options;
  harness_options.jobs = static_cast<std::size_t>(cli.get_int("jobs", 2));

  std::cout << "=== Mutation corpus: seeded Trojan sweep + differential "
               "harness ===\n\n"
            << "seed " << corpus_options.seed << ", " << corpus_options.count
            << " variants, jobs=" << harness_options.jobs << "\n\n";

  RunOutcome last;
  for (std::size_t rep = 0; rep < config.repeats; ++rep) {
    last = run_once(corpus_options, harness_options);
    sink.bench().add_sample("corpus/generate", last.generate_seconds);
    sink.bench().add_sample("corpus/harness", last.harness_seconds);
    for (const auto& quantile : last.report.latency) {
      sink.bench().add_sample("corpus/obligation-p50-" + quantile.engine,
                              quantile.p50_seconds);
    }
  }
  const fuzz::CorpusReport& report = last.report;

  // Per-payload-style detection table (the machine-readable twin lives in
  // the fuzz CLI's --out artifact; this is the human summary).
  util::Table table({"Payload style", "Variants", "Reachable", "Detected"});
  for (int style = 0; style <= static_cast<int>(fuzz::PayloadStyle::kBypass);
       ++style) {
    const auto s = static_cast<fuzz::PayloadStyle>(style);
    std::size_t variants = 0;
    std::size_t reachable = 0;
    std::size_t detected = 0;
    for (const auto& outcome : report.variants) {
      if (outcome.spec.payload != s) continue;
      ++variants;
      if (outcome.reachable) ++reachable;
      if (outcome.detected) ++detected;
    }
    if (variants == 0) continue;
    table.add_row({fuzz::payload_style_name(s), std::to_string(variants),
                   std::to_string(reachable), std::to_string(detected)});
  }
  table.print(std::cout);
  std::cout << "\n" << report.summary() << "\n";
  for (const auto& quantile : report.latency) {
    std::cout << "latency[" << quantile.engine
              << "]: p50=" << quantile.p50_seconds
              << "s p90=" << quantile.p90_seconds
              << "s p99=" << quantile.p99_seconds << "s over "
              << quantile.samples << " obligations\n";
  }

  bool ok = true;
  if (report.false_positive_count != 0) {
    std::cerr << "FAIL: clean-design audit reported a finding\n";
    ok = false;
  }
  if (report.missed_count != 0) {
    std::cerr << "FAIL: " << report.missed_count
              << " simulator-shown Trojan(s) not flagged\n";
    ok = false;
  }
  if (report.failure_count != 0) {
    std::cerr << "FAIL: " << report.failure_count << " harness failure(s)\n";
    ok = false;
  }
  if (!sink.flush()) ok = false;
  return ok ? 0 : 1;
}

}  // namespace trojanscout

int main(int argc, char** argv) { return trojanscout::run(argc, argv); }
