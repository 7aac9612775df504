// Scaling study for the parallel property scheduler: the full Algorithm 1
// workload on the Table-1 cores (multi-register critical sets with the
// Eq. 3 pseudo-critical scan enabled, so one design fans out into dozens
// of independent property obligations), run by the work-stealing scheduler
// at 1/2/4/8 workers. One worker is the serial audit and the reference.
//
// Besides wall clock and speedup, the harness diffs every multi-worker
// DetectionReport signature against the 1-worker one: the scheduler
// promises byte-identical reports for any jobs value (no fail-fast), and
// this bench fails loudly (exit 1) if that ever breaks.
//
//   --frames=N    unroll bound per obligation (default 12)
//   --budget=S    per-obligation engine budget (default 600, i.e. never the
//                 limiter — timeouts would make the reports nondeterministic)
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "core/parallel_detector.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout {
namespace {

core::DetectorOptions workload_options(const util::CliParser& cli) {
  core::DetectorOptions options;
  options.engine.kind = core::EngineKind::kBmc;
  options.engine.max_frames =
      static_cast<std::size_t>(cli.get_int("frames", 12));
  options.engine.time_limit_seconds = cli.get_double("budget", 600.0);
  options.scan_pseudo_critical = true;
  options.check_bypass = true;
  return options;
}

}  // namespace

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kSinkFlags,
                          {"only", "frames", "budget"})) {
    return 1;
  }
  // --only=<substring> restricts the workloads (CI quick mode).
  const std::string only = cli.get_string("only", "");
  bench::MetricsSink sink(cli, "parallel_scaling");

  struct Workload {
    std::string name;
    designs::Design design;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"clean-mc8051", designs::build_clean("mc8051")});
  workloads.push_back({"clean-risc", designs::build_clean("risc")});
  for (const auto& info : designs::trojan_benchmarks()) {
    if (info.name == "MC8051-T800") {
      workloads.push_back({info.name, info.build(/*payload_enabled=*/true)});
    }
  }

  std::cout << "=== Parallel property scheduler scaling (Algorithm 1, "
               "BMC, pseudo-critical scan on) ===\n\n"
            << "hardware threads: " << std::thread::hardware_concurrency()
            << " (speedup is bounded by this; on a 1-core host the table "
               "only measures scheduler overhead)\n\n";

  util::Table table({"Workload", "Obligations", "1j t(s)", "2j t(s)",
                     "4j t(s)", "8j t(s)", "4j speedup", "Deterministic?"});

  bool all_identical = true;
  for (auto& workload : workloads) {
    if (!only.empty() && workload.name.find(only) == std::string::npos) {
      continue;
    }
    const core::DetectorOptions options = workload_options(cli);
    const std::size_t obligations =
        core::TrojanDetector(workload.design, options)
            .enumerate_obligations()
            .size();

    std::vector<std::string> cells = {workload.name,
                                      std::to_string(obligations)};
    std::string serial_signature;
    double serial_seconds = 0.0;
    double four_job_seconds = 0.0;
    bool identical = true;
    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
      core::ParallelDetectorOptions parallel_options;
      parallel_options.detector = options;
      parallel_options.jobs = jobs;
      core::ParallelDetector parallel(workload.design, parallel_options);
      util::Stopwatch timer;
      const core::DetectionReport report = parallel.run();
      const double seconds = timer.elapsed_seconds();
      sink.bench().add_sample(
          workload.name + "/jobs=" + std::to_string(jobs), seconds);
      if (jobs == 1) {
        serial_signature = report.signature();
        serial_seconds = seconds;
      }
      if (jobs == 4) four_job_seconds = seconds;
      const bool deterministic = report.signature() == serial_signature;
      identical = identical && deterministic;
      if (sink.enabled()) {
        sink.report()
            .add("scaling")
            .set("workload", workload.name)
            .set("jobs", jobs)
            .set("obligations", obligations)
            .set("deterministic", deterministic)
            .set("seconds", seconds, /*timing=*/true)
            .set("serial_seconds", serial_seconds, /*timing=*/true);
      }
      cells.push_back(util::cell_double(seconds, 2));
      std::cerr << "[scaling] " << workload.name << " jobs=" << jobs
                << " done (" << util::cell_double(seconds, 2) << " s)\n";
    }
    cells.push_back(util::cell_double(serial_seconds / four_job_seconds, 2) +
                    "x");
    cells.push_back(identical ? "byte-identical" : "MISMATCH");
    all_identical = all_identical && identical;
    table.add_row(cells);
  }

  table.print(std::cout);
  std::cout << "\nEvery obligation (pseudo pair, corruption, bypass) is an "
               "independent engine run; the scheduler merges results in "
               "enumeration order, so the report signature must not depend "
               "on the jobs count.\n";
  if (!all_identical) {
    std::cerr << "FAIL: parallel report diverged from the 1-worker report\n";
    return 1;
  }
  return sink.flush() ? 0 : 1;
}

}  // namespace trojanscout

int main(int argc, char** argv) { return trojanscout::run(argc, argv); }
