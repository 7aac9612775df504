// Shared helpers for the table-regeneration benches.
//
// Each bench binary regenerates one table or figure of the paper (see
// DESIGN.md's per-experiment index) and prints it with util::Table in the
// same row layout as the publication. Binaries that read a BenchConfig
// accept:
//   --budget=<seconds>        wall clock per engine run (paper: 100)
//   --depth-budget=<seconds>  wall clock for max-unroll-depth measurements
//   --risc-trigger=<count>    RISC Trojan trigger count (default 25)
//   --max-frames=<count>      unroll cap per engine run (default 4096)
//   --repeats=<count>         timing repeats per case for --bench-out
// and binaries with a MetricsSink accept:
//   --bench-out=<file>        standardized BENCH_<name>.json history artifact
//   --metrics-out=<file>      JSON-lines run report (per-run records)
// Every main() passes its flags to check_flags() first: any other flag is a
// usage error (exit 1), never a run with defaults.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/workloads.hpp"
#include "core/detector.hpp"
#include "designs/catalog.hpp"
#include "telemetry/run_report.hpp"
#include "util/cli.hpp"
#include "util/resource.hpp"
#include "util/table.hpp"

namespace trojanscout::bench {

struct BenchConfig {
  double budget_seconds = 100.0;
  double depth_budget_seconds = 10.0;
  unsigned risc_trigger_count = 25;
  std::size_t max_frames = 4096;
  std::size_t stimulus_sequences = 16;
  /// Timing repeats per case for the --bench-out artifact (the regression
  /// gate needs a stddev, so CI runs with --repeats=3).
  std::size_t repeats = 1;

  static BenchConfig from_cli(const util::CliParser& cli) {
    BenchConfig config;
    config.budget_seconds = cli.get_double("budget", config.budget_seconds);
    config.depth_budget_seconds =
        cli.get_double("depth-budget", config.depth_budget_seconds);
    config.risc_trigger_count = static_cast<unsigned>(
        cli.get_int("risc-trigger", config.risc_trigger_count));
    config.max_frames =
        static_cast<std::size_t>(cli.get_int("max-frames", config.max_frames));
    config.repeats = static_cast<std::size_t>(
        cli.get_int("repeats", static_cast<std::int64_t>(config.repeats)));
    if (config.repeats == 0) config.repeats = 1;
    return config;
  }
};

/// Standardized bench-history artifact (--bench-out=BENCH_<name>.json):
/// one JSON document per bench run carrying the machine fingerprint, the
/// build's git revision, and per-case run statistics (runs, median, min,
/// max, stddev in seconds). The schema is `trojanscout-bench-v1`;
/// tools/bench_compare.py diffs two artifacts with noise-aware thresholds
/// and tools/ci.sh gates a quick-mode run against the committed baselines
/// in bench/baselines/. Disabled (all calls no-ops) without the flag.
class BenchWriter {
 public:
  /// `bench_name` identifies the suite ("table1", ...); the output path
  /// comes from --bench-out.
  BenchWriter(std::string bench_name, const util::CliParser& cli);

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Records one timing sample for a case; repeated calls with the same
  /// case name accumulate into that case's run statistics.
  void add_sample(const std::string& case_name, double seconds);

  /// Writes the artifact (cases sorted by name); true on success or when
  /// disabled.
  [[nodiscard]] bool flush() const;

  /// The artifact text (exposed for tests).
  [[nodiscard]] std::string to_json() const;

 private:
  struct Case {
    std::string name;
    std::vector<double> samples;
  };
  Case& case_of(const std::string& name);

  std::string bench_name_;
  std::string path_;
  std::vector<Case> cases_;
};

/// Engine options for a detection run on `design`, including the ATPG
/// functional stimulus hints derived from the family workload generator.
inline core::EngineOptions make_engine(const BenchConfig& config,
                                       core::EngineKind kind,
                                       const designs::Design& design,
                                       const std::string& family,
                                       double budget_seconds) {
  core::EngineOptions engine;
  engine.kind = kind;
  engine.max_frames = config.max_frames;
  engine.time_limit_seconds = budget_seconds;
  if (kind == core::EngineKind::kAtpg) {
    for (std::uint64_t seed = 0; seed < config.stimulus_sequences; ++seed) {
      engine.atpg_stimulus.push_back(baselines::generate_workload(
          design.nl, family, std::min<std::size_t>(config.max_frames, 512),
          1000 + seed));
    }
  }
  return engine;
}

/// Engine options for a *depth* measurement (how many frames can be
/// certified in the budget): the ATPG uses an industrial-style small abort
/// limit per frame and skips the random phase (there is nothing to find).
inline core::EngineOptions make_depth_engine(const BenchConfig& config,
                                             core::EngineKind kind,
                                             double budget_seconds) {
  (void)config;
  core::EngineOptions engine;
  engine.kind = kind;
  engine.max_frames = 1u << 20;
  engine.time_limit_seconds = budget_seconds;
  engine.atpg_backtrack_limit = 64;
  engine.atpg_random_sequences = 0;  // nothing to find on a clean variant
  return engine;
}

inline std::string mem_cell(std::uint64_t bytes) {
  return util::format_bytes(bytes);
}

inline std::string frames_cell(const core::CheckResult& result) {
  return std::to_string(result.frames_completed);
}

/// Stable case key for a bench timing sample: "row/engine/property".
inline std::string bench_case_key(const std::string& row,
                                  const std::string& engine,
                                  const std::string& property) {
  return row + "/" + engine + "/" + property;
}

/// --metrics-out sink shared by the table benches: collects RunReport
/// records while the bench runs and writes the JSON-lines file on flush().
/// Disabled (all calls no-ops) when the flag is absent. Also owns the
/// --bench-out BenchWriter, so every add_check doubles as a timing sample
/// in the BENCH_<name>.json history artifact.
class MetricsSink {
 public:
  explicit MetricsSink(const util::CliParser& cli,
                       std::string bench_name = "bench")
      : path_(cli.get_string("metrics-out", "")),
        bench_(std::move(bench_name), cli) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  telemetry::RunReport& report() { return report_; }
  BenchWriter& bench() { return bench_; }

  /// One "bench" record per engine run: the machine-readable twin of a
  /// table cell. Deterministic fields first, wall clock / memory flagged
  /// timing (tools/check_metrics.py validates this schema).
  void add_check(const std::string& bench, const std::string& row,
                 const std::string& engine, const std::string& property,
                 const core::CheckResult& check) {
    bench_.add_sample(bench_case_key(row, engine, property), check.seconds);
    if (!enabled()) return;
    auto& rec = report_.add("bench");
    rec.set("bench", bench)
        .set("row", row)
        .set("engine", engine)
        .set("property", property)
        .set("status", check.status)
        .set("violated", check.violated)
        .set("bound_reached", check.bound_reached)
        .set("frames_completed", check.frames_completed)
        .set("sat_decisions", check.counters.sat.decisions)
        .set("sat_propagations", check.counters.sat.propagations)
        .set("sat_conflicts", check.counters.sat.conflicts)
        .set("cnf_vars", check.counters.cnf_vars)
        .set("atpg_decisions", check.counters.atpg_decisions)
        .set("atpg_backtracks", check.counters.atpg_backtracks)
        .set("seconds", check.seconds, /*timing=*/true)
        .set("memory_bytes", check.memory_bytes, /*timing=*/true);
  }

  /// Writes the collected records and the bench-history artifact; true
  /// when every enabled output succeeded (or all are disabled).
  bool flush() const {
    bool ok = bench_.flush();
    if (!enabled()) return ok;
    if (!report_.write_file(path_)) {
      std::fprintf(stderr, "[bench] cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(stderr, "[bench] metrics written to %s (%zu records)\n",
                 path_.c_str(), report_.size());
    return ok;
  }

 private:
  std::string path_;
  telemetry::RunReport report_;
  BenchWriter bench_;
};

/// The flag sets the shared helpers read, for check_flags(). A bench that
/// uses neither calls util::CliParser::check_flags directly.
enum SharedFlags : unsigned {
  kConfigFlags = 1u << 0,  // BenchConfig::from_cli
  kSinkFlags = 1u << 1,    // MetricsSink and its BenchWriter
};

/// Usage check for a bench main(): true when every flag on the command line
/// is in `own` or in one of the `shared` sets; otherwise prints "error:
/// unknown flag --NAME" and returns false (the caller exits 1).
[[nodiscard]] bool check_flags(const util::CliParser& cli, unsigned shared,
                               std::vector<std::string> own);

}  // namespace trojanscout::bench
