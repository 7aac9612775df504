// Shared pieces of the layered audit benchmark: command-line arguments,
// timing and quantile helpers, the metric table printed at the end of a
// run, and the in-memory span tracer used by the traced (--trace 1) run.
//
// The tracer only ever wraps calls the benchmark itself makes into a
// module's public functions; nothing inside the engine libraries is
// instrumented for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "designs/design.hpp"
#include "fuzz/mutation.hpp"

namespace perfbench {

namespace ts = trojanscout;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for verdict caches.
  std::string work_dir = ".bench_build/work";
  /// Directory holding the fixed SAT inputs as plain .cnf files (run.py
  /// unpacks perfbench/dimacs/*.cnf.gz there).
  std::string dimacs_dir = ".bench_build/perfbench/dimacs";
  /// When set: write DIMACS files recorded from bmc-audit obligations here
  /// and exit (how perfbench/dimacs was produced).
  std::string record_dimacs;
};

// ---- timing ---------------------------------------------------------------

double wall_seconds();
/// User + system CPU seconds of this process, all threads.
double cpu_seconds();
/// Peak resident set of this process from /proc/self/status VmHWM, in MiB:
/// since the last reset_peak_rss(), or since the process started.
double peak_rss_mb();
/// Restarts the VmHWM high-water mark (/proc/self/clear_refs); false where
/// the kernel does not allow it.
bool reset_peak_rss();

double median(std::vector<double> values);

/// Harrell-Davis estimate of the p-quantile (0 < p < 1): a Beta-weighted
/// mean of all order statistics. Unlike the sample quantile it does not
/// jump between neighbouring samples when they sit either side of a gap.
double hd_quantile(std::vector<double> values, double p);

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples beyond it (falls back to the median for small samples), with
/// its Harrell-Davis estimate.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> values);

// ---- metrics --------------------------------------------------------------

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// One "name = value unit" line per metric, in insertion order.
  void print() const;
  /// {"name": {"value": v, "unit": u}, ...}
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---- tracing --------------------------------------------------------------

/// Spans (name, start, end, parent) kept in memory for the per-layer
/// metrics and the summary printed at the end. A null Tracer* disables
/// everything.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = kNoParent;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::size_t open(const std::string& name);
  void close(std::size_t id);

  /// Summed duration of every closed span with this name, in seconds.
  [[nodiscard]] double total(const std::string& name) const;
  /// Durations of every closed span with this name, in seconds.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Prints total and self time (duration minus child spans) per name.
  void print_summary() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

class Span {
 public:
  Span(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

// ---- workloads ------------------------------------------------------------

/// Engine budget high enough that it never binds on the workloads.
inline constexpr double kAuditBudgetSeconds = 600.0;
/// Wall-clock budget of the depth_frames probe (the only budget-bound step).
inline constexpr double kDepthBudgetSeconds = 2.0;

/// Detector options of one audit: full Algorithm 1 (Eq. 3 scan, Eq. 2,
/// Eq. 4) with default engine options and the never-binding budget.
ts::core::DetectorOptions audit_options(ts::core::EngineKind engine,
                                        std::size_t frames);

/// Outcome counters shared by every workload.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Eq. 3 findings on clean cores (not failures; see README.md).
  std::uint64_t clean_pseudo_hits = 0;
};

/// Runs args.workload; fills the end-to-end metrics (trace off) or the
/// per-layer metrics (trace on). Returns 0 when every pass reproduced the
/// first pass's reports, 1 when one did not, -1 for an unknown workload.
int run_workload(const Args& args, Metrics& metrics, Outcome& outcome);

/// The fuzz-corpus inputs: generate_corpus(kCorpusSeed, kCorpusCount), in
/// an order drawn from `seed` (see README.md for why the corpus is fixed).
inline constexpr std::uint64_t kCorpusSeed = 42;
inline constexpr std::size_t kCorpusCount = 128;
std::vector<ts::fuzz::MutationSpec> fuzz_corpus(std::uint64_t seed);

/// Per-layer probes over a workload's inputs (see layers.cpp): its designs,
/// each with the frame bound the workload audits it at, and its engine.
struct ProbeInputs {
  std::vector<ts::designs::Design> designs;
  std::vector<std::size_t> frames;
  ts::core::EngineKind engine = ts::core::EngineKind::kBmc;
};
void run_layer_probes(const Args& args, const ProbeInputs& inputs,
                      Tracer& tracer, Metrics& metrics);

/// Records DIMACS files from bmc-audit obligations (see Args).
int record_dimacs(const std::string& dir);

}  // namespace perfbench
