// The three workloads and the runner they share.
//
// bmc-audit and atpg-audit audit a fixed design mix with Algorithm 1;
// fuzz-corpus runs the mutation corpus through the differential harness.
// Within --seconds a run interleaves three kinds of step, each kept to its
// share of the time so far: batches of set-ups (setup_s), depth_frames
// probes, and passes that audit the same inputs again and check every
// pass's verdicts. With --trace 1 there are no depth probes; untraced and
// traced passes alternate, a traced pass makes the same calls inside one
// span per design (per corpus run), the difference is reported as the
// tracing overhead, and the per-layer probes follow.
//
// Every pass does the same deterministic work, but on a shared host its
// time follows the other tenants' load, which drifts over minutes: over
// ten minutes of bmc-audit on a 4-vCPU VM the passes took 2.2-3.9 s, and
// the fast ones came in short, scattered dips. So a run reports the
// Harrell-Davis median of its passes (audit_s, cpu_s), of each
// obligation's engine times, of its set-up batches (setup_s) and of its
// depth probes: over sliding windows of that recording the median of 8
// passes spread by 0.15 (interquartile range / median) where the low
// decile, which rests on whether a dip fell in the window, spread by 0.23.
// Interleaving the steps keeps a burst of load from falling on all samples
// of one kind. Heap fragmentation only ever adds to a pass's peak (at
// jobs=2 the per-pass peak of some runs drifted from 30 to 60 MB), so
// peak_rss_mb is the low decile of the pass peaks.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "bench_common.hpp"
#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "fuzz/harness.hpp"
#include "sim/witness.hpp"

namespace perfbench {

namespace core = ts::core;
namespace designs = ts::designs;
namespace fuzz = ts::fuzz;

namespace {

/// Wall, CPU and peak RSS of one pass. Before each pass the heap returns
/// its free pages and the VmHWM mark restarts (where the kernel allows it),
/// so each pass reports its own peak over a comparable baseline.
struct PassTimes {
  double wall = 0.0;
  double cpu = 0.0;
  double peak_mb = 0.0;
};

class PassClock {
 public:
  PassClock() {
    ::malloc_trim(0);
    (void)reset_peak_rss();
  }
  [[nodiscard]] PassTimes stop() const {
    return {wall_seconds() - wall_start_, cpu_seconds() - cpu_start_,
            peak_rss_mb()};
  }

 private:
  double wall_start_ = wall_seconds();
  double cpu_start_ = cpu_seconds();
};

/// Per-obligation engine seconds across passes, keyed by obligation.
using ObligationSamples = std::map<std::string, std::vector<double>>;

/// What differs between workloads; run_workload() does the rest.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete set-up; returns the part of it spent building designs.
  virtual double setup(Tracer* tracer) = 0;
  /// One pass over the inputs, timed up to the last engine call; the
  /// verdict checks that follow count into `outcome`.
  virtual PassTimes pass(Tracer* tracer, Outcome& outcome) = 0;
  virtual void summary(int passes) const = 0;
  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;
  [[nodiscard]] virtual core::EngineKind depth_engine() const = 0;

  ObligationSamples samples;
  /// False once a pass's deterministic report differs from the first's.
  bool consistent = true;

 protected:
  void check_signature(std::size_t index, const std::string& name,
                       const std::string& signature) {
    if (signatures_.size() <= index) signatures_.resize(index + 1);
    if (signatures_[index].empty()) {
      signatures_[index] = signature;
    } else if (signatures_[index] != signature) {
      std::printf("INCONSISTENT: %s report differs between passes\n",
                  name.c_str());
      consistent = false;
    }
  }

 private:
  std::vector<std::string> signatures_;
};

/// Prints the first few failures of a run; the rest are only counted.
void note_failure(Outcome& outcome, const std::string& what) {
  ++outcome.failed;
  if (outcome.failed <= 8) std::printf("FAILED: %s\n", what.c_str());
}

core::Obligation finding_obligation(const core::Finding& finding) {
  core::Obligation ob;
  switch (finding.kind) {
    case core::FindingKind::kCorruption:
      ob.kind = core::Obligation::Kind::kCorruption;
      break;
    case core::FindingKind::kPseudoCritical:
      ob.kind = core::Obligation::Kind::kPseudo;
      break;
    case core::FindingKind::kBypass:
      ob.kind = core::Obligation::Kind::kBypass;
      break;
  }
  ob.reg = finding.register_name;
  ob.candidate = finding.candidate_register;
  return ob;
}

// ---- audit mixes ----------------------------------------------------------

/// One design of an audit mix, audited at `frames` with Algorithm 1.
struct AuditItem {
  std::string name;
  std::function<designs::Design()> build;
  std::size_t frames = 0;
  /// A catalog Trojan whose trigger fits the bound: must be found.
  bool trojan = false;
};

AuditItem clean_item(const std::string& family, std::size_t frames) {
  return {"clean-" + family, [family] { return designs::build_clean(family); },
          frames, false};
}

AuditItem catalog_item(const std::string& name, std::size_t frames) {
  for (auto& info : designs::trojan_benchmarks()) {
    if (info.name == name) {
      auto build = info.build;
      return {name, [build] { return build(true); }, frames, true};
    }
  }
  throw std::invalid_argument("unknown catalog design " + name);
}

/// Verdict checks on one audited design (see README.md, "Verdict checks").
/// Counts one attempted operation per obligation plus one for the design.
void verify_report(const AuditItem& item, const designs::Design& design,
                   const core::DetectorOptions& options,
                   const core::DetectionReport& report, Outcome& outcome) {
  const core::TrojanDetector detector(design, options);
  const std::vector<core::Obligation> obligations =
      detector.enumerate_obligations();
  outcome.attempted += report.runs.size() + 1;
  if (obligations.size() != report.runs.size()) {
    note_failure(outcome, item.name + ": " +
                              std::to_string(report.runs.size()) +
                              " runs for " +
                              std::to_string(obligations.size()) +
                              " obligations");
    return;
  }
  for (std::size_t i = 0; i < obligations.size(); ++i) {
    const core::CheckResult& check = report.runs[i].check;
    const std::string where = item.name + " " + report.runs[i].property;
    if (!check.violated && !check.bound_reached) {
      note_failure(outcome, where + " hit the budget (" + check.status + ")");
      continue;
    }
    if (!check.violated) continue;
    if (!check.witness.has_value()) {
      note_failure(outcome, where + " violated without a witness");
      continue;
    }
    const auto instrumented = detector.instrument_obligation(obligations[i]);
    const auto verdict = ts::sim::replay_confirms(
        instrumented.nl, instrumented.bad, *check.witness);
    if (!verdict.confirmed) {
      note_failure(outcome, where + " witness does not replay (" +
                                verdict.detail + ")");
    }
  }
  if (item.trojan && !report.trojan_found) {
    note_failure(outcome, item.name + ": catalog Trojan not found at " +
                              std::to_string(item.frames) + " frames");
  }
  if (item.trojan) return;
  for (const auto& finding : report.findings) {
    if (finding.kind == core::FindingKind::kPseudoCritical) {
      ++outcome.clean_pseudo_hits;
    } else {
      note_failure(outcome, item.name + ": clean core flagged by " +
                                finding_obligation(finding).property_name());
    }
  }
}

class AuditWorkload final : public Workload {
 public:
  AuditWorkload(std::string name, core::EngineKind engine, std::size_t jobs,
                std::vector<AuditItem> items)
      : name_(std::move(name)),
        engine_(engine),
        jobs_(jobs),
        items_(std::move(items)) {
    for (const auto& item : items_) {
      options_.push_back(audit_options(engine_, item.frames));
    }
  }

  /// Builds every design and enumerates its obligations.
  double setup(Tracer* tracer) override {
    double build_seconds = 0.0;
    built_.clear();
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const double start = wall_seconds();
      {
        Span span(tracer, "designs.build");
        built_.push_back(items_[i].build());
      }
      build_seconds += wall_seconds() - start;
      (void)core::TrojanDetector(built_.back(), options_[i])
          .enumerate_obligations();
    }
    return build_seconds;
  }

  PassTimes pass(Tracer* tracer, Outcome& outcome) override {
    const PassClock clock;
    std::vector<core::DetectionReport> reports;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      Span span(tracer, "core.audit");
      core::ParallelDetectorOptions po;
      po.detector = options_[i];
      po.jobs = jobs_;
      reports.push_back(core::ParallelDetector(built_[i], po).run());
    }
    const PassTimes times = clock.stop();
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const std::uint64_t hits_before = outcome.clean_pseudo_hits;
      verify_report(items_[i], built_[i], options_[i], reports[i], outcome);
      pseudo_hits_[items_[i].name] += outcome.clean_pseudo_hits - hits_before;
      for (const auto& run : reports[i].runs) {
        samples[items_[i].name + " " + run.property].push_back(
            run.check.seconds);
      }
      check_signature(i, items_[i].name, reports[i].signature());
    }
    return times;
  }

  void summary(int passes) const override {
    std::printf("%s: %d passes over %zu designs, engine %s, jobs %zu\n",
                name_.c_str(), passes, items_.size(),
                core::engine_name(engine_), jobs_);
    for (const auto& [design, hits] : pseudo_hits_) {
      if (hits > 0) {
        std::printf("  clean_pseudo_hits on %s: %llu per pass\n",
                    design.c_str(),
                    static_cast<unsigned long long>(hits / passes));
      }
    }
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs inputs;
    inputs.designs = built_;
    for (const auto& item : items_) inputs.frames.push_back(item.frames);
    inputs.engine = engine_;
    return inputs;
  }

  [[nodiscard]] core::EngineKind depth_engine() const override {
    return engine_;
  }

 private:
  std::string name_;
  core::EngineKind engine_;
  std::size_t jobs_;
  std::vector<AuditItem> items_;
  std::vector<core::DetectorOptions> options_;
  std::vector<designs::Design> built_;
  std::map<std::string, std::uint64_t> pseudo_hits_;
};

// ---- fuzz-corpus ----------------------------------------------------------

class FuzzWorkload final : public Workload {
 public:
  FuzzWorkload(std::uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    options_.engine = core::EngineKind::kBmc;
    options_.jobs = 2;
    options_.budget_seconds = kAuditBudgetSeconds;
    options_.differential = true;
    options_.check_clean = true;
  }

  /// Generates the corpus and builds every mutant and clean core.
  double setup(Tracer* tracer) override {
    corpus_ = fuzz_corpus(seed_);
    std::set<std::string> families;
    for (const auto& spec : corpus_) {
      (void)fuzz::build_mutant(spec);
      families.insert(spec.family);
    }
    const double start = wall_seconds();
    clean_cores_.clear();
    for (const auto& family : families) {
      Span span(tracer, "designs.build");
      clean_cores_.push_back(designs::build_clean(family));
    }
    return wall_seconds() - start;
  }

  /// One harness run on a fresh verdict cache inside the work directory.
  PassTimes pass(Tracer* tracer, Outcome& outcome) override {
    fuzz::HarnessOptions options = options_;
    options.cache_dir = work_dir_ + "/cache-" + std::to_string(passes_++);
    std::filesystem::remove_all(options.cache_dir);
    PassTimes times;
    {
      fuzz::CorpusHarness harness(options);
      const PassClock clock;
      Span span(tracer, "fuzz.corpus_run");
      last_ = harness.run(corpus_, seed_);
      times = clock.stop();
    }
    std::filesystem::remove_all(options.cache_dir);

    for (std::size_t v = 0; v < last_.variants.size(); ++v) {
      const auto& variant = last_.variants[v];
      ++outcome.attempted;
      if (!variant.ok()) {
        note_failure(outcome, "variant " + std::to_string(v) + " " +
                                  variant.spec.name() + ": " + variant.failure);
      }
      for (std::size_t k = 0; k < variant.obligation_seconds.size(); ++k) {
        samples[std::to_string(v) + "/" + std::to_string(k)].push_back(
            variant.obligation_seconds[k]);
      }
    }
    for (const auto& clean : last_.clean) {
      ++outcome.attempted;
      if (!clean.pass) {
        note_failure(outcome, "clean " + clean.family + ": " + clean.detail);
      }
    }
    check_signature(0, "corpus", last_.signature());
    return times;
  }

  void summary(int passes) const override {
    std::printf("fuzz-corpus: %d passes; %zu variants, %zu reachable, "
                "%zu detected, %zu missed, %zu false positives, "
                "%zu failing per pass\n",
                passes, last_.variants.size(), last_.reachable_count,
                last_.detected_count, last_.missed_count,
                last_.false_positive_count, last_.failure_count);
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs inputs;
    inputs.designs = clean_cores_;
    inputs.frames.assign(inputs.designs.size(), options_.frames_cap);
    inputs.engine = options_.engine;
    return inputs;
  }

  [[nodiscard]] core::EngineKind depth_engine() const override {
    return core::EngineKind::kBmc;
  }

 private:
  std::uint64_t seed_;
  std::string work_dir_;
  fuzz::HarnessOptions options_;
  std::vector<fuzz::MutationSpec> corpus_;
  std::vector<designs::Design> clean_cores_;
  fuzz::CorpusReport last_;
  int passes_ = 0;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  using core::EngineKind;
  const auto shuffled = [&args](std::vector<AuditItem> list) {
    // The design set is fixed; the seed only fixes the audit order.
    std::mt19937_64 rng(args.seed);
    std::shuffle(list.begin(), list.end(), rng);
    return list;
  };
  if (args.workload == "bmc-audit") {
    return std::make_unique<AuditWorkload>(
        args.workload, EngineKind::kBmc, 1,
        shuffled({clean_item("mc8051", 24), clean_item("risc", 24),
                  catalog_item("MC8051-T800", 24), clean_item("aes", 8)}));
  }
  if (args.workload == "atpg-audit") {
    return std::make_unique<AuditWorkload>(
        args.workload, EngineKind::kAtpg, 1,
        shuffled({clean_item("mc8051", 12), catalog_item("MC8051-T700", 12),
                  clean_item("router", 12)}));
  }
  if (args.workload == "fuzz-corpus") {
    return std::make_unique<FuzzWorkload>(args.seed, args.work_dir);
  }
  return nullptr;
}

/// depth_frames: frames certified within kDepthBudgetSeconds on clean
/// mc8051 corruption(acc), Table-1 depth configuration.
double depth_probe(core::EngineKind kind) {
  const designs::Design design = designs::build_clean("mc8051");
  core::DetectorOptions options;
  options.engine = ts::bench::make_depth_engine(ts::bench::BenchConfig{}, kind,
                                                kDepthBudgetSeconds);
  const core::CheckResult check =
      core::TrojanDetector(design, options).check_corruption("acc");
  std::printf("depth probe: %s corruption(acc) on clean-mc8051, %zu frames "
              "in %.2f s (%s)\n",
              core::engine_name(kind), check.frames_completed, check.seconds,
              check.status.c_str());
  return static_cast<double>(check.frames_completed);
}

/// Harrell-Davis median of repeated measurements of one piece of work
/// (see the file comment).
double hd_median(const std::vector<double>& values) {
  return hd_quantile(values, 0.5);
}

/// Harrell-Davis 10th percentile (peak_rss_mb; see the file comment).
double low_decile(const std::vector<double>& values) {
  return hd_quantile(values, 0.1);
}

/// obligation_p50_ms and obligation_tail_ms over the obligations, each
/// taken at the median of its passes.
void report_obligations(const ObligationSamples& samples, Metrics& metrics) {
  std::vector<double> typical;
  std::vector<std::pair<double, std::string>> slowest;
  for (const auto& [key, values] : samples) {
    typical.push_back(hd_median(values) * 1e3);
    slowest.emplace_back(typical.back(), key);
  }
  std::sort(slowest.rbegin(), slowest.rend());
  slowest.resize(std::min<std::size_t>(slowest.size(), 5));
  for (const auto& [ms, key] : slowest) {
    std::printf("  slow obligation %-40s %10.2f ms\n", key.c_str(), ms);
  }
  const Tail tail = tail_of(typical);
  std::printf("obligations: %zu (each at the median of its passes); "
              "tail = p%.1f with %zu samples beyond it\n",
              tail.samples, tail.percentile, tail.beyond);
  metrics.set("obligation_p50_ms", hd_median(typical), "ms");
  metrics.set("obligation_tail_ms", tail.value, "ms");
}

/// Time shares of the run (see the file comment). Set-ups run in batches
/// of at least kSetupBatchSeconds (the audit mixes set up in a fraction of
/// a millisecond, too short to time one by one); a batch's time per set-up
/// is one sample. A step runs when its kind has had less than its share of
/// the time so far; passes take the rest. Each kind gets at least its
/// minimum count, and no pass or probe starts that would end after
/// --seconds once the minimums are met.
constexpr double kSetupBatchSeconds = 0.05;
constexpr double kSetupShare = 0.05;
constexpr double kDepthShare = 0.15;
constexpr std::size_t kMinSetupBatches = 9;
constexpr std::size_t kMinDepthProbes = 3;
constexpr std::size_t kMinPasses = 2;

struct SetupTimes {
  /// Seconds per set-up, one sample per batch.
  std::vector<double> setup;
  /// Seconds spent building designs per set-up, one sample per batch.
  std::vector<double> build;
  std::size_t setups = 0;
  double seconds = 0.0;
};

void time_setup_batch(Workload& workload, Tracer* tracer, SetupTimes& times) {
  const double start = wall_seconds();
  double build = 0.0;
  std::size_t n = 0;
  do {
    build += workload.setup(tracer);
    ++n;
  } while (wall_seconds() - start < kSetupBatchSeconds);
  const double seconds = wall_seconds() - start;
  times.setup.push_back(seconds / static_cast<double>(n));
  times.build.push_back(build / static_cast<double>(n));
  times.setups += n;
  times.seconds += seconds;
}

template <typename Get>
std::vector<double> column(const std::vector<PassTimes>& passes, Get get) {
  std::vector<double> out;
  for (const auto& pass : passes) out.push_back(get(pass));
  return out;
}

}  // namespace

core::DetectorOptions audit_options(core::EngineKind engine,
                                    std::size_t frames) {
  core::DetectorOptions options;
  options.engine.kind = engine;
  options.engine.max_frames = frames;
  options.engine.time_limit_seconds = kAuditBudgetSeconds;
  options.scan_pseudo_critical = true;
  options.check_bypass = true;
  return options;
}

std::vector<fuzz::MutationSpec> fuzz_corpus(std::uint64_t seed) {
  fuzz::CorpusOptions options;
  options.seed = kCorpusSeed;
  options.count = kCorpusCount;
  std::vector<fuzz::MutationSpec> corpus = fuzz::generate_corpus(options);
  std::mt19937_64 rng(seed);
  std::shuffle(corpus.begin(), corpus.end(), rng);
  return corpus;
}

int run_workload(const Args& args, Metrics& metrics, Outcome& outcome) {
  const std::unique_ptr<Workload> workload = make_workload(args);
  if (workload == nullptr) return -1;
  Tracer tracer;
  Tracer* setup_tracer = args.trace ? &tracer : nullptr;

  // The first set-up comes before the first pass. A traced run alternates
  // untraced and traced passes, so a drift in host load falls on both alike.
  SetupTimes setups;
  std::vector<PassTimes> untraced;
  std::vector<double> traced;
  std::vector<double> depths;
  double pass_seconds = 0.0;
  double depth_seconds = 0.0;
  const double start = wall_seconds();
  const auto elapsed = [start] { return wall_seconds() - start; };
  const auto fits = [&](double step) {
    return elapsed() + step <= args.seconds;
  };
  const auto probe_depth = [&] {
    const double probe_start = wall_seconds();
    depths.push_back(depth_probe(workload->depth_engine()));
    depth_seconds += wall_seconds() - probe_start;
  };
  for (;;) {
    const double now = elapsed();
    if (setups.setup.empty() ||
        (setups.seconds <= kSetupShare * now && fits(kSetupBatchSeconds))) {
      time_setup_batch(*workload, setup_tracer, setups);
    } else if (!args.trace && depth_seconds <= kDepthShare * now &&
               fits(kDepthBudgetSeconds)) {
      probe_depth();
    } else if (untraced.size() < kMinPasses ||
               fits(pass_seconds / static_cast<double>(untraced.size()))) {
      const double pass_start = wall_seconds();
      untraced.push_back(workload->pass(nullptr, outcome));
      if (args.trace) {
        Span span(&tracer, "workload.pass");
        traced.push_back(workload->pass(&tracer, outcome).wall);
      }
      pass_seconds += wall_seconds() - pass_start;
    } else {
      break;
    }
  }
  while (!args.trace && depths.size() < kMinDepthProbes) probe_depth();
  while (setups.setup.size() < kMinSetupBatches) {
    time_setup_batch(*workload, setup_tracer, setups);
  }
  std::printf("set-up: %zu set-ups in %zu batches; %zu depth probes; "
              "%.1f s in all\n",
              setups.setups, setups.setup.size(), depths.size(), elapsed());
  const int passes = static_cast<int>(untraced.size() + traced.size());
  workload->summary(passes);
  std::printf("pass wall s / peak MB:");
  for (const auto& pass : untraced) {
    std::printf(" %.3f/%.1f", pass.wall, pass.peak_mb);
  }
  std::printf("\n");
  const double pseudo_hits =
      static_cast<double>(outcome.clean_pseudo_hits) / passes;
  const auto wall = [](const PassTimes& p) { return p.wall; };
  std::printf("per pass: clean_pseudo_hits %.0f\n", pseudo_hits);

  if (!args.trace) {
    metrics.set("setup_s", hd_median(setups.setup), "s");
    metrics.set("audit_s", hd_median(column(untraced, wall)), "s");
    metrics.set("cpu_s",
                hd_median(column(untraced,
                                 [](const PassTimes& p) { return p.cpu; })),
                "s");
    report_obligations(workload->samples, metrics);
    const auto peak = [](const PassTimes& p) { return p.peak_mb; };
    metrics.set("peak_rss_mb", low_decile(column(untraced, peak)), "MB");
    metrics.set("depth_frames", hd_median(depths), "frames");
    return workload->consistent ? 0 : 1;
  }

  const double untraced_s = hd_median(column(untraced, wall));
  const double overhead = hd_median(traced) - untraced_s;
  std::printf("tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s "
              "per pass, medians of %zu passes each\n",
              hd_median(traced), untraced_s, overhead, traced.size());
  metrics.set("trace.overhead_s", overhead, "s");
  metrics.set("clean_pseudo_hits", pseudo_hits, "count");
  metrics.set("designs.build_ms", hd_median(setups.build) * 1e3, "ms");

  run_layer_probes(args, workload->probe_inputs(), tracer, metrics);
  tracer.print_summary();
  return workload->consistent ? 0 : 1;
}

}  // namespace perfbench
