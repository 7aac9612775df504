// Obligation scheduler tests: the ParallelDetector must produce a
// DetectionReport byte-identical (via DetectionReport::signature()) to a
// plain serial fold of the obligation API (enumerate_obligations ->
// run_obligation -> merge_obligations) on every catalog design for any jobs
// count, the cooperative cancellation flag must end engine runs promptly,
// and fail-fast mode must keep the triggering finding while marking the
// obligations it preempted as cancelled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "designs/mc8051.hpp"
#include "properties/monitors.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace trojanscout::core {
namespace {

DetectorOptions full_algorithm(std::size_t frames) {
  DetectorOptions options;
  options.engine.kind = EngineKind::kBmc;
  options.engine.max_frames = frames;
  options.engine.time_limit_seconds = 60.0;
  options.scan_pseudo_critical = true;
  options.check_bypass = true;
  return options;
}

/// Algorithm 1 as the obligation API defines it, one obligation at a time on
/// the calling thread: the reference the scheduler must reproduce.
DetectionReport serial_fold(const designs::Design& design,
                            const DetectorOptions& options) {
  const TrojanDetector detector(design, options);
  const std::vector<Obligation> obligations = detector.enumerate_obligations();
  std::vector<CheckResult> results;
  for (const Obligation& obligation : obligations) {
    results.push_back(detector.run_obligation(obligation));
  }
  return detector.merge_obligations(obligations, results);
}

void expect_parallel_matches_serial(const designs::Design& design,
                                    const DetectorOptions& options) {
  const std::string expected = serial_fold(design, options).signature();
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    ParallelDetectorOptions parallel_options;
    parallel_options.detector = options;
    parallel_options.jobs = jobs;
    ParallelDetector parallel(design, parallel_options);
    EXPECT_EQ(parallel.run().signature(), expected)
        << design.name << " diverged at jobs=" << jobs;
  }
}

TEST(ParallelDetector, MatchesSerialOnEveryCatalogTrojan) {
  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = 4;  // keep unit tests fast
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    SCOPED_TRACE(info.name);
    const designs::Design design = info.build(/*payload_enabled=*/true);
    const std::size_t frames = info.family == "aes" ? 4 : 8;
    expect_parallel_matches_serial(design, full_algorithm(frames));
  }
}

TEST(ParallelDetector, MatchesSerialOnCleanDesigns) {
  for (const char* family : {"mc8051", "risc", "aes", "router"}) {
    SCOPED_TRACE(family);
    const designs::Design design = designs::build_clean(family);
    const std::size_t frames = std::string(family) == "aes" ? 4 : 8;
    expect_parallel_matches_serial(design, full_algorithm(frames));
  }
}

TEST(ThreadPool, RunsEverySubmittedTaskAndIsReusable) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 500; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 500 * (wave + 1));
  }
}

TEST(ThreadPool, CancellationTokenIsSharedAcrossCopies) {
  util::CancellationToken token;
  const util::CancellationToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(copy.flag()->load());
}

TEST(EngineCancellation, PreCancelledRunReturnsImmediately) {
  designs::Design design = designs::build_clean("mc8051");
  const auto bad = properties::build_corruption_monitor(
      design.nl, *design.spec.find("sp"),
      properties::CorruptionMonitorKind::kExact);
  std::atomic<bool> cancel{true};
  for (const EngineKind kind : {EngineKind::kBmc, EngineKind::kAtpg}) {
    EngineOptions options;
    options.kind = kind;
    options.max_frames = 1 << 20;
    options.time_limit_seconds = 600.0;
    options.cancel = &cancel;
    const CheckResult result = run_engine(design.nl, bad, options);
    EXPECT_TRUE(result.cancelled) << engine_name(kind);
    EXPECT_FALSE(result.violated) << engine_name(kind);
    EXPECT_EQ(result.status, "cancelled") << engine_name(kind);
  }
}

TEST(EngineCancellation, MidRunCancelEndsAnOpenEndedBmcRunPromptly) {
  designs::Design design = designs::build_clean("risc");
  const auto bad = properties::build_corruption_monitor(
      design.nl, *design.spec.find("stack_pointer"),
      properties::CorruptionMonitorKind::kExact);
  std::atomic<bool> cancel{false};
  EngineOptions options;
  options.max_frames = 1 << 20;  // would run for a very long time
  options.time_limit_seconds = 600.0;
  options.cancel = &cancel;

  CheckResult result;
  util::Stopwatch timer;
  std::thread runner([&] { result = run_engine(design.nl, bad, options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cancel.store(true);
  runner.join();
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.violated);
  // Polled at frame and conflict boundaries, so the reaction is prompt —
  // nowhere near the 600 s budget.
  EXPECT_LT(timer.elapsed_seconds(), 60.0);
}

TEST(ParallelDetector, FailFastCancelsOutstandingWorkButKeepsTheFinding) {
  designs::Mc8051Options mc_options;
  mc_options.trojan = designs::Mc8051Trojan::kT800;
  designs::Design design = designs::build_mc8051(mc_options);
  // Two obligations only: corruption(ie) would grind through a huge frame
  // bound on a clean register; corruption(sp) hits the T800 payload within
  // a few frames. Fail-fast must cancel the former once the latter lands.
  design.critical_registers = {"ie", "sp"};

  ParallelDetectorOptions options;
  options.detector.engine.kind = EngineKind::kBmc;
  options.detector.engine.max_frames = 1 << 16;
  options.detector.engine.time_limit_seconds = 600.0;
  options.detector.scan_pseudo_critical = false;
  options.detector.check_bypass = false;
  options.jobs = 2;
  options.fail_fast = true;

  ParallelDetector detector(design, options);
  util::Stopwatch timer;
  const DetectionReport report = detector.run();

  ASSERT_TRUE(report.trojan_found);
  ASSERT_EQ(report.runs.size(), 2u);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].register_name, "sp");
  EXPECT_TRUE(report.findings[0].check.witness.has_value())
      << "the triggering finding must be fully retained";

  const PropertyRun* ie_run = nullptr;
  for (const auto& run : report.runs) {
    if (run.property == "corruption(ie)") ie_run = &run;
  }
  ASSERT_NE(ie_run, nullptr);
  EXPECT_TRUE(ie_run->check.cancelled);
  EXPECT_EQ(ie_run->check.status, "cancelled");
  EXPECT_FALSE(ie_run->check.witness.has_value());
  // The cancelled run's (arbitrary) abandonment frame must not drag down
  // the trust bound.
  EXPECT_EQ(report.trust_bound_frames, options.detector.engine.max_frames);
  // Without cancellation the ie check would burn the whole 600 s budget.
  EXPECT_LT(timer.elapsed_seconds(), 120.0);
}

}  // namespace
}  // namespace trojanscout::core
