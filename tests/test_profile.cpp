// Phase-attribution profiler: exact inclusive/exclusive math on hand-built
// span trees, cross-thread parent subtraction, the jobs-invariant JSON
// form, and the log2-µs histogram quantile estimator's edge cases.
#include <gtest/gtest.h>

#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace trojanscout::telemetry {
namespace {

TraceEvent begin(const std::string& name, std::uint64_t span_id,
                 std::uint64_t parent_id, int tid, std::uint64_t ts_us) {
  return {/*begin=*/true, name, span_id, parent_id, tid, ts_us};
}

TraceEvent end(const std::string& name, std::uint64_t span_id, int tid,
               std::uint64_t ts_us) {
  return {/*begin=*/false, name, span_id, 0, tid, ts_us};
}

const PhaseStats* find_phase(const std::vector<PhaseStats>& phases,
                             const std::string& name) {
  for (const auto& phase : phases) {
    if (phase.name == name) return &phase;
  }
  return nullptr;
}

TEST(ProfileTest, ExactInclusiveExclusiveSingleThread) {
  // A [0,100] with children B [10,40] and C [50,90].
  const std::vector<TraceEvent> events = {
      begin("A", 1, 0, 1, 0),   begin("B", 2, 1, 1, 10),
      end("B", 2, 1, 40),       begin("C", 3, 1, 1, 50),
      end("C", 3, 1, 90),       end("A", 1, 1, 100),
  };
  const Profile profile = build_profile(events);
  ASSERT_EQ(profile.phases.size(), 3u);
  const PhaseStats* a = find_phase(profile.phases, "A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->inclusive_us, 100u);
  EXPECT_EQ(a->exclusive_us, 30u);  // 100 - 30 (B) - 40 (C)
  const PhaseStats* b = find_phase(profile.phases, "B");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->inclusive_us, 30u);
  EXPECT_EQ(b->exclusive_us, 30u);
  EXPECT_EQ(profile.wall_us, 100u);
  // Exclusive times telescope: one thread's spans sum to its busy time.
  EXPECT_EQ(profile.busy_us, 100u);
  EXPECT_EQ(profile.thread_count, 1u);
}

TEST(ProfileTest, RepeatedPhaseAccumulates) {
  const std::vector<TraceEvent> events = {
      begin("f", 1, 0, 1, 0),  end("f", 1, 1, 5),
      begin("f", 2, 0, 1, 10), end("f", 2, 1, 25),
  };
  const Profile profile = build_profile(events);
  const PhaseStats* f = find_phase(profile.phases, "f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->count, 2u);
  EXPECT_EQ(f->inclusive_us, 20u);
  EXPECT_EQ(f->exclusive_us, 20u);
}

TEST(ProfileTest, ObligationAttribution) {
  const std::vector<TraceEvent> events = {
      begin("obligation:corruption(sp)", 1, 0, 1, 0),
      begin("sat:solve", 2, 1, 1, 10),
      end("sat:solve", 2, 1, 60),
      end("obligation:corruption(sp)", 1, 1, 100),
      begin("report", 3, 0, 1, 100),
      end("report", 3, 1, 110),
  };
  const Profile profile = build_profile(events);
  ASSERT_EQ(profile.obligations.size(), 2u);
  // Sorted by name; "(unattributed)" first.
  EXPECT_EQ(profile.obligations[0].name, "(unattributed)");
  ASSERT_NE(find_phase(profile.obligations[0].phases, "report"), nullptr);
  const ObligationProfile& ob = profile.obligations[1];
  EXPECT_EQ(ob.name, "corruption(sp)");
  EXPECT_EQ(ob.total_us, 100u);
  const PhaseStats* solve = find_phase(ob.phases, "sat:solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->inclusive_us, 50u);
}

TEST(ProfileTest, CrossThreadChildChargesParent) {
  // The scheduler pattern: the main thread's audit span is blocked while a
  // worker runs the obligation under an explicit parent id. The worker's
  // time must count as the audit span's child, not double as exclusive.
  const std::vector<TraceEvent> events = {
      begin("audit", 1, 0, 1, 0),
      begin("obligation:x", 2, 1, 2, 10),
      end("obligation:x", 2, 2, 90),
      end("audit", 1, 1, 100),
  };
  const Profile profile = build_profile(events);
  const PhaseStats* audit = find_phase(profile.phases, "audit");
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(audit->exclusive_us, 20u);  // 100 - 80 run by the worker
  EXPECT_EQ(profile.busy_us, 100u);
  EXPECT_EQ(profile.thread_count, 2u);
}

TEST(ProfileTest, UnclosedSpanChargedToLatestTimestamp) {
  const std::vector<TraceEvent> events = {
      begin("a", 1, 0, 1, 0),
      begin("b", 2, 1, 1, 10),
      end("b", 2, 1, 30),
      // "a" never ends (snapshot mid-run); latest ts on tid 1 is 30.
  };
  const Profile profile = build_profile(events);
  const PhaseStats* a = find_phase(profile.phases, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->inclusive_us, 30u);
  EXPECT_EQ(a->exclusive_us, 10u);
}

TEST(ProfileTest, TimingStrippedJsonIsScheduleInvariant) {
  // Same span names/counts, different timings, thread ids, interleaving —
  // the include_timing=false document must be byte-identical.
  const std::vector<TraceEvent> run1 = {
      begin("audit", 1, 0, 1, 0),
      begin("obligation:x", 2, 1, 2, 10),
      end("obligation:x", 2, 2, 90),
      begin("obligation:y", 3, 1, 3, 20),
      end("obligation:y", 3, 3, 70),
      end("audit", 1, 1, 100),
  };
  const std::vector<TraceEvent> run2 = {
      begin("audit", 1, 0, 1, 0),
      begin("obligation:y", 5, 1, 2, 5),
      end("obligation:y", 5, 2, 400),
      begin("obligation:x", 9, 1, 2, 410),
      end("obligation:x", 9, 2, 500),
      end("audit", 1, 1, 600),
  };
  const std::string json1 = build_profile(run1).to_json(false);
  const std::string json2 = build_profile(run2).to_json(false);
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(json1.find("_us"), std::string::npos);
  EXPECT_EQ(json1.find("_seconds"), std::string::npos);
  EXPECT_EQ(json1.find("threads"), std::string::npos);
  // The timed forms differ (different wall clocks).
  EXPECT_NE(build_profile(run1).to_json(true), build_profile(run2).to_json(true));
}

TEST(ProfileTest, BucketOfEdgeCases) {
  // Bucket b counts [2^(b-1), 2^b) µs; bucket 0 is < 1 µs.
  EXPECT_EQ(Registry::bucket_of(0.0), 0u);
  EXPECT_EQ(Registry::bucket_of(-1.0), 0u);
  EXPECT_EQ(Registry::bucket_of(0.5e-6), 0u);
  EXPECT_EQ(Registry::bucket_of(1e-6), 1u);
  // Power-of-two boundaries land in the next bucket (half-open intervals).
  EXPECT_EQ(Registry::bucket_of(2e-6), 2u);
  EXPECT_EQ(Registry::bucket_of(4e-6), 3u);
  EXPECT_EQ(Registry::bucket_of(3e-6), 2u);  // inside [2,4)
  EXPECT_EQ(Registry::bucket_of(1024e-6), 11u);
  // Saturation: durations beyond the top bound stay in the last bucket
  // (2^38 µs ≈ 76 hours, so nothing real saturates).
  EXPECT_EQ(Registry::bucket_of(1e9), Registry::kHistogramBuckets - 1);
}

TEST(ProfileTest, HistogramQuantileEdgeCases) {
  Registry::HistogramValue hist;
  // Empty histogram -> 0 for any quantile.
  EXPECT_EQ(histogram_quantile(hist, 0.5), 0.0);

  // A single sample: every quantile is that sample.
  hist.count = 1;
  hist.min_seconds = 3e-6;
  hist.max_seconds = 3e-6;
  hist.buckets[Registry::bucket_of(3e-6)] = 1;
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 0.0), 3e-6);
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 0.5), 3e-6);
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 1.0), 3e-6);

  // Two widely separated samples: the median stays within [min, max] and
  // the extremes clamp to the observed bounds exactly.
  Registry::HistogramValue two;
  two.count = 2;
  two.min_seconds = 1e-6;
  two.max_seconds = 1000e-6;
  two.buckets[Registry::bucket_of(1e-6)] = 1;
  two.buckets[Registry::bucket_of(1000e-6)] = 1;
  EXPECT_DOUBLE_EQ(histogram_quantile(two, 0.0), 1e-6);
  EXPECT_DOUBLE_EQ(histogram_quantile(two, 1.0), 1000e-6);
  const double median = histogram_quantile(two, 0.5);
  EXPECT_GE(median, two.min_seconds);
  EXPECT_LE(median, two.max_seconds);

  // All samples in one bucket: quantiles interpolate inside the bucket's
  // bounds and never escape [min, max].
  Registry::HistogramValue packed;
  packed.count = 100;
  packed.min_seconds = 5e-6;
  packed.max_seconds = 7e-6;
  packed.buckets[Registry::bucket_of(6e-6)] = 100;
  for (double q : {0.1, 0.5, 0.9}) {
    const double v = histogram_quantile(packed, q);
    EXPECT_GE(v, packed.min_seconds) << "q=" << q;
    EXPECT_LE(v, packed.max_seconds) << "q=" << q;
  }
  // Quantiles are monotone in q.
  EXPECT_LE(histogram_quantile(packed, 0.1), histogram_quantile(packed, 0.9));
}

TEST(ProfileTest, EndToEndDetectorProfileHasEnginePhases) {
  TraceRecorder recorder;
  TraceRecorder::set_global(&recorder);
  Registry::global().set_enabled(true);

  const designs::Design design = designs::build_clean("mc8051");
  core::ParallelDetectorOptions options;
  options.detector.engine.kind = core::EngineKind::kBmc;
  options.detector.engine.max_frames = 4;
  options.detector.scan_pseudo_critical = false;
  options.detector.check_bypass = false;
  options.jobs = 1;
  (void)core::ParallelDetector(design, options).run();

  TraceRecorder::set_global(nullptr);
  Registry::global().set_enabled(false);
  const Profile profile =
      build_profile(recorder, Registry::global().snapshot());
  Registry::global().reset();

  EXPECT_NE(find_phase(profile.phases, "engine:bmc"), nullptr);
  bool any_obligation = false;
  for (const auto& ob : profile.obligations) {
    any_obligation = any_obligation || ob.name.find("corruption") == 0;
  }
  EXPECT_TRUE(any_obligation);
  EXPECT_GT(profile.wall_us, 0u);
  EXPECT_GT(profile.busy_us, 0u);
}

}  // namespace
}  // namespace trojanscout::telemetry
