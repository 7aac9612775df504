// Telemetry subsystem tests: counter/histogram shard-merge determinism
// across thread counts, span nesting exported as valid Chrome trace_event
// JSON (matched B/E pairs, parent ids, span args), the engines' per-frame
// counter args against their run totals, the RunReport JSON-lines golden
// schema, and the jobs-invariance of the detection-report sink.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/parallel_detector.hpp"
#include "core/telemetry_sink.hpp"
#include "designs/catalog.hpp"
#include "designs/mc8051.hpp"
#include "proof/json.hpp"
#include "telemetry/events.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/span.hpp"
#include "telemetry/timer.hpp"

namespace trojanscout::telemetry {
namespace {

TEST(Registry, CounterMergeIsExactAcrossThreadCounts) {
  // The same logical workload sharded over 1, 2, 4, and 8 threads must
  // merge to the same totals: each thread writes to a private shard, and
  // snapshot() sums them.
  constexpr std::uint64_t kIncrements = 10000;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    Registry registry;
    registry.set_enabled(true);
    const MetricId ticks = registry.counter("ticks");
    const MetricId weighted = registry.counter("weighted");
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&registry, ticks, weighted, threads] {
        for (std::uint64_t i = 0; i < kIncrements / threads; ++i) {
          registry.add(ticks);
          registry.add(weighted, 3);
        }
      });
    }
    for (auto& w : workers) w.join();

    const Registry::Snapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u) << threads << " threads";
    // Snapshot is sorted by name: "ticks" < "weighted".
    EXPECT_EQ(snap.counters[0].name, "ticks");
    EXPECT_EQ(snap.counters[0].value,
              kIncrements / threads * threads);
    EXPECT_EQ(snap.counters[1].name, "weighted");
    EXPECT_EQ(snap.counters[1].value, kIncrements / threads * threads * 3);
  }
}

TEST(Registry, DisabledRegistryRecordsNothing) {
  Registry registry;
  const MetricId id = registry.counter("silent");
  registry.add(id, 5);  // disabled: dropped
  registry.set_enabled(true);
  registry.add(id, 7);
  registry.set_enabled(false);
  registry.add(id, 11);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 7u);
}

TEST(Registry, InterningIsIdempotentAndResetKeepsIds) {
  Registry registry;
  registry.set_enabled(true);
  const MetricId a = registry.counter("metric");
  EXPECT_EQ(registry.counter("metric"), a);
  registry.add(a, 2);
  registry.reset();
  EXPECT_EQ(registry.counter("metric"), a);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 0u);
}

TEST(Registry, HistogramAggregates) {
  Registry registry;
  registry.set_enabled(true);
  const MetricId id = registry.histogram("latency");
  registry.record_seconds(id, 0.010);
  registry.record_seconds(id, 0.002);
  registry.record_seconds(id, 0.040);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms[0];
  EXPECT_EQ(h.name, "latency");
  EXPECT_EQ(h.count, 3u);
  EXPECT_NEAR(h.sum_seconds, 0.052, 1e-6);
  EXPECT_NEAR(h.min_seconds, 0.002, 1e-6);
  EXPECT_NEAR(h.max_seconds, 0.040, 1e-6);
  std::uint64_t bucketed = 0;
  for (const auto b : h.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 3u);
}

TEST(Registry, BucketOfIsLog2Microseconds) {
  EXPECT_EQ(Registry::bucket_of(0.0), 0u);
  EXPECT_EQ(Registry::bucket_of(0.5e-6), 0u);    // < 1 us
  EXPECT_EQ(Registry::bucket_of(1.5e-6), 1u);    // [1, 2) us
  EXPECT_EQ(Registry::bucket_of(3e-6), 2u);      // [2, 4) us
  EXPECT_EQ(Registry::bucket_of(1e-3), 10u);     // 1000 us in [512, 1024)
  EXPECT_LT(Registry::bucket_of(3600.0), Registry::kHistogramBuckets);
}

TEST(Registry, ScopedTimerFeedsHistogram) {
  Registry registry;
  registry.set_enabled(true);
  const MetricId id = registry.histogram("scope");
  {
    ScopedTimer timer(registry, id);
  }
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_GE(snap.histograms[0].max_seconds, 0.0);
}

TEST(Registry, CounterMacroRespectsGlobalEnable) {
  Registry& global = Registry::global();
  const bool was_enabled = global.enabled();
  global.set_enabled(true);
  TS_COUNTER_ADD("test.macro_counter", 2);
  global.set_enabled(false);
  TS_COUNTER_ADD("test.macro_counter", 100);
  global.set_enabled(was_enabled);
#ifndef TROJANSCOUT_TELEMETRY_DISABLED
  std::uint64_t value = 0;
  for (const auto& c : global.snapshot().counters) {
    if (c.name == "test.macro_counter") value = c.value;
  }
  EXPECT_EQ(value, 2u);
#endif
}

// ---- spans ---------------------------------------------------------------

struct ParsedEvent {
  std::string name;
  std::string ph;
  std::int64_t tid = 0;
  std::int64_t ts = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  /// The span's own args (everything but span_id / parent_id).
  std::map<std::string, std::int64_t> args;
};

std::vector<ParsedEvent> parse_trace(const std::string& text) {
  proof::Json json;
  std::string error;
  EXPECT_TRUE(proof::Json::parse(text, json, &error)) << error;
  const proof::Json* events = json.find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::vector<ParsedEvent> out;
  for (const proof::Json& e : events->items()) {
    ParsedEvent p;
    p.name = e.find("name")->as_string();
    p.ph = e.find("ph")->as_string();
    p.tid = e.find("tid")->as_int();
    p.ts = e.find("ts")->as_int();
    const proof::Json* args = e.find("args");
    if (args != nullptr) {
      p.span_id = static_cast<std::uint64_t>(args->find("span_id")->as_int());
      if (const proof::Json* parent = args->find("parent_id")) {
        p.parent_id = static_cast<std::uint64_t>(parent->as_int());
      }
      for (const auto& [key, value] : args->entries()) {
        if (key != "span_id" && key != "parent_id") {
          p.args[key] = value.as_int();
        }
      }
    }
    out.push_back(p);
  }
  return out;
}

TEST(Span, NoRecorderMeansNoIds) {
  ASSERT_EQ(TraceRecorder::global(), nullptr);
  Span span("idle");
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(Span::current_id(), 0u);
}

TEST(Span, NestedSpansEmitMatchedPairsWithParentIds) {
  TraceRecorder recorder;
  TraceRecorder::set_global(&recorder);
  {
    Span outer("outer");
    EXPECT_EQ(Span::current_id(), outer.id());
    {
      Span inner("inner");
      EXPECT_NE(inner.id(), outer.id());
    }
    EXPECT_EQ(Span::current_id(), outer.id());
  }
  TraceRecorder::set_global(nullptr);

  const auto events = parse_trace(recorder.to_chrome_json());
  ASSERT_EQ(events.size(), 4u);
  // B events carry parent ids; the inner span's parent is the outer span.
  std::map<std::string, ParsedEvent> begins;
  std::set<std::uint64_t> begin_ids;
  std::set<std::uint64_t> end_ids;
  for (const auto& e : events) {
    if (e.ph == "B") {
      begins[e.name] = e;
      begin_ids.insert(e.span_id);
    } else {
      ASSERT_EQ(e.ph, "E");
      end_ids.insert(e.span_id);
    }
  }
  EXPECT_EQ(begin_ids, end_ids);  // every B has a matching E
  ASSERT_TRUE(begins.count("outer"));
  ASSERT_TRUE(begins.count("inner"));
  EXPECT_EQ(begins["outer"].parent_id, 0u);
  EXPECT_EQ(begins["inner"].parent_id, begins["outer"].span_id);
}

TEST(Span, ExplicitParentCrossesThreads) {
  TraceRecorder recorder;
  TraceRecorder::set_global(&recorder);
  std::uint64_t root_id = 0;
  {
    Span root("root");
    root_id = root.id();
    std::thread worker([root_id] {
      Span child("child", root_id);
      EXPECT_NE(child.id(), 0u);
    });
    worker.join();
  }
  TraceRecorder::set_global(nullptr);

  const auto events = parse_trace(recorder.to_chrome_json());
  ASSERT_EQ(events.size(), 4u);
  const ParsedEvent* root_begin = nullptr;
  const ParsedEvent* child_begin = nullptr;
  for (const auto& e : events) {
    if (e.ph != "B") continue;
    if (e.name == "root") root_begin = &e;
    if (e.name == "child") child_begin = &e;
  }
  ASSERT_NE(root_begin, nullptr);
  ASSERT_NE(child_begin, nullptr);
  EXPECT_EQ(child_begin->parent_id, root_begin->span_id);
  EXPECT_NE(child_begin->tid, root_begin->tid);  // ran on a worker thread
}

TEST(Span, TimestampsAreMonotonicPerThread) {
  TraceRecorder recorder;
  TraceRecorder::set_global(&recorder);
  {
    Span a("a");
    Span b("b");
  }
  TraceRecorder::set_global(nullptr);
  const auto events = parse_trace(recorder.to_chrome_json());
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts);
  }
}

TEST(Span, ArgsRideOnTheEndEvent) {
  TraceRecorder recorder;
  TraceRecorder::set_global(&recorder);
  {
    Span span("work");
    span.arg("frame", 3);
    span.arg("decisions", 70);
  }
  TraceRecorder::set_global(nullptr);

  const auto events = parse_trace(recorder.to_chrome_json());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].args.empty());  // B carries only span/parent ids
  const std::map<std::string, std::int64_t> expected = {{"frame", 3},
                                                        {"decisions", 70}};
  EXPECT_EQ(events[1].ph, "E");
  EXPECT_EQ(events[1].args, expected);
}

TEST(Span, ArgWithoutRecorderIsANoOp) {
  ASSERT_EQ(TraceRecorder::global(), nullptr);
  TraceRecorder recorder;  // exists, but is not installed
  {
    Span span("idle");
    span.arg("frame", 1);
  }
  EXPECT_EQ(recorder.event_count(), 0u);
}

// ---- engine frame spans --------------------------------------------------

/// The frame spans of one engine run, read off the recorded end events.
struct FrameArgs {
  std::size_t spans = 0;
  std::vector<std::uint64_t> frames;
  std::map<std::string, std::uint64_t> sums;  // every arg but "frame"
};

FrameArgs collect_frame_args(const std::vector<TraceEvent>& events,
                             const std::string& span_name,
                             const std::vector<std::string>& keys) {
  FrameArgs out;
  for (const TraceEvent& e : events) {
    if (e.begin || e.name != span_name) continue;
    ++out.spans;
    std::vector<std::string> seen;
    for (const auto& [key, value] : e.args) {
      seen.push_back(key);
      if (key == "frame") {
        out.frames.push_back(value);
      } else {
        out.sums[key] += value;
      }
    }
    EXPECT_EQ(seen, keys) << span_name << " span " << out.spans;
  }
  return out;
}

/// Eq. 2 on clean mc8051's stack pointer at 8 frames, traced.
core::CheckResult traced_sp_obligation(core::EngineKind kind,
                                       TraceRecorder& recorder) {
  const designs::Design design = designs::build_clean("mc8051");
  core::DetectorOptions options;
  options.engine.kind = kind;
  options.engine.max_frames = 8;
  options.engine.time_limit_seconds = 30.0;
  TraceRecorder::set_global(&recorder);
  core::CheckResult result =
      core::TrojanDetector(design, options)
          .run_obligation({core::Obligation::Kind::kCorruption, "sp", {}});
  TraceRecorder::set_global(nullptr);
  return result;
}

const std::vector<std::uint64_t> kFrames0To7 = {0, 1, 2, 3, 4, 5, 6, 7};

/// The frame spans plus the engine's one setup span account for every
/// solver counter of the run.
void expect_solver_sums(const FrameArgs& frames, const FrameArgs& setup,
                        const sat::SolverStats& total) {
  EXPECT_EQ(frames.sums.at("decisions") + setup.sums.at("decisions"),
            total.decisions);
  EXPECT_EQ(frames.sums.at("propagations") + setup.sums.at("propagations"),
            total.propagations);
  EXPECT_EQ(frames.sums.at("conflicts") + setup.sums.at("conflicts"),
            total.conflicts);
  EXPECT_EQ(frames.sums.at("restarts") + setup.sums.at("restarts"),
            total.restarts);
}

TEST(FrameSpans, BmcFrameArgsSumToTheSolverCounters) {
  TraceRecorder recorder;
  const core::CheckResult result =
      traced_sp_obligation(core::EngineKind::kBmc, recorder);
  ASSERT_EQ(result.status, "bound-reached");
  const FrameArgs frames = collect_frame_args(
      recorder.events(), "bmc:frame",
      {"frame", "decisions", "propagations", "conflicts", "restarts"});
  EXPECT_EQ(frames.spans, result.frames_completed);
  EXPECT_EQ(frames.frames, kFrames0To7);
  // The encoder's constant-true unit propagates once at level 0, before
  // frame 0: the setup span carries it.
  const FrameArgs setup = collect_frame_args(
      recorder.events(), "bmc:setup",
      {"decisions", "propagations", "conflicts", "restarts"});
  EXPECT_EQ(setup.spans, 1u);
  EXPECT_EQ(setup.sums.at("propagations"), 1u);
  expect_solver_sums(frames, setup, result.counters.sat);
}

TEST(FrameSpans, AtpgFrameArgsSumToTheSearchCounters) {
  TraceRecorder recorder;
  const core::CheckResult result =
      traced_sp_obligation(core::EngineKind::kAtpg, recorder);
  ASSERT_EQ(result.status, "bound-reached");
  const FrameArgs frames = collect_frame_args(
      recorder.events(), "atpg:frame",
      {"frame", "decisions", "backtracks", "implications"});
  EXPECT_EQ(frames.spans, result.frames_completed);
  EXPECT_EQ(frames.frames, kFrames0To7);
  // The random-simulation phase implies values before the first frame
  // span opens; its own span carries them.
  const FrameArgs random = collect_frame_args(
      recorder.events(), "atpg:random-sim",
      {"decisions", "backtracks", "implications"});
  EXPECT_EQ(random.spans, 1u);
  EXPECT_GT(random.sums.at("implications"), 0u);
  const core::EngineCounters& c = result.counters;
  EXPECT_EQ(frames.sums.at("decisions") + random.sums.at("decisions"),
            c.atpg_decisions);
  EXPECT_EQ(frames.sums.at("backtracks") + random.sums.at("backtracks"),
            c.atpg_backtracks);
  EXPECT_EQ(frames.sums.at("implications") + random.sums.at("implications"),
            c.atpg_implications);
}

TEST(FrameSpans, PdrFrontierArgsSumToTheSolverCounters) {
  TraceRecorder recorder;
  const core::CheckResult result =
      traced_sp_obligation(core::EngineKind::kPdr, recorder);
  ASSERT_EQ(result.status, "proven-unbounded");
  const FrameArgs frames = collect_frame_args(
      recorder.events(), "pdr:frontier",
      {"frame", "decisions", "propagations", "conflicts", "restarts"});
  // One span per frontier level; this contract closes at level 1.
  EXPECT_EQ(frames.spans, result.counters.pdr_frames);
  EXPECT_EQ(frames.frames, std::vector<std::uint64_t>{1});
  // The frame-0 reset check solves before the first frontier span opens;
  // its own span carries that work.
  const FrameArgs reset = collect_frame_args(
      recorder.events(), "pdr:reset",
      {"decisions", "propagations", "conflicts", "restarts"});
  EXPECT_EQ(reset.spans, 1u);
  EXPECT_GT(reset.sums.at("propagations"), 0u);
  expect_solver_sums(frames, reset, result.counters.sat);
}

TEST(FrameSpans, NoRecorderHandsOutNoIdsAndRecordsNothing) {
  TraceRecorder recorder;  // never installed: only reads the id counter
  const std::uint64_t id_before = recorder.next_id();
  for (const core::EngineKind kind :
       {core::EngineKind::kBmc, core::EngineKind::kAtpg,
        core::EngineKind::kPdr}) {
    const designs::Design design = designs::build_clean("mc8051");
    core::DetectorOptions options;
    options.engine.kind = kind;
    options.engine.max_frames = 8;
    const core::CheckResult result =
        core::TrojanDetector(design, options)
            .run_obligation({core::Obligation::Kind::kCorruption, "sp", {}});
    EXPECT_TRUE(result.bound_reached) << core::engine_name(kind);
  }
  EXPECT_EQ(recorder.next_id(), id_before + 1);
  EXPECT_EQ(recorder.event_count(), 0u);
}

// ---- event log -----------------------------------------------------------

std::vector<proof::Json> read_event_records(const std::string& path) {
  std::ifstream in(path);
  std::vector<proof::Json> records;
  std::string line;
  while (std::getline(in, line)) {
    proof::Json record;
    std::string error;
    EXPECT_TRUE(proof::Json::parse(line, record, &error))
        << "line " << records.size() + 1 << ": " << error;
    records.push_back(std::move(record));
  }
  return records;
}

TEST(EventLog, ConcurrentEmitsKeepSeqContiguousWithHeaderFirst) {
  const std::string path = ::testing::TempDir() + "events_concurrent.jsonl";
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50;
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    std::vector<std::thread> emitters;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      emitters.emplace_back([&log, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          log.emit("reshard", {{"job", "job-" + std::to_string(t)},
                               {"obligations", i}});
        }
      });
    }
    for (auto& e : emitters) e.join();
    EXPECT_EQ(log.record_count(), kThreads * kPerThread + 1);
  }

  const auto records = read_event_records(path);
  ASSERT_EQ(records.size(), kThreads * kPerThread + 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const proof::Json& record = records[i];
    ASSERT_TRUE(record.is_object()) << "line " << i + 1;
    ASSERT_FALSE(record.entries().empty());
    // "type" leads every record so a human tailing the file can read it.
    EXPECT_EQ(record.entries().front().first, "type") << "line " << i + 1;
    ASSERT_NE(record.find("seq"), nullptr) << "line " << i + 1;
    ASSERT_NE(record.find("ts_ms"), nullptr) << "line " << i + 1;
    // seq is the total order of the sink: contiguous from 0, even under
    // concurrent emitters, because assignment and append share one lock.
    EXPECT_EQ(static_cast<std::uint64_t>(record.find("seq")->as_int()), i);
    if (i == 0) {
      EXPECT_EQ(record.find("type")->as_string(), "header");
      EXPECT_EQ(record.find("schema")->as_string(), "trojanscout-events-v1");
      ASSERT_NE(record.find("pid"), nullptr);
    } else {
      EXPECT_EQ(record.find("type")->as_string(), "reshard");
    }
  }
}

TEST(EventLog, FieldValuesEscapeAndRoundTripThroughJson) {
  const std::string path = ::testing::TempDir() + "events_escape.jsonl";
  const std::string hostile = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    log.emit("worker_down", {{"endpoint", hostile},
                             {"reason", "read \"failed\""},
                             {"age_s", 1.5},
                             {"live", std::uint64_t{2}},
                             {"evicted", true}});
  }
  const auto records = read_event_records(path);
  ASSERT_EQ(records.size(), 2u);
  const proof::Json& record = records[1];
  EXPECT_EQ(record.find("endpoint")->as_string(), hostile);
  EXPECT_EQ(record.find("reason")->as_string(), "read \"failed\"");
  EXPECT_DOUBLE_EQ(record.find("age_s")->as_double(), 1.5);
  EXPECT_EQ(record.find("live")->as_int(), 2);
  EXPECT_TRUE(record.find("evicted")->as_bool());
}

TEST(EventLog, GlobalSinkIsOptionalAndBadPathsFailSoftly) {
  ASSERT_EQ(EventLog::global(), nullptr);
  emit_event("worker_up", {{"endpoint", "nobody:0"}});  // no sink: no-op

  EventLog bad("/nonexistent-dir-for-events/x.jsonl");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.record_count(), 0u);
  bad.emit("worker_up", {{"endpoint", "e"}});  // recorded nowhere, no throw
  EXPECT_EQ(bad.record_count(), 0u);

  const std::string path = ::testing::TempDir() + "events_global.jsonl";
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    EventLog::set_global(&log);
    EXPECT_EQ(EventLog::global(), &log);
    emit_event("worker_up", {{"endpoint", "tcp:127.0.0.1:1"}});
    // The destructor uninstalls itself so a dangling global is impossible.
  }
  EXPECT_EQ(EventLog::global(), nullptr);
  const auto records = read_event_records(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].find("type")->as_string(), "worker_up");
}

// ---- run reports ---------------------------------------------------------

TEST(RunReport, GoldenSchema) {
  RunReport report;
  report.add("demo")
      .set("name", "x")
      .set("count", 3)
      .set("big", std::uint64_t{18446744073709551615ull})
      .set("ratio", 0.5)
      .set("ok", true)
      .set("ids", std::vector<std::uint64_t>{1, 2, 3})
      .set("seconds", 1.25, /*timing=*/true);
  // Byte-exact golden line: field order is insertion order, "type" first.
  EXPECT_EQ(report.to_jsonl(true),
            "{\"type\":\"demo\",\"name\":\"x\",\"count\":3,"
            "\"big\":18446744073709551615,\"ratio\":0.5,\"ok\":true,"
            "\"ids\":[1,2,3],\"seconds\":1.25}\n");
  EXPECT_EQ(report.to_jsonl(false),
            "{\"type\":\"demo\",\"name\":\"x\",\"count\":3,"
            "\"big\":18446744073709551615,\"ratio\":0.5,\"ok\":true,"
            "\"ids\":[1,2,3]}\n");
}

TEST(RunReport, EscapesStringsAndOverwritesKeys) {
  RunReport report;
  auto& rec = report.add("demo");
  rec.set("path", "a\"b\\c\nd");
  rec.set("path", "tab\there");  // overwrite keeps position
  rec.set("later", 1);
  EXPECT_EQ(report.to_jsonl(true),
            "{\"type\":\"demo\",\"path\":\"tab\\there\",\"later\":1}\n");
}

TEST(RunReport, LinesParseAsJson) {
  RunReport report;
  report.add("one").set("nan", std::nan(""), true).set("k", -7);
  report.add("two").set("s", "<>&\x01");
  for (const auto& record : report.records()) {
    proof::Json json;
    std::string error;
    EXPECT_TRUE(proof::Json::parse(record.to_json(true), json, &error))
        << error;
  }
}

// ---- detection-report sink ----------------------------------------------

TEST(TelemetrySink, NonTimingFieldsIdenticalAcrossJobs) {
  designs::Mc8051Options options;
  options.trojan = designs::Mc8051Trojan::kT800;
  const designs::Design design = designs::build_mc8051(options);

  auto run = [&design](std::size_t jobs) {
    core::ParallelDetectorOptions parallel_options;
    parallel_options.detector.engine.kind = core::EngineKind::kBmc;
    parallel_options.detector.engine.max_frames = 8;
    parallel_options.jobs = jobs;
    core::ParallelDetector detector(design, parallel_options);
    RunReport report;
    core::append_detection_report(report, design.name, "BMC", detector.run(),
                                  /*total_seconds=*/jobs * 1.0);
    return report;
  };

  const RunReport serial = run(1);
  const RunReport parallel = run(4);
  // Timing fields (seconds, memory, RSS) differ; everything else must not.
  EXPECT_NE(serial.to_jsonl(true), parallel.to_jsonl(true));
  EXPECT_EQ(serial.to_jsonl(false), parallel.to_jsonl(false));

  // Every line carries the schema the validator expects.
  ASSERT_GE(serial.size(), 2u);
  const std::string last =
      serial.records().back().to_json(/*include_timing=*/true);
  proof::Json json;
  std::string error;
  ASSERT_TRUE(proof::Json::parse(last, json, &error)) << error;
  ASSERT_NE(json.find("type"), nullptr);
  EXPECT_EQ(json.find("type")->as_string(), "summary");
  EXPECT_NE(json.find("signature_fnv1a"), nullptr);
  EXPECT_NE(json.find("peak_rss_bytes"), nullptr);
}

TEST(TelemetrySink, RegistrySnapshotRecord) {
  Registry registry;
  registry.set_enabled(true);
  registry.add(registry.counter("alpha"), 4);
  registry.record_seconds(registry.histogram("beta"), 0.25);
  RunReport report;
  core::append_registry_snapshot(report, registry);
  ASSERT_EQ(report.size(), 1u);
  const std::string line = report.records()[0].to_json(true);
  EXPECT_NE(line.find("\"alpha\":4"), std::string::npos) << line;
  EXPECT_NE(line.find("\"beta.count\":1"), std::string::npos) << line;
  // Histogram durations are timing-flagged: stripped without timing.
  const std::string bare = report.records()[0].to_json(false);
  EXPECT_EQ(bare.find("sum_seconds"), std::string::npos) << bare;
}

TEST(EventLog, SizeCapRotatesWithFreshHeaderAndSeq) {
  const std::string path = ::testing::TempDir() + "events_rotate.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::uint64_t rotations = 0;
  {
    // ~80 bytes per record against a 512-byte cap: several rotations.
    EventLog log(path, /*max_bytes=*/512);
    ASSERT_TRUE(log.ok());
    for (std::uint64_t i = 0; i < 64; ++i) {
      log.emit("reshard", {{"job", "rotate-me"}, {"obligations", i}});
    }
    rotations = log.rotations();
  }
  EXPECT_GT(rotations, 0u);

  // Both generations are independently valid streams: header first with
  // the schema marker, then contiguous seq from 0.
  for (const std::string& file : {path, path + ".1"}) {
    const auto records = read_event_records(file);
    ASSERT_GE(records.size(), 1u) << file;
    EXPECT_EQ(records[0].find("type")->as_string(), "header") << file;
    EXPECT_EQ(records[0].find("schema")->as_string(), "trojanscout-events-v1")
        << file;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(static_cast<std::uint64_t>(records[i].find("seq")->as_int()),
                i)
          << file << " line " << i + 1;
    }
  }
}

TEST(EventLog, UnboundedLogNeverRotates) {
  const std::string path = ::testing::TempDir() + "events_unbounded.jsonl";
  std::remove((path + ".1").c_str());
  EventLog log(path);  // max_bytes = 0: rotation disabled
  ASSERT_TRUE(log.ok());
  for (std::uint64_t i = 0; i < 64; ++i) {
    log.emit("reshard", {{"job", "grow"}, {"obligations", i}});
  }
  EXPECT_EQ(log.rotations(), 0u);
  EXPECT_FALSE(std::ifstream(path + ".1").good());
}

}  // namespace
}  // namespace trojanscout::telemetry
