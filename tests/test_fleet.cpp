// Fleet coordinator tests: in-process worker daemons on ephemeral TCP
// ports behind a FleetCoordinator must produce DetectionReport signatures
// byte-identical to a direct single-process audit (cold and warm), survive
// a worker death by re-sharding onto the survivors, refuse overload with a
// structured retry-after (and the retrying client must back off), and —
// via the shared L2 store's claim protocol — compute each obligation at
// most once across worker processes even under concurrent duplicate
// submissions.
//
// Everything that can block on socket I/O runs under run_leg() (condition
// variable + hard timeout), mirroring test_service.cpp: a wedged fleet
// fails in seconds with a diagnostic instead of hanging CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "cache/verdict_codec.hpp"
#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/shard.hpp"
#include "proof/json.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/telemetry_wire.hpp"
#include "telemetry/events.hpp"
#include "telemetry/registry.hpp"
#include "verilog/writer.hpp"

namespace trojanscout::fleet {
namespace {

namespace fs = std::filesystem;
using service::AuditDaemon;
using service::AuditJob;
using service::Client;
using service::SubmitResult;
using service::submit_audit;

constexpr std::chrono::seconds kLegTimeout{120};

void run_leg(const char* what, const std::function<void()>& body) {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::thread worker([&] {
    body();
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  if (!cv.wait_for(lock, kLegTimeout, [&] { return done; })) {
    std::cerr << "FATAL: test leg '" << what << "' still blocked after "
              << kLegTimeout.count() << "s — fleet deadlock\n";
    std::_Exit(2);
  }
  lock.unlock();
  worker.join();
}

constexpr const char* kMc8051Spec =
    "register sp\n"
    "  way \"Reset\"     : reset == 1 -> const 0x07\n"
    "  way \"LCALL\"     : phase == 1 && opcode == 0x12 -> add 1\n"
    "  way \"RET\"       : phase == 1 && opcode == 0x22 -> sub 1\n"
    "  way \"MOV SP,#d\" : phase == 1 && opcode == 0x75 -> code_operand\n";

/// One in-process worker daemon: private L1, optional shared L2, ephemeral
/// TCP port.
struct WorkerHarness {
  WorkerHarness(const std::string& l1_dir, cache::VerdictCache* l2) {
    l1 = std::make_unique<cache::VerdictCache>(cache::VerdictCache::Options{
        l1_dir, cache::CacheMode::kReadWrite, /*max_bytes=*/0});
    AuditDaemon::Options options;
    options.endpoint = "tcp:127.0.0.1:0";
    options.jobs = 2;
    options.cache = l1.get();
    options.l2 = l2;
    daemon = std::make_unique<AuditDaemon>(options);
    daemon->start();
    endpoint = daemon->bound_endpoint();
  }

  std::unique_ptr<cache::VerdictCache> l1;
  std::unique_ptr<AuditDaemon> daemon;
  std::string endpoint;
};

/// Temp work area plus the direct-audit signature the fleet must match.
struct FleetFixture {
  FleetFixture() {
    char tmpl[] = "/tmp/ts_fleet_test_XXXXXX";
    dir = ::mkdtemp(tmpl);
    design_path = dir + "/mc8051.v";
    spec_path = dir + "/mc8051_sp.spec";
    const designs::Design design = designs::build_clean("mc8051");
    std::ofstream vs(design_path);
    verilog::write_verilog(vs, design.nl, design.name);
    std::ofstream ss(spec_path);
    ss << kMc8051Spec;
  }
  ~FleetFixture() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  AuditJob job(std::size_t frames = 6) const {
    AuditJob j;
    j.id = "fleet-job";
    j.design_path = design_path;
    j.spec_path = spec_path;
    j.frames = frames;
    return j;
  }

  std::string direct_signature(const AuditJob& j) const {
    designs::Design design = service::load_job_design(j);
    core::ParallelDetectorOptions options;
    options.detector = j.detector_options();
    options.jobs = 2;
    return core::ParallelDetector(design, options).run().signature();
  }

  /// Spawns `count` workers (worker i's L1 under dir/l1-i), sharing `l2`.
  std::vector<std::unique_ptr<WorkerHarness>> spawn_workers(
      std::size_t count, cache::VerdictCache* l2 = nullptr) {
    std::vector<std::unique_ptr<WorkerHarness>> workers;
    for (std::size_t i = 0; i < count; ++i) {
      workers.push_back(std::make_unique<WorkerHarness>(
          dir + "/l1-" + std::to_string(i), l2));
    }
    return workers;
  }

  FleetCoordinator::Options coordinator_options(
      const std::vector<std::unique_ptr<WorkerHarness>>& workers) const {
    FleetCoordinator::Options options;
    options.endpoint = "tcp:127.0.0.1:0";
    for (const auto& worker : workers) {
      options.workers.push_back(worker->endpoint);
    }
    // Tests drive failure detection through the dispatch path; the health
    // prober would only add scheduling noise.
    options.health_interval_seconds = 0;
    options.worker_connect.attempts = 2;
    options.worker_connect.base_delay_ms = 10;
    return options;
  }

  std::string dir;
  std::string design_path;
  std::string spec_path;
};

TEST(FleetCoordinator, ThreeWorkerFleetMatchesDirectAuditColdAndWarm) {
  FleetFixture fx;
  cache::VerdictCache l2({fx.dir + "/l2", cache::CacheMode::kReadWrite,
                          /*max_bytes=*/0});
  auto workers = fx.spawn_workers(3, &l2);
  FleetCoordinator coordinator(fx.coordinator_options(workers));
  coordinator.start();

  const AuditJob job = fx.job();
  SubmitResult cold;
  SubmitResult warm;
  std::size_t obligation_lines = 0;
  run_leg("cold fleet submit", [&] {
    Client client(coordinator.bound_endpoint());
    cold = submit_audit(client, job,
                        [&obligation_lines](const proof::Json& r) {
                          const proof::Json* type = r.find("type");
                          if (type != nullptr && type->is_string() &&
                              type->as_string() == "obligation") {
                            obligation_lines++;
                          }
                        });
  });
  run_leg("warm fleet submit", [&] {
    Client client(coordinator.bound_endpoint());
    warm = submit_audit(client, job);
  });
  coordinator.stop();
  for (auto& worker : workers) worker->daemon->stop();

  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(warm.ok) << warm.error;
  const std::string expected = fx.direct_signature(job);
  EXPECT_EQ(cold.signature, expected)
      << "sharded cold audit must merge to the direct-audit report";
  EXPECT_EQ(warm.signature, expected);
  EXPECT_GT(cold.obligations, 0u);
  EXPECT_EQ(obligation_lines, cold.obligations)
      << "the coordinator must stream one line per obligation";
  EXPECT_EQ(cold.computed, cold.obligations);
  EXPECT_EQ(warm.cache_hits, warm.obligations)
      << "warm resubmit must be answered entirely from worker caches";
  EXPECT_EQ(warm.computed, 0u);
  EXPECT_EQ(coordinator.jobs_completed(), 2u);
  EXPECT_EQ(coordinator.reshards(), 0u);
}

TEST(FleetCoordinator, WorkerDeathIsReShardedOntoSurvivors) {
  FleetFixture fx;
  auto workers = fx.spawn_workers(2);
  const AuditJob job = fx.job();

  // Find which worker the ring assigns obligation 0 and kill exactly that
  // one, so the re-shard path is exercised deterministically.
  const designs::Design design = service::load_job_design(job);
  const cache::ObligationKeyer keyer(design, job.detector_options(),
                                     /*fail_fast=*/false);
  core::TrojanDetector detector(design, job.detector_options());
  const std::string key0 = keyer.key(detector.enumerate_obligations().at(0));
  ShardRing ring;
  ring.add(workers[0]->endpoint);
  ring.add(workers[1]->endpoint);
  const std::size_t victim = ring.node_for(key0) == workers[0]->endpoint
                                 ? 0
                                 : 1;
  workers[victim]->daemon->stop();

  FleetCoordinator coordinator(fx.coordinator_options(workers));
  coordinator.start();
  SubmitResult result;
  run_leg("submit with a dead worker", [&] {
    Client client(coordinator.bound_endpoint());
    result = submit_audit(client, job);
  });
  coordinator.stop();
  for (auto& worker : workers) worker->daemon->stop();

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.signature, fx.direct_signature(job))
      << "the job must complete on the survivor with an identical report";
  EXPECT_GE(coordinator.reshards(), 1u)
      << "the dead worker owned obligation 0, so a re-shard must happen";
}

TEST(FleetCoordinator, OverloadIsRefusedWithRetryAfterAndClientBacksOff) {
  FleetFixture fx;
  auto workers = fx.spawn_workers(1);
  const AuditJob job = fx.job();

  FleetCoordinator::Options options = fx.coordinator_options(workers);
  // Any shard of this job (several obligations, one worker) exceeds a
  // one-obligation queue, so admission control must refuse deterministically.
  options.queue_capacity = 1;
  options.retry_after_ms = 5;
  FleetCoordinator coordinator(options);
  coordinator.start();

  SubmitResult refused;
  std::size_t backoffs = 0;
  run_leg("overloaded submits", [&] {
    {
      Client client(coordinator.bound_endpoint());
      refused = submit_audit(client, job);
    }
    // The retrying client must observe the hint, back off, and eventually
    // surface the refusal instead of dropping the job silently.
    const SubmitResult after_retries = service::submit_audit_with_retry(
        coordinator.bound_endpoint(), job, service::ConnectRetry{},
        /*max_retries=*/2, nullptr,
        [&backoffs](std::uint64_t delay_ms) {
          EXPECT_GE(delay_ms, 5u);
          backoffs++;
        });
    EXPECT_FALSE(after_retries.ok);
    EXPECT_GT(after_retries.retry_after_ms, 0u);
  });
  coordinator.stop();

  EXPECT_FALSE(refused.ok);
  EXPECT_GT(refused.retry_after_ms, 0u) << refused.error;
  EXPECT_EQ(backoffs, 2u);
  EXPECT_EQ(coordinator.retry_after_sent(), 4u)
      << "one direct refusal + three refused attempts of the retry loop";

  // The same worker behind an adequately-sized queue completes the job.
  FleetCoordinator::Options roomy = fx.coordinator_options(workers);
  roomy.queue_capacity = 64;
  FleetCoordinator ok_coordinator(roomy);
  ok_coordinator.start();
  SubmitResult result;
  run_leg("same job under a roomy queue", [&] {
    Client client(ok_coordinator.bound_endpoint());
    result = submit_audit(client, job);
  });
  ok_coordinator.stop();
  for (auto& worker : workers) worker->daemon->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.signature, fx.direct_signature(job));
}

TEST(FleetCoordinator, SharedL2ComputesEachObligationOnceAcrossWorkers) {
  FleetFixture fx;
  cache::VerdictCache l2({fx.dir + "/l2", cache::CacheMode::kReadWrite,
                          /*max_bytes=*/0});
  auto workers = fx.spawn_workers(2, &l2);
  const AuditJob job = fx.job();

  telemetry::Registry& registry = telemetry::Registry::global();
  registry.set_enabled(true);
  const auto counter_of = [&registry](const std::string& name) {
    for (const auto& counter : registry.snapshot().counters) {
      if (counter.name == name) return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t owners_before = counter_of("cache.l2_claim_owner");

  // Identical jobs race on both workers at once: the L2 claim protocol
  // must arbitrate so every obligation runs an engine on exactly one
  // worker; the other adopts the published verdict (shared or cache).
  std::vector<SubmitResult> results(2);
  run_leg("concurrent duplicate submissions", [&] {
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back([&, i] {
        Client client(workers[static_cast<std::size_t>(i)]->endpoint);
        results[static_cast<std::size_t>(i)] = submit_audit(client, job);
      });
    }
    for (auto& thread : threads) thread.join();
  });
  for (auto& worker : workers) worker->daemon->stop();

  const std::uint64_t owners_after = counter_of("cache.l2_claim_owner");
  registry.set_enabled(false);

  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(results[0].signature, results[1].signature);
  EXPECT_EQ(results[0].signature, fx.direct_signature(job));
  const std::uint64_t obligations = results[0].obligations;
  EXPECT_EQ(results[0].computed + results[1].computed, obligations)
      << "fleet-wide claim dedupe must compute each obligation exactly once";
  EXPECT_EQ(results[0].cache_hits + results[0].shared + results[1].cache_hits +
                results[1].shared,
            obligations);
  EXPECT_EQ(owners_after - owners_before, obligations)
      << "every key must be claimed by exactly one owner";
}

/// Reads a whole file; empty string doubles as "missing" for the asserts.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FleetCoordinator, TraceStitchingYieldsOneValidTraceWithParity) {
  FleetFixture fx;
  auto workers = fx.spawn_workers(2);
  FleetCoordinator::Options options = fx.coordinator_options(workers);
  options.trace_out = fx.dir + "/fleet_trace.json";
  // All taps on at once: stitched trace + event log + registry — none may
  // perturb the merged report.
  telemetry::EventLog events(fx.dir + "/events.jsonl");
  ASSERT_TRUE(events.ok());
  telemetry::EventLog::set_global(&events);
  FleetCoordinator coordinator(options);
  coordinator.start();

  const AuditJob job = fx.job();
  SubmitResult cold;
  SubmitResult warm;
  std::string trace_id;
  bool report_had_tail = false;
  run_leg("cold traced submit", [&] {
    Client client(coordinator.bound_endpoint());
    cold = submit_audit(client, job, [&](const proof::Json& r) {
      const proof::Json* type = r.find("type");
      if (type == nullptr || !type->is_string() ||
          type->as_string() != "report") {
        return;
      }
      const proof::Json* id = r.find("trace_id");
      if (id != nullptr && id->is_string()) trace_id = id->as_string();
      const proof::Json* tail = r.find("slowest");
      report_had_tail = tail != nullptr && tail->is_array();
    });
  });
  run_leg("warm traced submit", [&] {
    Client client(coordinator.bound_endpoint());
    warm = submit_audit(client, job);
  });
  coordinator.stop();
  for (auto& worker : workers) worker->daemon->stop();
  telemetry::EventLog::set_global(nullptr);

  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(warm.ok) << warm.error;
  const std::string expected = fx.direct_signature(job);
  EXPECT_EQ(cold.signature, expected)
      << "tracing must not perturb the merged report";
  EXPECT_EQ(warm.signature, expected);
  EXPECT_EQ(trace_id.rfind("fleet-", 0), 0u) << "trace_id: " << trace_id;
  EXPECT_TRUE(report_had_tail)
      << "a traced fleet report must carry the slowest-obligations table";

  // One Chrome trace for the whole run: every worker span renumbered into
  // the coordinator's id/tid/clock namespace. The invariants mirror
  // tools/check_metrics.py check_trace.
  proof::Json trace;
  std::string error;
  ASSERT_TRUE(proof::Json::parse(slurp(options.trace_out), trace, &error))
      << error;
  const proof::Json* trace_events = trace.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());

  std::vector<std::uint64_t> begun;
  std::map<std::int64_t, std::int64_t> last_ts;  // tid -> ts (file order)
  std::size_t job_spans = 0;
  std::size_t shard_spans = 0;
  std::size_t obligation_spans = 0;
  std::size_t stitched_tids = 0;
  std::size_t worker_frames_with_args = 0;
  for (const proof::Json& event : trace_events->items()) {
    ASSERT_TRUE(event.is_object());
    const std::string& ph = event.find("ph")->as_string();
    const std::string& name = event.find("name")->as_string();
    const std::int64_t tid = event.find("tid")->as_int();
    const std::int64_t ts = event.find("ts")->as_int();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts)
          << "timestamps must stay monotone per tid after clock rebasing "
          << "(tid " << tid << ", span " << name << ")";
    }
    last_ts[tid] = ts;
    if (ph == "E" && name == "bmc:frame" && tid >= 1000 &&
        event.find("args")->find("frame") != nullptr &&
        event.find("args")->find("decisions") != nullptr) {
      worker_frames_with_args++;
    }
    if (ph != "B") continue;
    begun.push_back(static_cast<std::uint64_t>(
        event.find("args")->find("span_id")->as_int()));
    if (name.rfind("fleet:job:", 0) == 0) job_spans++;
    if (name.rfind("fleet:shard:", 0) == 0) shard_spans++;
    if (name.rfind("obligation:", 0) == 0) obligation_spans++;
    if (tid >= 1000) stitched_tids++;
  }
  EXPECT_EQ(job_spans, 2u) << "one fleet:job span per traced job";
  EXPECT_GE(shard_spans, 2u);
  EXPECT_GE(obligation_spans, 2u)
      << "worker obligation spans must survive the stitch";
  EXPECT_GT(stitched_tids, 0u)
      << "stitched worker events must land on namespaced tids";
  EXPECT_GT(worker_frames_with_args, 0u)
      << "worker bmc:frame spans must keep their counter args";
  const std::set<std::uint64_t> begun_set(begun.begin(), begun.end());
  EXPECT_EQ(begun_set.size(), begun.size()) << "span ids must be unique";
  for (const proof::Json& event : trace_events->items()) {
    const proof::Json* args = event.find("args");
    const std::string& ph = event.find("ph")->as_string();
    if (ph == "B") {
      const auto parent =
          static_cast<std::uint64_t>(args->find("parent_id")->as_int());
      EXPECT_TRUE(parent == 0 || begun_set.count(parent) != 0)
          << "parent " << parent << " of span "
          << event.find("name")->as_string() << " never begun";
    } else {
      const auto span =
          static_cast<std::uint64_t>(args->find("span_id")->as_int());
      EXPECT_TRUE(begun_set.count(span) != 0)
          << "end of span " << span << " never begun";
    }
  }
}

TEST(FleetCoordinator, WorkerDeathEmitsEvictionAndReshardEvents) {
  FleetFixture fx;
  auto workers = fx.spawn_workers(2);
  const AuditJob job = fx.job();

  // Kill the worker that owns obligation 0 (as in the re-shard test), so
  // the event log must record its death, the eviction, and the re-shard.
  const designs::Design design = service::load_job_design(job);
  const cache::ObligationKeyer keyer(design, job.detector_options(),
                                     /*fail_fast=*/false);
  core::TrojanDetector detector(design, job.detector_options());
  const std::string key0 = keyer.key(detector.enumerate_obligations().at(0));
  ShardRing ring;
  ring.add(workers[0]->endpoint);
  ring.add(workers[1]->endpoint);
  const std::size_t victim =
      ring.node_for(key0) == workers[0]->endpoint ? 0 : 1;
  workers[victim]->daemon->stop();

  telemetry::EventLog events(fx.dir + "/events.jsonl");
  ASSERT_TRUE(events.ok());
  telemetry::EventLog::set_global(&events);
  FleetCoordinator coordinator(fx.coordinator_options(workers));
  coordinator.start();
  SubmitResult result;
  run_leg("submit with a dead worker", [&] {
    Client client(coordinator.bound_endpoint());
    result = submit_audit(client, job);
  });
  coordinator.stop();
  for (auto& worker : workers) worker->daemon->stop();
  telemetry::EventLog::set_global(nullptr);
  ASSERT_TRUE(result.ok) << result.error;

  std::istringstream in(slurp(events.path()));
  std::string line;
  std::uint64_t expected_seq = 0;
  std::size_t lineno = 0;
  std::map<std::string, std::size_t> seen;
  std::string evicted_endpoint;
  while (std::getline(in, line)) {
    lineno++;
    proof::Json record;
    std::string error;
    ASSERT_TRUE(proof::Json::parse(line, record, &error))
        << "line " << lineno << ": " << error;
    ASSERT_TRUE(record.is_object());
    ASSERT_FALSE(record.entries().empty());
    EXPECT_EQ(record.entries().front().first, "type")
        << "line " << lineno << ": 'type' must be the first field";
    const std::string& type = record.find("type")->as_string();
    EXPECT_EQ((lineno == 1), (type == "header"))
        << "the schema header must be exactly the first record";
    // The sink is one mutex-serialized append stream: seq is the total
    // order of everything this process observed, with no gaps.
    ASSERT_NE(record.find("seq"), nullptr) << "line " << lineno;
    EXPECT_EQ(static_cast<std::uint64_t>(record.find("seq")->as_int()),
              expected_seq)
        << "line " << lineno;
    expected_seq++;
    seen[type]++;
    if (type == "header") {
      EXPECT_EQ(record.find("schema")->as_string(), "trojanscout-events-v1");
    }
    if (type == "worker_evicted") {
      evicted_endpoint = record.find("endpoint")->as_string();
      EXPECT_EQ(record.find("live")->as_int(), 1);
    }
  }
  EXPECT_EQ(events.record_count(), expected_seq);
  EXPECT_EQ(seen["worker_up"], 2u);
  EXPECT_GE(seen["worker_down"], 1u);
  EXPECT_GE(seen["worker_evicted"], 1u);
  EXPECT_GE(seen["reshard"], 1u)
      << "the dead worker owned obligation 0, so a re-shard must be logged";
  EXPECT_EQ(evicted_endpoint, workers[victim]->endpoint);
}

TEST(FleetCoordinator, StatsReplyMergesWorkerTelemetryExactly) {
  FleetFixture fx;
  auto workers = fx.spawn_workers(2);
  FleetCoordinator coordinator(fx.coordinator_options(workers));
  coordinator.start();

  // One real job first, so the worker registries hold non-trivial
  // counters and engine-timer histograms.
  const AuditJob job = fx.job();
  SubmitResult result;
  proof::Json reply;
  run_leg("submit then stats", [&] {
    {
      Client client(coordinator.bound_endpoint());
      result = submit_audit(client, job);
    }
    Client client(coordinator.bound_endpoint());
    client.send_line(service::control_request_line("stats"));
    ASSERT_TRUE(client.read_response(reply));
  });
  coordinator.stop();
  for (auto& worker : workers) worker->daemon->stop();
  ASSERT_TRUE(result.ok) << result.error;

  ASSERT_NE(reply.find("type"), nullptr);
  EXPECT_EQ(reply.find("type")->as_string(), "stats");
  EXPECT_EQ(reply.find("role")->as_string(), "coordinator");
  EXPECT_EQ(reply.find("pid")->as_int(),
            static_cast<std::int64_t>(::getpid()));
  EXPECT_GE(reply.find("uptime_s")->as_double(), 0.0);
  ASSERT_NE(reply.find("slowest"), nullptr);
  EXPECT_TRUE(reply.find("slowest")->is_array());

  const proof::Json* worker_rows = reply.find("workers");
  ASSERT_NE(worker_rows, nullptr);
  ASSERT_EQ(worker_rows->items().size(), 2u);
  telemetry::Registry::Snapshot expected;
  std::string error;
  for (const proof::Json& row : worker_rows->items()) {
    EXPECT_TRUE(row.find("alive")->as_bool());
    ASSERT_NE(row.find("pid"), nullptr);
    ASSERT_NE(row.find("uptime_s"), nullptr);
    ASSERT_NE(row.find("jobs_completed"), nullptr);
    const proof::Json* snapshot_json = row.find("telemetry");
    ASSERT_NE(snapshot_json, nullptr)
        << "each live worker must report its registry snapshot";
    telemetry::Registry::Snapshot snapshot;
    ASSERT_TRUE(service::snapshot_from_json(*snapshot_json, snapshot, &error))
        << error;
    service::merge_snapshot(expected, snapshot);
  }
  telemetry::Registry::Snapshot merged;
  ASSERT_NE(reply.find("telemetry"), nullptr);
  ASSERT_TRUE(
      service::snapshot_from_json(*reply.find("telemetry"), merged, &error))
      << error;

  // The coordinator's merge must be the exact sum of what it reported per
  // worker — counters by name, histogram counts and buckets element-wise.
  ASSERT_EQ(merged.counters.size(), expected.counters.size());
  bool any_counter = false;
  for (std::size_t i = 0; i < merged.counters.size(); ++i) {
    EXPECT_EQ(merged.counters[i].name, expected.counters[i].name);
    EXPECT_EQ(merged.counters[i].value, expected.counters[i].value)
        << merged.counters[i].name;
    any_counter = any_counter || merged.counters[i].value > 0;
  }
  EXPECT_TRUE(any_counter) << "the audit job must have left counters";
  ASSERT_EQ(merged.histograms.size(), expected.histograms.size());
  for (std::size_t i = 0; i < merged.histograms.size(); ++i) {
    EXPECT_EQ(merged.histograms[i].name, expected.histograms[i].name);
    EXPECT_EQ(merged.histograms[i].count, expected.histograms[i].count)
        << merged.histograms[i].name;
    EXPECT_EQ(merged.histograms[i].buckets, expected.histograms[i].buckets)
        << merged.histograms[i].name;
  }

  const proof::Json* own = reply.find("coordinator_telemetry");
  ASSERT_NE(own, nullptr);
  telemetry::Registry::Snapshot coordinator_snapshot;
  EXPECT_TRUE(service::snapshot_from_json(*own, coordinator_snapshot, &error))
      << error;
}

TEST(FleetCoordinator, StatsReplyCountsJobsAndWorkerLiveness) {
  FleetFixture fx;
  auto workers = fx.spawn_workers(2);
  FleetCoordinator coordinator(fx.coordinator_options(workers));
  coordinator.start();

  const AuditJob job = fx.job();
  SubmitResult result;
  proof::Json stats;
  run_leg("submit then stats", [&] {
    {
      Client client(coordinator.bound_endpoint());
      result = submit_audit(client, job);
    }
    Client client(coordinator.bound_endpoint());
    client.send_line(service::control_request_line("stats"));
    ASSERT_TRUE(client.read_response(stats));
  });
  coordinator.stop();
  for (auto& worker : workers) worker->daemon->stop();
  ASSERT_TRUE(result.ok) << result.error;

  // Coordinator-level counters.
  EXPECT_EQ(stats.find("jobs_completed")->as_int(), 1);
  EXPECT_EQ(stats.find("bad_requests")->as_int(), 0);
  ASSERT_NE(stats.find("uptime_ms"), nullptr);

  // Fleet shape: both workers alive and answering the fan-out.
  const proof::Json* worker_rows = stats.find("workers");
  ASSERT_NE(worker_rows, nullptr);
  ASSERT_EQ(worker_rows->items().size(), 2u);
  for (const proof::Json& row : worker_rows->items()) {
    EXPECT_TRUE(row.find("alive")->as_bool());
    EXPECT_TRUE(row.find("responding")->as_bool());
  }

  // The merged worker registry shows the job's engine runs.
  telemetry::Registry::Snapshot merged;
  std::string error;
  ASSERT_NE(stats.find("telemetry"), nullptr);
  ASSERT_TRUE(
      service::snapshot_from_json(*stats.find("telemetry"), merged, &error))
      << error;
  bool checked_engine_runs = false;
  for (const auto& counter : merged.counters) {
    if (counter.name != "engine.runs") continue;
    EXPECT_GT(counter.value, 0u);
    checked_engine_runs = true;
  }
  EXPECT_TRUE(checked_engine_runs)
      << "the audit job must have run engines on the workers";
}

TEST(FleetCoordinator, StatsFanOutMarksUnresponsiveWorkerAndSumsPartially) {
  FleetFixture fx;
  auto workers = fx.spawn_workers(2);
  FleetCoordinator coordinator(fx.coordinator_options(workers));
  coordinator.start();

  const AuditJob job = fx.job();
  SubmitResult result;
  proof::Json reply;
  run_leg("submit, kill one worker, stats", [&] {
    {
      Client client(coordinator.bound_endpoint());
      result = submit_audit(client, job);
    }
    // The worker dies silently after the job; the health prober is off,
    // so the ring still believes it is alive and only the stats fan-out
    // itself can discover the silence.
    workers[1]->daemon->stop();
    Client client(coordinator.bound_endpoint());
    client.send_line(service::control_request_line("stats"));
    ASSERT_TRUE(client.read_response(reply));
  });
  coordinator.stop();
  workers[0]->daemon->stop();
  ASSERT_TRUE(result.ok) << result.error;

  const proof::Json* worker_rows = reply.find("workers");
  ASSERT_NE(worker_rows, nullptr);
  ASSERT_EQ(worker_rows->items().size(), 2u);
  telemetry::Registry::Snapshot expected;
  std::string error;
  std::size_t responding = 0;
  for (const proof::Json& row : worker_rows->items()) {
    const bool responded = row.find("responding")->as_bool();
    if (!responded) {
      // The silent worker is marked, not silently merged as zero, and no
      // stale per-worker detail rides along.
      EXPECT_EQ(row.find("telemetry"), nullptr);
      EXPECT_EQ(row.find("jobs_completed"), nullptr);
      continue;
    }
    responding++;
    const proof::Json* snapshot_json = row.find("telemetry");
    ASSERT_NE(snapshot_json, nullptr);
    telemetry::Registry::Snapshot snapshot;
    ASSERT_TRUE(service::snapshot_from_json(*snapshot_json, snapshot, &error))
        << error;
    service::merge_snapshot(expected, snapshot);
  }
  EXPECT_EQ(responding, 1u) << "exactly the stopped worker must be absent";

  // The merged fleet telemetry is exactly the partial sum over the
  // workers that answered this fan-out.
  telemetry::Registry::Snapshot merged;
  ASSERT_NE(reply.find("telemetry"), nullptr);
  ASSERT_TRUE(
      service::snapshot_from_json(*reply.find("telemetry"), merged, &error))
      << error;
  ASSERT_EQ(merged.counters.size(), expected.counters.size());
  for (std::size_t i = 0; i < merged.counters.size(); ++i) {
    EXPECT_EQ(merged.counters[i].name, expected.counters[i].name);
    EXPECT_EQ(merged.counters[i].value, expected.counters[i].value)
        << merged.counters[i].name;
  }
  ASSERT_EQ(merged.histograms.size(), expected.histograms.size());
  for (std::size_t i = 0; i < merged.histograms.size(); ++i) {
    EXPECT_EQ(merged.histograms[i].buckets, expected.histograms[i].buckets)
        << merged.histograms[i].name;
  }
}

}  // namespace
}  // namespace trojanscout::fleet
