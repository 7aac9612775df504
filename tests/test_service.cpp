// Audit daemon tests: an in-process AuditDaemon on a temp Unix socket must
// serve submitted jobs with DetectionReport signatures byte-identical to a
// direct ParallelDetector run over the same files, answer warm re-submits
// entirely from the shared verdict cache, respond to ping/stats, reject
// malformed jobs with an error response (connection stays usable), and
// shut down cleanly from both a client op and a server-side stop().
//
// Every leg that can block on daemon I/O (socket reads, wait(), joins) runs
// under run_leg(): a worker thread plus a condition-variable wait with a
// hard timeout. A deadlocked daemon then fails the suite with a diagnostic
// in seconds instead of hanging a TSan CI job until the outer timeout.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <cmath>

#include "cache/verdict_cache.hpp"
#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "proof/json.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/exposition.hpp"
#include "service/protocol.hpp"
#include "service/telemetry_wire.hpp"
#include "specdsl/specdsl.hpp"
#include "telemetry/registry.hpp"
#include "verilog/reader.hpp"
#include "verilog/writer.hpp"

namespace trojanscout::service {
namespace {

namespace fs = std::filesystem;

/// Hard ceiling per blocking leg. Generous: the slowest leg is a cold
/// 2-job audit (~1 s release, several seconds under TSan); a leg that is
/// still blocked after two minutes is deadlocked, not slow.
constexpr std::chrono::seconds kLegTimeout{120};

/// Runs `body` on a worker thread and waits on a condition variable with
/// kLegTimeout. On timeout the worker is stuck in a blocking call that
/// nothing will interrupt, so the only useful move is to fail the whole
/// binary loudly — _Exit beats a silent CI hang.
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
              << kLegTimeout.count() << "s — daemon deadlock\n";
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

/// Work area holding the socket, the cache, and the design/spec files the
/// daemon loads by path.
struct ServiceFixture {
  ServiceFixture() {
    char tmpl[] = "/tmp/ts_service_test_XXXXXX";
    dir = ::mkdtemp(tmpl);
    socket_path = dir + "/daemon.sock";
    design_path = dir + "/mc8051.v";
    spec_path = dir + "/mc8051_sp.spec";
    const designs::Design design = designs::build_clean("mc8051");
    std::ofstream vs(design_path);
    verilog::write_verilog(vs, design.nl, design.name);
    std::ofstream ss(spec_path);
    ss << kMc8051Spec;
  }
  ~ServiceFixture() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  AuditJob job(std::size_t frames = 6) const {
    AuditJob j;
    j.id = "test-job";
    j.design_path = design_path;
    j.spec_path = spec_path;
    j.frames = frames;
    return j;
  }

  /// What the daemon must match: a direct parallel audit of the same files.
  std::string direct_signature(const AuditJob& j) const {
    designs::Design design;
    design.name = "design";
    std::ifstream in(j.design_path);
    design.nl = verilog::read_verilog(in);
    design.nl.validate();
    design.spec = specdsl::load_spec_file(design.nl, j.spec_path);
    for (const auto& reg_spec : design.spec.registers) {
      design.critical_registers.push_back(reg_spec.reg);
    }
    core::ParallelDetectorOptions options;
    options.detector = j.detector_options();
    options.jobs = 2;
    return core::ParallelDetector(design, options).run().signature();
  }

  std::string dir;
  std::string socket_path;
  std::string design_path;
  std::string spec_path;
};

TEST(AuditDaemon, SubmittedJobMatchesDirectAuditSignature) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 2;
  AuditDaemon daemon(options);
  daemon.start();

  const AuditJob job = fx.job();
  std::size_t obligation_lines = 0;
  SubmitResult result;
  run_leg("submit", [&] {
    Client client(fx.socket_path);
    result =
        submit_audit(client, job, [&obligation_lines](const proof::Json& r) {
          const proof::Json* type = r.find("type");
          if (type != nullptr && type->is_string() &&
              type->as_string() == "obligation") {
            obligation_lines++;
          }
        });
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.trojan_found);
  EXPECT_EQ(result.signature, fx.direct_signature(job));
  EXPECT_GT(result.obligations, 0u);
  EXPECT_EQ(obligation_lines, result.obligations)
      << "every obligation must stream one response line";
  EXPECT_EQ(result.computed, result.obligations);

  daemon.stop();
  EXPECT_FALSE(fs::exists(fx.socket_path)) << "stop() must unlink the socket";
  EXPECT_EQ(daemon.jobs_completed(), 1u);
}

TEST(AuditDaemon, WarmResubmitIsServedEntirelyFromTheCache) {
  ServiceFixture fx;
  cache::VerdictCache cache({fx.dir + "/cache", cache::CacheMode::kReadWrite,
                             /*max_bytes=*/0});
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 2;
  options.cache = &cache;
  AuditDaemon daemon(options);
  daemon.start();

  const AuditJob job = fx.job();
  SubmitResult cold;
  SubmitResult warm;
  run_leg("cold submit", [&] {
    Client client(fx.socket_path);
    cold = submit_audit(client, job);
  });
  run_leg("warm submit", [&] {
    Client client(fx.socket_path);
    warm = submit_audit(client, job);
  });
  daemon.stop();

  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.computed, cold.obligations);
  EXPECT_EQ(warm.cache_hits, warm.obligations)
      << "warm batch must perform zero engine runs";
  EXPECT_EQ(warm.computed, 0u);
  EXPECT_EQ(warm.signature, cold.signature);

  // Jobs with a different bound ask a different question — key must differ.
  EXPECT_EQ(cache.stats().misses, cold.obligations);
}

TEST(AuditDaemon, AnswersPingAndStatsAndErrorsKeepTheConnectionUsable) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 1;
  AuditDaemon daemon(options);
  daemon.start();

  run_leg("ping/error/stats conversation", [&] {
    Client client(fx.socket_path);
    proof::Json response;

    client.send_line(control_request_line("ping"));
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "pong");

    client.send_line("this is not json");
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "error");

    client.send_line("{\"op\":\"audit\",\"design\":\"\",\"spec\":\"\"}");
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "error");

    // A job whose design file does not exist fails that job, not the
    // daemon.
    AuditJob bad = fx.job();
    bad.design_path = fx.dir + "/missing.v";
    const SubmitResult result = submit_audit(client, bad);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());

    client.send_line(control_request_line("stats"));
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "stats");
    ASSERT_NE(response.find("jobs_completed"), nullptr);

    // The connection survived all of the above: a real job still works.
    const SubmitResult good = submit_audit(client, fx.job());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.signature, fx.direct_signature(fx.job()));
  });

  daemon.stop();
}

TEST(AuditDaemon, TcpEndpointWithEphemeralPortServesJobs) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.jobs = 2;
  AuditDaemon daemon(options);
  daemon.start();
  // The kernel-assigned port must be visible so clients can attach.
  const std::string endpoint = daemon.bound_endpoint();
  EXPECT_EQ(endpoint.rfind("tcp:127.0.0.1:", 0), 0u) << endpoint;
  EXPECT_NE(endpoint, "tcp:127.0.0.1:0");

  const AuditJob job = fx.job();
  SubmitResult result;
  run_leg("tcp submit", [&] {
    Client client(endpoint);
    result = submit_audit(client, job);
  });
  daemon.stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.signature, fx.direct_signature(job));
}

TEST(AuditDaemon, RejectsOversizedAndNonUtf8LinesWithoutClosing) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 1;
  AuditDaemon daemon(options);
  daemon.start();

  run_leg("robustness conversation", [&] {
    Client client(fx.socket_path);
    proof::Json response;

    // A line past the 1 MiB cap is answered with a structured error and
    // discarded; the connection must stay usable.
    client.send_line(std::string((1 << 20) + 64, 'x'));
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "error");
    EXPECT_EQ(response.find("code")->as_string(), "line_too_long");

    // Invalid UTF-8 never reaches the JSON parser.
    client.send_line("{\"op\": \"ping\xFF\xFE\"}");
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "error");
    EXPECT_EQ(response.find("code")->as_string(), "bad_utf8");

    client.send_line(control_request_line("stats"));
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "stats");
    ASSERT_NE(response.find("bad_requests"), nullptr);
    EXPECT_GE(response.find("bad_requests")->as_int(), 2);

    // The same connection still serves a real job afterwards.
    const SubmitResult result = submit_audit(client, fx.job());
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.signature, fx.direct_signature(fx.job()));
  });
  daemon.stop();
}

TEST(AuditDaemon, TcpRejectsBadLinesAndCountsThemOnce) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.jobs = 1;
  AuditDaemon daemon(options);
  daemon.start();  // also enables the global telemetry registry

  telemetry::Registry& registry = telemetry::Registry::global();
  const auto counter_of = [&registry](const char* name) {
    for (const auto& counter : registry.snapshot().counters) {
      if (counter.name == name) return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t rejected_before = counter_of("service.bad_request");

  run_leg("tcp robustness conversation", [&] {
    Client client(daemon.bound_endpoint());
    proof::Json response;

    // Oversized and non-UTF8 lines must draw the same structured errors
    // over TCP as over a Unix socket (the framing layer is shared, but a
    // TCP read can split the oversized line across many segments).
    client.send_line(std::string((1 << 20) + 64, 'x'));
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "error");
    EXPECT_EQ(response.find("code")->as_string(), "line_too_long");

    client.send_line("{\"op\": \"ping\xFF\xFE\"}");
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "error");
    EXPECT_EQ(response.find("code")->as_string(), "bad_utf8");

    // The stats reply identifies the process and carries a full registry
    // snapshot; its bad_requests tally and the service.bad_request counter
    // share one accounting path, so they must agree exactly.
    client.send_line(control_request_line("stats"));
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.find("type")->as_string(), "stats");
    ASSERT_NE(response.find("pid"), nullptr);
    EXPECT_EQ(response.find("pid")->as_int(),
              static_cast<std::int64_t>(::getpid()));
    ASSERT_NE(response.find("uptime_s"), nullptr);
    EXPECT_GE(response.find("uptime_s")->as_double(), 0.0);
    ASSERT_NE(response.find("bad_requests"), nullptr);
    EXPECT_EQ(response.find("bad_requests")->as_int(), 2);
    const proof::Json* snapshot = response.find("telemetry");
    ASSERT_NE(snapshot, nullptr);
    telemetry::Registry::Snapshot parsed;
    std::string error;
    ASSERT_TRUE(snapshot_from_json(*snapshot, parsed, &error)) << error;

    // The connection survived both rejections.
    const SubmitResult result = submit_audit(client, fx.job());
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.signature, fx.direct_signature(fx.job()));
  });
  const std::uint64_t rejected_after = counter_of("service.bad_request");
  EXPECT_EQ(rejected_after - rejected_before, 2u)
      << "each rejected line bumps service.bad_request exactly once";
  daemon.stop();
}

/// Upper bucket edge (µs) of the q-quantile sample: the log2 histogram
/// cannot say more precisely than "which bucket", which is exactly what
/// the merge must preserve.
std::uint64_t quantile_bucket_us(
    const telemetry::Registry::HistogramValue& hist, double q) {
  if (hist.count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(hist.count - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
    seen += hist.buckets[b];
    if (seen > rank) return std::uint64_t{1} << b;
  }
  return std::uint64_t{1} << (hist.buckets.size() - 1);
}

TEST(TelemetryWire, SnapshotRoundTripsThroughJsonText) {
  telemetry::Registry::Snapshot snapshot;
  snapshot.counters = {{"cache.hits", 7}, {"fleet.jobs", 0}};
  telemetry::Registry::HistogramValue hist;
  hist.name = "engine.solve";
  hist.count = 3;
  hist.sum_seconds = 0.75;
  hist.min_seconds = 0.001;
  hist.max_seconds = 0.5;
  hist.buckets[10] = 2;
  hist.buckets[19] = 1;
  snapshot.histograms = {hist};

  // Full wire cycle: object → text → object, as between two processes.
  proof::Json parsed;
  std::string error;
  ASSERT_TRUE(
      proof::Json::parse(snapshot_to_json(snapshot).dump(), parsed, &error))
      << error;
  telemetry::Registry::Snapshot back;
  ASSERT_TRUE(snapshot_from_json(parsed, back, &error)) << error;

  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].name, "cache.hits");
  EXPECT_EQ(back.counters[0].value, 7u);
  EXPECT_EQ(back.counters[1].name, "fleet.jobs");
  EXPECT_EQ(back.counters[1].value, 0u);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].name, "engine.solve");
  EXPECT_EQ(back.histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(back.histograms[0].sum_seconds, 0.75);
  EXPECT_DOUBLE_EQ(back.histograms[0].min_seconds, 0.001);
  EXPECT_DOUBLE_EQ(back.histograms[0].max_seconds, 0.5);
  EXPECT_EQ(back.histograms[0].buckets, hist.buckets);

  // Malformed documents are rejected, not half-parsed.
  proof::Json bad;
  ASSERT_TRUE(proof::Json::parse(
      R"({"counters": {}, "histograms": {"h": {"count": 1, "sum_s": 0.1,
          "min_s": 0.1, "max_s": 0.1, "buckets": [1, 2, 3]}}})",
      bad, &error))
      << error;
  telemetry::Registry::Snapshot rejected;
  EXPECT_FALSE(snapshot_from_json(bad, rejected, &error))
      << "a 3-bucket histogram must not pass for a 40-bucket one";
}

TEST(TelemetryWire, MergedQuantilesEqualQuantilesOfBucketWiseSum) {
  using Histogram = telemetry::Registry::HistogramValue;
  // Adversarial shapes: one worker's mass entirely sub-microsecond, one a
  // sparse spike at the top bucket, one bimodal, one empty. Any
  // approximate merge (sampling, dropping sparse tails, re-bucketing)
  // breaks the tail quantiles here.
  Histogram low;
  low.name = "engine.solve";
  low.count = 1000;
  low.sum_seconds = 0.001;
  low.min_seconds = 1e-7;
  low.max_seconds = 9e-7;
  low.buckets[0] = 1000;
  Histogram spike;
  spike.name = "engine.solve";
  spike.count = 5;
  spike.sum_seconds = 5000.0;
  spike.min_seconds = 900.0;
  spike.max_seconds = 1100.0;
  spike.buckets[30] = 5;
  Histogram bimodal;
  bimodal.name = "engine.solve";
  bimodal.count = 60;
  bimodal.sum_seconds = 2.0;
  bimodal.min_seconds = 5e-6;
  bimodal.max_seconds = 0.08;
  bimodal.buckets[3] = 30;
  bimodal.buckets[17] = 30;
  Histogram empty;
  empty.name = "engine.solve";

  telemetry::Registry::Snapshot merged;
  for (const Histogram& hist : {low, spike, bimodal, empty}) {
    telemetry::Registry::Snapshot worker;
    worker.histograms = {hist};
    merge_snapshot(merged, worker);
  }

  Histogram expected;
  expected.name = "engine.solve";
  for (const Histogram& hist : {low, spike, bimodal, empty}) {
    expected.count += hist.count;
    expected.sum_seconds += hist.sum_seconds;
    for (std::size_t b = 0; b < expected.buckets.size(); ++b) {
      expected.buckets[b] += hist.buckets[b];
    }
  }

  ASSERT_EQ(merged.histograms.size(), 1u);
  const Histogram& got = merged.histograms[0];
  EXPECT_EQ(got.count, expected.count);
  EXPECT_EQ(got.buckets, expected.buckets)
      << "the merge must be the exact bucket-wise sum";
  EXPECT_DOUBLE_EQ(got.sum_seconds, expected.sum_seconds);
  EXPECT_DOUBLE_EQ(got.min_seconds, 1e-7) << "min of populated histograms";
  EXPECT_DOUBLE_EQ(got.max_seconds, 1100.0) << "max of populated histograms";
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(quantile_bucket_us(got, q), quantile_bucket_us(expected, q))
        << "quantile q=" << q;
  }
  // Spot-check against hand-computed ranks: 1000 of 1065 samples are
  // sub-µs, so the median is bucket 0; the 99.9th percentile is the
  // 5-sample spike at bucket 30.
  EXPECT_EQ(quantile_bucket_us(got, 0.5), 1u);
  EXPECT_EQ(quantile_bucket_us(got, 0.999), std::uint64_t{1} << 30);
}

TEST(AuditDaemon, ClientShutdownOpStopsTheDaemon) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 1;
  AuditDaemon daemon(options);
  daemon.start();

  run_leg("shutdown op", [&] {
    std::thread waiter([&daemon] { daemon.wait(); });
    {
      Client client(fx.socket_path);
      client.send_line(control_request_line("shutdown"));
      proof::Json response;
      ASSERT_TRUE(client.read_response(response));
      EXPECT_EQ(response.find("type")->as_string(), "bye");
    }
    waiter.join();  // wait() returns once the shutdown op lands
  });
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST(AuditDaemon, StopWakesAnIdleConnection) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 1;
  AuditDaemon daemon(options);
  daemon.start();
  // An idle client blocked in the daemon's read() must not hang stop().
  Client client(fx.socket_path);
  run_leg("stop with idle connection", [&] { daemon.stop(); });
  EXPECT_FALSE(daemon.running());
}

TEST(AuditDaemon, ConcurrentConnectionsAllMatchTheDirectSignature) {
  ServiceFixture fx;
  cache::VerdictCache cache({fx.dir + "/cache", cache::CacheMode::kReadWrite,
                             /*max_bytes=*/0});
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 2;
  options.cache = &cache;
  AuditDaemon daemon(options);
  daemon.start();

  const AuditJob job = fx.job();
  const std::string expected = fx.direct_signature(job);
  constexpr int kClients = 4;
  std::vector<SubmitResult> results(kClients);
  run_leg("concurrent submits", [&] {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&fx, &job, &results, i] {
        Client client(fx.socket_path);
        results[i] = submit_audit(client, job);
      });
    }
    for (auto& t : threads) t.join();
  });
  daemon.stop();

  std::uint64_t computed = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.signature, expected);
    computed += result.computed;
  }
  // Identical concurrent jobs share engine runs (in-flight dedupe) or hit
  // the cache; each obligation is computed at most once.
  const std::uint64_t obligations = results[0].obligations;
  EXPECT_EQ(computed, obligations)
      << "in-flight dedupe must compute each obligation exactly once";
  EXPECT_EQ(daemon.jobs_completed(), static_cast<std::uint64_t>(kClients));
}

// ---- Prometheus exposition (the `metrics` verb's wire format) ------------

TEST(Exposition, RenderedDocumentParsesBackExactly) {
  telemetry::Registry registry;
  registry.set_enabled(true);
  registry.add(registry.counter("cache.hit"), 42);
  const telemetry::MetricId solve = registry.histogram("solve");
  registry.record_seconds(solve, 0.001);
  registry.record_seconds(solve, 0.004);

  const std::vector<ExtraCounter> extra = {{"service.jobs_completed", 7}};
  const std::vector<GaugeSample> gauges = {
      {"trojanscout_worker_up", 1.0, {{"worker", "w0"}}},
      {"trojanscout_worker_up", 0.0, {{"worker", "w1"}}},
      {"trojanscout_queue_depth", 3.0, {}},
  };
  const std::string text =
      to_prometheus_text(registry.snapshot(), extra, gauges);

  ParsedExposition parsed;
  std::string error;
  ASSERT_TRUE(parse_prometheus_text(text, parsed, &error)) << error;

  // Counters go through the sanitize/prefix/suffix mapping.
  EXPECT_EQ(parsed.counters.at("trojanscout_cache_hit_total"), 42u);
  EXPECT_EQ(parsed.counters.at("trojanscout_service_jobs_completed_total"),
            7u);

  // The parser keeps the first sample of a labelled gauge family and the
  // family only carries one TYPE line for both workers.
  EXPECT_EQ(parsed.gauges.at("trojanscout_worker_up"), 1.0);
  EXPECT_EQ(parsed.gauges.at("trojanscout_queue_depth"), 3.0);

  const auto& hist = parsed.histograms.at("trojanscout_solve_seconds");
  EXPECT_EQ(hist.count, 2u);
  EXPECT_NEAR(hist.sum_seconds, 0.005, 1e-9);
  ASSERT_FALSE(hist.buckets.empty());
  // Bucket bounds are strictly increasing and counts cumulative; the
  // closing bucket is +Inf and equals _count.
  for (std::size_t i = 1; i < hist.buckets.size(); ++i) {
    EXPECT_LT(hist.buckets[i - 1].first, hist.buckets[i].first);
    EXPECT_LE(hist.buckets[i - 1].second, hist.buckets[i].second);
  }
  EXPECT_TRUE(std::isinf(hist.buckets.back().first));
  EXPECT_EQ(hist.buckets.back().second, hist.count);

  // Determinism: the identical snapshot renders byte-identically.
  EXPECT_EQ(text, to_prometheus_text(registry.snapshot(), extra, gauges));
}

TEST(Exposition, ParserRejectsMalformedDocuments) {
  const auto rejects = [](const std::string& text) {
    ParsedExposition parsed;
    std::string error;
    const bool ok = parse_prometheus_text(text, parsed, &error);
    EXPECT_FALSE(ok) << "accepted:\n" << text;
    if (!ok) EXPECT_FALSE(error.empty());
    return !ok;
  };

  // Sample before its TYPE line.
  EXPECT_TRUE(rejects("trojanscout_x_total 1\n"));
  // Duplicate TYPE for the same family.
  EXPECT_TRUE(
      rejects("# TYPE trojanscout_x_total counter\n"
              "trojanscout_x_total 1\n"
              "# TYPE trojanscout_x_total counter\n"
              "trojanscout_x_total 2\n"));
  // Histogram buckets must be cumulative.
  EXPECT_TRUE(
      rejects("# TYPE trojanscout_h_seconds histogram\n"
              "trojanscout_h_seconds_bucket{le=\"0.001\"} 5\n"
              "trojanscout_h_seconds_bucket{le=\"0.002\"} 3\n"
              "trojanscout_h_seconds_bucket{le=\"+Inf\"} 5\n"
              "trojanscout_h_seconds_sum 0.01\n"
              "trojanscout_h_seconds_count 5\n"));
  // The +Inf bucket must equal _count.
  EXPECT_TRUE(
      rejects("# TYPE trojanscout_h_seconds histogram\n"
              "trojanscout_h_seconds_bucket{le=\"0.001\"} 4\n"
              "trojanscout_h_seconds_bucket{le=\"+Inf\"} 4\n"
              "trojanscout_h_seconds_sum 0.01\n"
              "trojanscout_h_seconds_count 5\n"));
}

TEST(TelemetryWire, MergeSnapshotEdgeCases) {
  telemetry::Registry empty_a;
  telemetry::Registry empty_b;
  empty_a.set_enabled(true);
  empty_b.set_enabled(true);

  // empty + empty stays empty.
  telemetry::Registry::Snapshot into = empty_a.snapshot();
  merge_snapshot(into, empty_b.snapshot());
  EXPECT_TRUE(into.counters.empty());
  EXPECT_TRUE(into.histograms.empty());

  // Merging into an empty snapshot copies the source exactly.
  telemetry::Registry source;
  source.set_enabled(true);
  source.add(source.counter("x"), 3);
  source.record_seconds(source.histogram("h"), 0.002);
  merge_snapshot(into, source.snapshot());
  ASSERT_EQ(into.counters.size(), 1u);
  EXPECT_EQ(into.counters[0].name, "x");
  EXPECT_EQ(into.counters[0].value, 3u);
  ASSERT_EQ(into.histograms.size(), 1u);
  EXPECT_EQ(into.histograms[0].count, 1u);

  // Disjoint names interleave sorted; shared names sum.
  telemetry::Registry other;
  other.set_enabled(true);
  other.add(other.counter("w"), 1);
  other.add(other.counter("x"), 2);
  other.record_seconds(other.histogram("h"), 0.008);
  merge_snapshot(into, other.snapshot());
  ASSERT_EQ(into.counters.size(), 2u);
  EXPECT_EQ(into.counters[0].name, "w");
  EXPECT_EQ(into.counters[0].value, 1u);
  EXPECT_EQ(into.counters[1].name, "x");
  EXPECT_EQ(into.counters[1].value, 5u);
  ASSERT_EQ(into.histograms.size(), 1u);
  EXPECT_EQ(into.histograms[0].count, 2u);
  EXPECT_NEAR(into.histograms[0].sum_seconds, 0.010, 1e-9);
  EXPECT_NEAR(into.histograms[0].min_seconds, 0.002, 1e-9);
  EXPECT_NEAR(into.histograms[0].max_seconds, 0.008, 1e-9);
}

/// Decodes a span-records document given as JSON text.
bool decode_spans(const std::string& text,
                  std::vector<telemetry::TraceEvent>& out,
                  std::string* error) {
  proof::Json json;
  if (!proof::Json::parse(text, json, error)) return false;
  return trace_events_from_json(json, out, error);
}

TEST(TelemetryWire, TraceEventArgsRoundTripThroughJsonText) {
  const std::vector<telemetry::TraceEvent> events = {
      {true, "bmc:frame", 7, 3, 2, 100, {}},
      {false, "bmc:frame", 7, 0, 2, 180,
       {{"frame", 0}, {"decisions", 25}, {"propagations", 178},
        {"conflicts", 3}, {"restarts", 0}}},
  };
  const proof::Json json = trace_events_to_json(events);
  ASSERT_EQ(json.items().size(), 2u);
  EXPECT_EQ(json.items()[0].items().size(), 6u) << "no args, no 7th column";
  EXPECT_EQ(json.items()[1].items().size(), 7u);

  std::vector<telemetry::TraceEvent> decoded;
  std::string error;
  ASSERT_TRUE(decode_spans(json.dump(), decoded, &error)) << error;
  ASSERT_EQ(decoded.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].begin, events[i].begin);
    EXPECT_EQ(decoded[i].name, events[i].name);
    EXPECT_EQ(decoded[i].span_id, events[i].span_id);
    EXPECT_EQ(decoded[i].parent_id, events[i].parent_id);
    EXPECT_EQ(decoded[i].tid, events[i].tid);
    EXPECT_EQ(decoded[i].ts_us, events[i].ts_us);
    EXPECT_EQ(decoded[i].args, events[i].args);
  }
}

TEST(TelemetryWire, TraceEventsAcceptSixColumnRows) {
  std::vector<telemetry::TraceEvent> decoded;
  std::string error;
  ASSERT_TRUE(decode_spans(R"([[1,"obligation:p",5,0,1,10],)"
                           R"([0,"obligation:p",5,0,1,20]])",
                           decoded, &error))
      << error;
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0].args.empty());
  EXPECT_TRUE(decoded[1].args.empty());
}

TEST(TelemetryWire, TraceEventsRejectMalformedArgs) {
  // Span records arrive from another process: any malformed args column
  // fails the whole batch.
  const std::vector<std::pair<const char*, std::string>> bad = {
      {"args not an object", R"([[0,"bmc:frame",5,0,1,20,[1,2]]])"},
      {"args a number", R"([[0,"bmc:frame",5,0,1,20,7]])"},
      {"non-integer value", R"([[0,"bmc:frame",5,0,1,20,{"frame":1.5}]])"},
      {"string value", R"([[0,"bmc:frame",5,0,1,20,{"frame":"1"}]])"},
      {"negative value", R"([[0,"bmc:frame",5,0,1,20,{"conflicts":-3}]])"},
      {"reserved key", R"([[0,"bmc:frame",5,0,1,20,{"span_id":9}]])"},
      {"8 columns", R"([[0,"bmc:frame",5,0,1,20,{"frame":1},{}]])"},
  };
  for (const auto& [label, text] : bad) {
    std::vector<telemetry::TraceEvent> decoded;
    std::string error;
    EXPECT_FALSE(decode_spans(text, decoded, &error)) << label;
    EXPECT_FALSE(error.empty()) << label;
  }
}

TEST(AuditDaemon, MetricsVerbRendersExpositionConsistentWithStats) {
  ServiceFixture fx;
  AuditDaemon::Options options;
  options.endpoint = fx.socket_path;
  options.jobs = 2;
  options.sample_interval_ms = 25;
  AuditDaemon daemon(options);
  daemon.start();

  proof::Json stats;
  proof::Json metrics;
  run_leg("submit + stats + metrics conversation", [&] {
    Client client(fx.socket_path);
    const SubmitResult result = submit_audit(client, fx.job());
    ASSERT_TRUE(result.ok) << result.error;

    client.send_line(control_request_line("stats"));
    ASSERT_TRUE(client.read_response(stats));
    client.send_line(control_request_line("metrics"));
    ASSERT_TRUE(client.read_response(metrics));
  });
  daemon.stop();

  ASSERT_EQ(stats.find("type")->as_string(), "stats");
  ASSERT_EQ(metrics.find("type")->as_string(), "metrics");
  EXPECT_EQ(metrics.find("content_type")->as_string(),
            "text/plain; version=0.0.4");

  ParsedExposition parsed;
  std::string error;
  ASSERT_NE(metrics.find("body"), nullptr);
  ASSERT_TRUE(parse_prometheus_text(metrics.find("body")->as_string(), parsed,
                                    &error))
      << error;

  // Daemon-level extra counters agree with the stats reply.
  const auto jobs = static_cast<std::uint64_t>(
      stats.find("jobs_completed")->as_int());
  EXPECT_EQ(jobs, 1u);
  EXPECT_EQ(parsed.counters.at("trojanscout_service_jobs_completed_total"),
            jobs);

  // Registry counters agree: both replies read the same (idle) registry.
  telemetry::Registry::Snapshot snapshot;
  ASSERT_NE(stats.find("telemetry"), nullptr);
  ASSERT_TRUE(snapshot_from_json(*stats.find("telemetry"), snapshot, &error))
      << error;
  for (const auto& counter : snapshot.counters) {
    if (counter.name != "engine.runs") continue;
    EXPECT_EQ(parsed.counters.at("trojanscout_engine_runs_total"),
              counter.value);
  }

  // Liveness gauges.
  EXPECT_EQ(parsed.gauges.at("trojanscout_up"), 1.0);
  EXPECT_GE(parsed.gauges.at("trojanscout_uptime_seconds"), 0.0);
  // The last obligation's pool task may still be retiring when the job
  // reply lands, so the depth is 0 or a small residue — never negative.
  EXPECT_GE(parsed.gauges.at("trojanscout_queue_depth"), 0.0);
  EXPECT_LE(parsed.gauges.at("trojanscout_queue_depth"), 2.0);
  EXPECT_GE(parsed.gauges.at("trojanscout_sampler_last_sample_age_seconds"),
            0.0);

  // The background sampler ran: uptime_ms + sampler block + series array.
  ASSERT_NE(stats.find("uptime_ms"), nullptr);
  const proof::Json* sampler = stats.find("sampler");
  ASSERT_NE(sampler, nullptr);
  EXPECT_TRUE(sampler->find("enabled")->as_bool());
  EXPECT_EQ(sampler->find("interval_ms")->as_double(), 25.0);
  EXPECT_GE(sampler->find("samples")->as_int(), 1);
  const proof::Json* series = stats.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->is_array());
}

}  // namespace
}  // namespace trojanscout::service
