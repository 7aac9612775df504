// Load generator for the audit service tier: many concurrent submit
// clients against an in-process AuditDaemon on a TCP endpoint, reporting
// audits/sec and per-submit latency quantiles.
//
// Three phases per repeat (fresh daemon + cold cache each repeat):
//   cold   one submit with an empty cache — every obligation runs an
//          engine (the compute floor);
//   warm   --clients concurrent connections each submitting --per-client
//          identical jobs — every obligation answers from the verdict
//          cache, measuring pure service overhead (framing, dedupe,
//          merge, streaming);
//   mixed  same fleet of clients, but one submits cold jobs (a unique
//          frames bound per job forces fresh cache keys) while the rest
//          stay warm — warm quantiles under compute pressure.
//
// The BENCH_service_throughput.json artifact records latency cases
// (median seconds, lower-is-better) so tools/bench_compare.py can gate
// regressions against bench/baselines/.
//
//   --clients=N      concurrent submit connections (default 8)
//   --per-client=N   submits per client per phase (default 8)
//   --frames=N       unroll bound of the shared warm job (default 8)
//   --budget=S       per-obligation engine budget (default 60)
//   --spec=FILE      valid-ways spec (default specs/mc8051_sp.spec)
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/verdict_cache.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "util/stopwatch.hpp"
#include "verilog/writer.hpp"

namespace trojanscout {
namespace {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct PhaseStats {
  std::vector<double> latencies;
  double elapsed_seconds = 0;
  std::size_t submits = 0;
  std::size_t failures = 0;
};

}  // namespace

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kSinkFlags,
                          {"clients", "per-client", "repeats", "spec",
                           "frames", "budget"})) {
    return 1;
  }
  bench::MetricsSink sink(cli, "service_throughput");
  const std::size_t clients =
      static_cast<std::size_t>(cli.get_int("clients", 8));
  const std::size_t per_client =
      static_cast<std::size_t>(cli.get_int("per-client", 8));
  const std::size_t repeats =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cli.get_int("repeats", 1)));

  char tmpl[] = "/tmp/ts_bench_svc_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::cerr << "mkdtemp failed\n";
    return 1;
  }
  const std::string dir = tmpl;

  service::AuditJob job;
  job.design_path = dir + "/ip.v";
  job.spec_path = cli.get_string("spec", "specs/mc8051_sp.spec");
  job.frames = static_cast<std::size_t>(cli.get_int("frames", 8));
  job.budget = cli.get_double("budget", 60.0);
  {
    const designs::Design design = designs::build_clean("mc8051");
    std::ofstream os(job.design_path);
    verilog::write_verilog(os, design.nl, design.name);
  }
  if (!std::ifstream(job.spec_path)) {
    std::cerr << "cannot open spec " << job.spec_path
              << " (run from the repo root or pass --spec)\n";
    return 1;
  }

  const auto run_phase = [&](const std::string& endpoint, bool mixed) {
    PhaseStats stats;
    std::mutex mutex;
    std::vector<std::thread> threads;
    util::Stopwatch phase_timer;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> local;
        std::size_t failures = 0;
        for (std::size_t i = 0; i < per_client; ++i) {
          service::AuditJob submit = job;
          submit.id = "c" + std::to_string(c) + "-" + std::to_string(i);
          // The mixed stream's client 0 forces cache misses: a unique
          // frames bound per submit yields a fresh set of cache keys.
          const bool cold = mixed && c == 0;
          if (cold) submit.frames = job.frames + 8 + i;
          util::Stopwatch timer;
          service::Client client(endpoint);
          const service::SubmitResult result =
              service::submit_audit(client, submit);
          const double seconds = timer.elapsed_seconds();
          if (!result.ok) {
            failures++;
            continue;
          }
          if (!cold) local.push_back(seconds);  // quantiles track warm only
        }
        std::lock_guard<std::mutex> lock(mutex);
        stats.latencies.insert(stats.latencies.end(), local.begin(),
                               local.end());
        stats.submits += per_client;
        stats.failures += failures;
      });
    }
    for (std::thread& thread : threads) thread.join();
    stats.elapsed_seconds = phase_timer.elapsed_seconds();
    return stats;
  };

  util::Table table({"Phase", "Submits", "Audits/s", "p50 (s)", "p99 (s)",
                     "Mean (s)"});
  bool failed = false;
  for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
    // Fresh daemon + cold cache per repeat so the cold case stays cold.
    const std::string cache_dir =
        dir + "/cache-" + std::to_string(repeat);
    cache::VerdictCache::Options cache_options;
    cache_options.dir = cache_dir;
    cache_options.mode = cache::CacheMode::kReadWrite;
    cache::VerdictCache verdict_cache(cache_options);

    service::AuditDaemon::Options options;
    options.endpoint = "tcp:127.0.0.1:0";
    options.cache = &verdict_cache;
    service::AuditDaemon daemon(options);
    daemon.start();
    const std::string endpoint = daemon.bound_endpoint();

    {
      service::AuditJob cold = job;
      cold.id = "cold";
      util::Stopwatch timer;
      service::Client client(endpoint);
      const service::SubmitResult result =
          service::submit_audit(client, cold);
      const double seconds = timer.elapsed_seconds();
      if (!result.ok) {
        std::cerr << "cold submit failed: " << result.error << "\n";
        failed = true;
      }
      sink.bench().add_sample("cold/audit", seconds);
      if (repeat == 0) {
        table.add_row({"cold", "1", "-", "-", "-",
                       std::to_string(seconds)});
      }
    }

    const PhaseStats warm = run_phase(endpoint, /*mixed=*/false);
    const PhaseStats mixed = run_phase(endpoint, /*mixed=*/true);
    daemon.stop();

    for (const auto& [name, stats] :
         {std::pair<const char*, const PhaseStats&>{"warm", warm},
          {"mixed", mixed}}) {
      failed = failed || stats.failures > 0;
      sink.bench().add_sample(std::string(name) + "/p50",
                              quantile(stats.latencies, 0.5));
      sink.bench().add_sample(std::string(name) + "/p99",
                              quantile(stats.latencies, 0.99));
      sink.bench().add_sample(std::string(name) + "/mean",
                              mean(stats.latencies));
      if (repeat == 0) {
        const double rate =
            stats.elapsed_seconds > 0
                ? static_cast<double>(stats.submits) / stats.elapsed_seconds
                : 0;
        table.add_row({name, std::to_string(stats.submits),
                       std::to_string(rate),
                       std::to_string(quantile(stats.latencies, 0.5)),
                       std::to_string(quantile(stats.latencies, 0.99)),
                       std::to_string(mean(stats.latencies))});
      }
    }
  }

  std::cout << "=== Audit service throughput (" << clients << " clients x "
            << per_client << " submits, TCP loopback) ===\n\n";
  table.print(std::cout);
  std::cout << "\nWarm latency is pure service overhead (connect, framing, "
               "in-flight dedupe, cache lookups, merge, streaming); the "
               "mixed phase holds one cold client against the warm fleet.\n";

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (failed) {
    std::cerr << "FAIL: at least one submit did not produce a report\n";
    return 1;
  }
  return sink.flush() ? 0 : 1;
}

}  // namespace trojanscout

int main(int argc, char** argv) { return trojanscout::run(argc, argv); }
