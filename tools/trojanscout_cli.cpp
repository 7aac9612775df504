// trojanscout command-line tool: audit a structural-Verilog 3PIP against a
// valid-ways spec file without writing any C++.
//
//   trojanscout_cli info  --design ip.v
//   trojanscout_cli check --design ip.v --spec ip.spec --register cfg
//                         [--engine ENGINE] [--frames N] [--budget S]
//                         [--minimize] [--vcd out.vcd]
//   trojanscout_cli audit --design ip.v --spec ip.spec
//                         [--jobs N] [--fail-fast] [--engine ENGINE]
//                         [--frames N] [--budget S] [--no-scan] [--no-bypass]
//                         [--trace-out trace.json] [--metrics-out run.jsonl]
//                         [--profile-out profile.json] [--progress[=SECS]]
//                         [--stall-window SECS] [--flight-out flight.json]
//   trojanscout_cli prove --design ip.v --spec ip.spec --register cfg
//                         [--max-k K]
//   trojanscout_cli gen   --family mc8051|risc|aes [--trojan NAME]
//                         [--out design.v]
//   trojanscout_cli certify    --design ip.v --spec ip.spec --out cert.json
//                              [--jobs N] [--engine ENGINE] [--frames N]
//                              [--budget S] [--no-scan] [--no-bypass]
//                              [--pretty]
//   trojanscout_cli check-cert --cert cert.json --design ip.v --spec ip.spec
//   trojanscout_cli fuzz  [--seed N] [--count N] [--design FAMILY|all]
//                         [--engine ENGINE] [--jobs N] [--frames-slack N]
//                         [--frames-cap N] [--budget S] [--max-seq N]
//                         [--no-clean] [--no-differential] [--cache-dir DIR]
//                         [--out corpus.json] [--no-timing]
//                         [--signature-out FILE] [--min-rate R] [--shrink]
//                         [--inject-failure SUBSTR] [--quiet]
//   trojanscout_cli serve  --socket ENDPOINT [--cache-dir DIR]
//                          [--cache off|ro|rw] [--cache-max-mb N] [--jobs N]
//                          [--l2-dir DIR] [--l2-max-mb N] [--read-timeout S]
//                          [--port-file FILE] [--events-out e.jsonl]
//                          [--events-max-mb N] [--sample-interval-ms MS]
//   trojanscout_cli serve-fleet --socket ENDPOINT
//                          (--workers EP1,EP2,... | --spawn N)
//                          [--l2-dir DIR] [--l2-max-mb N] [--queue-cap N]
//                          [--retry-after-ms N] [--worker-jobs N]
//                          [--run-dir DIR] [--port-file FILE]
//                          [--health-interval S] [--worker-timeout S]
//                          [--trace-out t.json] [--events-out e.jsonl]
//                          [--events-max-mb N] [--sample-interval-ms MS]
//                          [--slo-ms N] [--slo-obligation-ms N]
//   trojanscout_cli submit --socket ENDPOINT --design ip.v --spec ip.spec
//                          [--engine ENGINE] [--frames N] [--budget S]
//                          [--no-scan] [--no-bypass] [--id NAME]
//                          [--connect-retries N] [--overload-retries N]
//                          [--signature-out FILE] [--quiet]
//   trojanscout_cli submit --socket ENDPOINT --stats [--json]
//   trojanscout_cli submit --socket ENDPOINT --metrics [--out FILE]
//   trojanscout_cli top    --socket ENDPOINT [--interval-ms MS]
//                          [--once] [--polls N] [--json]
//
// `audit` runs the paper's full Algorithm 1 over every register with a spec
// block, scheduling the independent property checks across --jobs worker
// threads (default: all hardware threads). Without --fail-fast the report
// is deterministic — identical for any jobs value. With --cache-dir,
// per-obligation verdicts persist to a content-addressed store and warm
// re-audits of unchanged designs skip the engines entirely.
//
// `fuzz` sweeps a seeded Trojan mutation corpus over the catalog's clean
// cores and cross-checks the detector against three oracles (clean designs
// all-pass, simulator-shown Trojans flagged with replay-confirmed
// witnesses, cold/warm x jobs determinism), emitting a
// `trojanscout-corpus-v1` artifact with detection rate and latency
// quantiles. --shrink minimizes the first failing variant.
//
// `serve` runs the same audits as a daemon: newline-delimited JSON jobs
// arrive over a Unix-domain or TCP socket (ENDPOINT is "unix:/path", a
// bare path, or "tcp:host:port"; port 0 picks an ephemeral port reported
// via --port-file), identical in-flight obligations are deduped across
// concurrent jobs, and every reported DetectionReport signature is
// byte-identical to a direct `audit` with the same flags. --l2-dir points
// several daemons at one shared verdict store with claim-based
// fleet-wide dedupe. `submit` is the matching client.
//
// `serve-fleet` runs the shard coordinator: it speaks the same protocol
// as `serve` but fans each job's obligations out to worker daemons by
// consistent hash of the verdict-cache key, re-shards on worker death,
// and refuses jobs that would overrun a worker queue with a retry-after
// response. --spawn N forks N `serve` workers on ephemeral TCP ports
// (sharing --l2-dir) and tears them down on exit; --workers attaches to
// externally managed daemons.
//
// Observability plane: --trace-out on serve-fleet stitches the workers'
// span records into one Perfetto-loadable Chrome trace (ids, tids and
// clocks rebased into the coordinator's namespace); --events-out on
// serve/serve-fleet appends a `trojanscout-events-v1` JSONL stream of
// operational events (worker eviction, re-shards, retry-after refusals,
// claim steals, corrupt-entry skips, SLO breaches) — --events-max-mb
// rotates the stream to FILE.1 when it grows past the cap, and with
// --spawn, each worker also gets its own workerN.events.jsonl under the
// run dir. `submit --stats` queries a daemon or coordinator; against a
// coordinator the reply merges every worker's telemetry registry exactly
// (counters summed, histogram buckets added) and carries the
// slowest-obligations table.
//
// Continuous monitoring (PR 9): serve and serve-fleet run a background
// sampler (--sample-interval-ms, 0 disables) that snapshots the counter
// registry into a bounded in-memory time series — counters become
// rate-over-window, timers become per-window p50/p90/p99 — carried in
// every stats reply under "series". `submit --metrics` scrapes the same
// state as Prometheus text exposition (the coordinator's scrape fans out
// to every live worker and merges before rendering); `top` polls stats
// into a live refreshing dashboard (per-worker throughput, cache hit
// rate, queue depth, sparkline rate history, slowest obligations).
// --slo-ms / --slo-obligation-ms arm deadline tracking on the
// coordinator: breaches tick slo.* burn-rate counters and emit
// `slo_breach` event records. `audit --flight-out` dumps the engines'
// per-frame flight recorder (solver/search counter deltas + frame wall
// time) as a `trojanscout-flight-v1` document.
//
// `certify` is `audit` with evidence: every violated property carries its
// witness, every BMC-clean frame carries a binary-DRAT proof, bundled into
// a deterministic JSON certificate (byte-identical for any --jobs value).
// `check-cert` re-validates a certificate offline against the design:
// witnesses are replayed on the simulator, DRAT proofs are checked against
// independently re-derived CNF, and the report signature is recomputed.
//
// Exit codes: 0 = clean / generated / certificate valid, 2 = Trojan found,
// 1 = usage / error / certificate rejected.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bmc/bmc.hpp"
#include "cache/verdict_cache.hpp"
#include "cache/verdict_codec.hpp"
#include "core/detector.hpp"
#include "core/minimize.hpp"
#include "core/parallel_detector.hpp"
#include "core/telemetry_sink.hpp"
#include "designs/catalog.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/mutation.hpp"
#include "proof/certificate.hpp"
#include "properties/monitors.hpp"
#include "fleet/coordinator.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "sim/vcd.hpp"
#include "specdsl/specdsl.hpp"
#include "telemetry/events.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/span.hpp"
#include "util/cli.hpp"
#include "util/resource.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "verilog/reader.hpp"
#include "verilog/writer.hpp"

using namespace trojanscout;

namespace {

#ifndef TROJANSCOUT_GIT_REV
#define TROJANSCOUT_GIT_REV "unknown"
#endif

int usage() {
  std::cerr
      << "usage: trojanscout_cli <subcommand> [flags]\n"
         "\n"
         "  info       --design ip.v\n"
         "               print gate/port/register structure\n"
         "  check      --design ip.v --spec ip.spec --register REG\n"
         "               [--engine ENGINE] [--frames N] [--budget S]\n"
         "               [--minimize] [--vcd out.vcd]\n"
         "               check one register's corruption property\n"
         "  audit      --design ip.v --spec ip.spec\n"
         "               [--jobs N] [--fail-fast] [--engine ENGINE]\n"
         "               [--frames N] [--budget S] [--no-scan] [--no-bypass]\n"
         "               [--cache-dir DIR] [--cache off|ro|rw]\n"
         "               [--cache-max-mb N] [--signature-out FILE]\n"
         "               [--trace-out t.json] [--metrics-out run.jsonl]\n"
         "               [--profile-out p.json] [--progress[=SECS]]\n"
         "               [--stall-window SECS] [--flight-out f.json]\n"
         "               run Algorithm 1 over every spec'd register\n"
         "  prove      --design ip.v --spec ip.spec --register REG\n"
         "               [--max-k K] [--budget S]\n"
         "               unbounded proof by k-induction\n"
         "  gen        --family mc8051|risc|aes [--trojan NAME]\n"
         "               [--out design.v]\n"
         "               emit a benchmark design as structural Verilog\n"
         "  certify    --design ip.v --spec ip.spec --out cert.json\n"
         "               [--jobs N] [--engine ENGINE] [--frames N]\n"
         "               [--budget S] [--no-scan] [--no-bypass] [--pretty]\n"
         "               [--cache-dir DIR] [--cache off|ro|rw]\n"
         "               [--cache-max-mb N]\n"
         "               audit with witness + DRAT evidence bundled\n"
         "  check-cert --cert cert.json --design ip.v --spec ip.spec\n"
         "               re-validate a certificate offline\n"
         "  fuzz       [--seed N] [--count N] [--design FAMILY|all]\n"
         "               [--engine ENGINE] [--jobs N] [--frames-slack N]\n"
         "               [--frames-cap N] [--budget S] [--max-seq N]\n"
         "               [--no-clean] [--no-differential] [--cache-dir DIR]\n"
         "               [--out corpus.json] [--no-timing]\n"
         "               [--signature-out FILE] [--min-rate R] [--shrink]\n"
         "               [--inject-failure SUBSTR] [--quiet]\n"
         "               differential detection sweep over a seeded\n"
         "               Trojan mutation corpus\n"
         "  serve      --socket ENDPOINT [--cache-dir DIR]\n"
         "               [--cache off|ro|rw] [--cache-max-mb N] [--jobs N]\n"
         "               [--l2-dir DIR] [--l2-max-mb N] [--read-timeout S]\n"
         "               [--port-file FILE] [--events-out e.jsonl]\n"
         "               [--events-max-mb N] [--sample-interval-ms MS]\n"
         "               audit daemon (NDJSON over unix:/path or\n"
         "               tcp:host:port; port 0 = ephemeral)\n"
         "  serve-fleet --socket ENDPOINT\n"
         "               (--workers EP1,EP2,... | --spawn N)\n"
         "               [--l2-dir DIR] [--l2-max-mb N] [--queue-cap N]\n"
         "               [--retry-after-ms N] [--worker-jobs N]\n"
         "               [--run-dir DIR] [--port-file FILE]\n"
         "               [--health-interval S] [--worker-timeout S]\n"
         "               [--trace-out t.json] [--events-out e.jsonl]\n"
         "               [--events-max-mb N] [--sample-interval-ms MS]\n"
         "               [--slo-ms N] [--slo-obligation-ms N]\n"
         "               shard coordinator over N worker daemons\n"
         "  submit     --socket ENDPOINT --design ip.v --spec ip.spec\n"
         "               [--engine ENGINE] [--frames N] [--budget S]\n"
         "               [--no-scan] [--no-bypass] [--id NAME]\n"
         "               [--connect-retries N] [--overload-retries N]\n"
         "               [--signature-out FILE] [--quiet]\n"
         "               send one audit job to a daemon or fleet\n"
         "  submit     --socket ENDPOINT --stats [--json]\n"
         "               query daemon/fleet stats (merged telemetry,\n"
         "               per-worker breakdown, slowest obligations)\n"
         "  submit     --socket ENDPOINT --metrics [--out FILE]\n"
         "               scrape Prometheus text exposition (a fleet\n"
         "               scrape merges every live worker's registry)\n"
         "  top        --socket ENDPOINT [--interval-ms MS]\n"
         "               [--once] [--polls N] [--json]\n"
         "               live dashboard: throughput sparklines, cache\n"
         "               hit rate, queue depth, per-worker rates\n"
         "\n"
         "  --version  print the build's git revision\n"
         "\n"
         "engines (every ENGINE above accepts the same four values):\n"
         "  bmc        SAT-based bounded model checking; DRAT proofs per\n"
         "             clean frame (default)\n"
         "  atpg       sequential justification search with SCOAP guidance;\n"
         "             fast counterexamples, no clean-frame proofs\n"
         "  pdr        IC3/PDR: unbounded proofs by inductive invariant, or\n"
         "             counterexamples at any depth\n"
         "  portfolio  race bmc, atpg, and pdr concurrently; the strongest\n"
         "             verdict wins (ties break bmc > atpg > pdr) and the\n"
         "             losers are cancelled\n"
         "\n"
         "exit codes: 0 = clean/ok, 2 = Trojan found, 1 = usage/error\n";
  return 1;
}

/// Shared --engine parser: all twelve subcommands accept the same values.
core::EngineKind parse_engine_flag(const util::CliParser& cli) {
  const std::string name = cli.get_string("engine", "bmc");
  const std::optional<core::EngineKind> kind =
      core::engine_kind_from_string(name);
  if (!kind.has_value()) {
    throw std::runtime_error("unknown --engine '" + name +
                             "' (expected bmc | atpg | pdr | portfolio)");
  }
  return *kind;
}

/// Opens the verdict cache requested by --cache-dir / --cache /
/// --cache-max-mb; null when caching is off (no directory, or --cache=off).
std::unique_ptr<cache::VerdictCache> open_cache(const util::CliParser& cli) {
  const std::string dir = cli.get_string("cache-dir", "");
  if (dir.empty()) {
    if (cli.has("cache")) {
      throw std::runtime_error("--cache needs --cache-dir");
    }
    return nullptr;
  }
  cache::VerdictCache::Options options;
  options.dir = dir;
  const std::string mode = cli.get_string("cache", "rw");
  if (!cache::cache_mode_from_name(mode, options.mode)) {
    throw std::runtime_error("--cache must be off, ro, or rw (got '" + mode +
                             "')");
  }
  if (options.mode == cache::CacheMode::kOff) return nullptr;
  const long max_mb = cli.get_int("cache-max-mb", 256);
  options.max_bytes = max_mb <= 0
                          ? 0
                          : static_cast<std::uint64_t>(max_mb) * 1024 * 1024;
  return std::make_unique<cache::VerdictCache>(std::move(options));
}

void print_cache_summary(const cache::VerdictCache& vc) {
  const cache::CacheStats s = vc.stats();
  std::cout << "cache (" << cache_mode_name(vc.mode()) << " " << vc.dir()
            << "): " << s.hits << " hits, " << s.misses << " misses, "
            << s.stores << " stores, " << s.evictions << " evictions";
  if (s.corrupt_skipped > 0) {
    std::cout << ", " << s.corrupt_skipped << " corrupt skipped";
  }
  std::cout << "; " << vc.entry_count() << " entries, " << vc.total_bytes()
            << " bytes\n";
}

void write_signature(const std::string& path,
                     const core::DetectionReport& report) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << report.signature();
  std::cout << "signature written to " << path << "\n";
}

/// Serializes every run's flight-recorder windows (--flight-out) as one
/// `trojanscout-flight-v1` document: per obligation, the engine's
/// per-frame counter deltas (solver decisions/propagations/conflicts/
/// restarts for BMC, decisions/backtracks/implications for ATPG) plus the
/// frame's wall time. wall_us is the documented timing carve-out — it is
/// observational and never flows into cached verdicts or run reports.
void write_flight(const std::string& path, const std::string& design_name,
                  const std::string& engine,
                  const core::DetectionReport& report) {
  if (path.empty()) return;
  proof::Json doc = proof::Json::object();
  doc.set("schema", "trojanscout-flight-v1");
  doc.set("design", design_name);
  doc.set("engine", engine);
  proof::Json runs = proof::Json::array();
  std::size_t windows_total = 0;
  for (const core::PropertyRun& run : report.runs) {
    proof::Json r = proof::Json::object();
    r.set("property", run.property);
    r.set("status", run.check.status);
    proof::Json windows = proof::Json::array();
    for (const telemetry::FlightWindow& w : run.check.counters.flight) {
      proof::Json jw = proof::Json::object();
      jw.set("frame", w.frame);
      jw.set("decisions", w.decisions);
      jw.set("propagations", w.propagations);
      jw.set("conflicts", w.conflicts);
      jw.set("restarts", w.restarts);
      jw.set("backtracks", w.backtracks);
      jw.set("implications", w.implications);
      jw.set("wall_us", w.wall_us);
      windows.push_back(std::move(jw));
      windows_total++;
    }
    r.set("windows", std::move(windows));
    runs.push_back(std::move(r));
  }
  doc.set("runs", std::move(runs));
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << doc.dump_pretty() << "\n";
  std::cout << "flight record written to " << path << " ("
            << report.runs.size() << " runs, " << windows_total
            << " windows)\n";
}

netlist::Netlist load_design(const util::CliParser& cli) {
  const std::string path = cli.get_string("design", "");
  if (path.empty()) throw std::runtime_error("--design is required");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  netlist::Netlist nl = verilog::read_verilog(in);
  nl.validate();
  return nl;
}

int cmd_info(const util::CliParser& cli) {
  const netlist::Netlist nl = load_design(cli);
  std::cout << "gates: " << nl.size() << "\nflip-flops: " << nl.dffs().size()
            << "\ninput ports:";
  for (const auto& p : nl.input_ports()) {
    std::cout << " " << p.name << "[" << p.bits.size() << "]";
  }
  std::cout << "\noutput ports:";
  for (const auto& p : nl.output_ports()) {
    std::cout << " " << p.name << "[" << p.bits.size() << "]";
  }
  std::cout << "\nregisters:";
  for (const auto& r : nl.registers()) {
    std::cout << " " << r.name << "[" << r.dffs.size() << "]";
  }
  std::cout << "\n";
  return 0;
}

int cmd_check(const util::CliParser& cli) {
  designs::Design design;
  design.name = cli.get_string("design", "design");
  design.nl = load_design(cli);
  design.spec =
      specdsl::load_spec_file(design.nl, cli.get_string("spec", ""));

  const std::string reg = cli.get_string("register", "");
  const auto* reg_spec = design.spec.find(reg);
  if (reg_spec == nullptr) {
    std::cerr << "register '" << reg << "' has no spec block\n";
    return 1;
  }
  design.critical_registers = {reg};

  core::DetectorOptions options;
  options.engine.kind = parse_engine_flag(cli);
  options.engine.max_frames =
      static_cast<std::size_t>(cli.get_int("frames", 128));
  options.engine.time_limit_seconds = cli.get_double("budget", 60.0);
  options.scan_pseudo_critical = false;
  options.check_bypass = false;

  core::TrojanDetector detector(design, options);
  const core::CheckResult result = detector.check_corruption(reg);
  if (!result.violated) {
    std::cout << "clean: no out-of-spec update of '" << reg << "' within "
              << result.frames_completed << " cycles ("
              << result.status << ")\n";
    return 0;
  }

  sim::Witness witness = *result.witness;
  std::cout << "TROJAN: '" << reg << "' corrupted at cycle "
            << witness.violation_frame << " (found in " << result.seconds
            << " s)\n";
  if (cli.get_bool("minimize", false)) {
    // Rebuild the monitor on a fresh copy to minimize against.
    designs::Design scratch = design;
    const auto bad = properties::build_corruption_monitor(
        scratch.nl, *scratch.spec.find(reg),
        properties::CorruptionMonitorKind::kExact);
    core::MinimizeStats stats;
    witness = core::minimize_witness(scratch.nl, bad, witness, &stats);
    std::cout << "minimized witness: " << stats.bits_before << " -> "
              << stats.bits_after << " set input bits\n";
  }
  std::cout << witness.to_string(design.nl);
  const std::string vcd = cli.get_string("vcd", "");
  if (!vcd.empty() && sim::write_witness_vcd(design.nl, witness, vcd)) {
    std::cout << "waveform written to " << vcd << "\n";
  }
  return 2;
}

int cmd_audit(const util::CliParser& cli) {
  designs::Design design;
  design.name = cli.get_string("design", "design");
  design.nl = load_design(cli);
  design.spec = specdsl::load_spec_file(design.nl, cli.get_string("spec", ""));
  if (design.spec.registers.empty()) {
    std::cerr << "spec file declares no registers\n";
    return 1;
  }
  for (const auto& reg_spec : design.spec.registers) {
    design.critical_registers.push_back(reg_spec.reg);
  }

  core::ParallelDetectorOptions options;
  options.detector.engine.kind = parse_engine_flag(cli);
  options.detector.engine.max_frames =
      static_cast<std::size_t>(cli.get_int("frames", 128));
  options.detector.engine.time_limit_seconds = cli.get_double("budget", 60.0);
  options.detector.scan_pseudo_critical = !cli.get_bool("no-scan", false);
  options.detector.check_bypass = !cli.get_bool("no-bypass", false);
  options.jobs = static_cast<std::size_t>(cli.get_int("jobs", 0));
  options.fail_fast = cli.get_bool("fail-fast", false);

  // --cache-dir persists per-obligation verdicts; a warm re-audit of an
  // unchanged design answers every obligation from disk with zero solves.
  const std::unique_ptr<cache::VerdictCache> verdict_cache = open_cache(cli);
  std::unique_ptr<cache::AuditVerdictStore> store;
  if (verdict_cache != nullptr) {
    store = std::make_unique<cache::AuditVerdictStore>(
        *verdict_cache, design, options.detector, options.fail_fast);
    options.store = store.get();
  }

  // Observability taps: --trace-out installs a span recorder (Chrome
  // trace_event JSON, one span tree per obligation), --metrics-out enables
  // the counter registry and serializes a JSON-lines run report,
  // --profile-out folds the span tree into a phase-attribution profile
  // (it needs a recorder and the registry even without the other flags),
  // --progress[=interval] starts the live heartbeat + stall watchdog.
  const std::string trace_out = cli.get_string("trace-out", "");
  const std::string metrics_out = cli.get_string("metrics-out", "");
  const std::string profile_out = cli.get_string("profile-out", "");
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  if (!trace_out.empty() || !profile_out.empty()) {
    recorder = std::make_unique<telemetry::TraceRecorder>();
    telemetry::TraceRecorder::set_global(recorder.get());
  }
  if (!metrics_out.empty() || !profile_out.empty()) {
    telemetry::Registry::global().set_enabled(true);
  }
  std::unique_ptr<telemetry::ProgressReporter> progress;
  if (cli.has("progress")) {
    telemetry::ProgressOptions po;
    po.interval_seconds = cli.get_double("progress", 1.0);
    po.stall_window_seconds = cli.get_double("stall-window", 30.0);
    progress = std::make_unique<telemetry::ProgressReporter>(po);
    telemetry::ProgressReporter::set_global(progress.get());
  }

  util::Stopwatch total;
  core::ParallelDetector detector(design, options);
  const core::DetectionReport report = detector.run();
  const double total_seconds = total.elapsed_seconds();

  if (progress != nullptr) {
    telemetry::ProgressReporter::set_global(nullptr);
    progress->stop();
    if (progress->stall_count() > 0) {
      std::cout << "watchdog: " << progress->stall_count()
                << " stall(s) detected (see metrics records)\n";
    }
  }
  if (recorder != nullptr) {
    telemetry::TraceRecorder::set_global(nullptr);
    if (!trace_out.empty()) {
      if (recorder->write_file(trace_out)) {
        std::cout << "trace written to " << trace_out << " ("
                  << recorder->event_count() << " events)\n";
      } else {
        std::cerr << "cannot write " << trace_out << "\n";
      }
    }
  }
  if (!metrics_out.empty()) {
    telemetry::RunReport metrics;
    core::append_detection_report(
        metrics, design.name,
        core::engine_name(options.detector.engine.kind), report,
        total_seconds);
    core::append_registry_snapshot(metrics, telemetry::Registry::global());
    if (verdict_cache != nullptr) {
      cache::append_cache_record(metrics, *verdict_cache);
    }
    if (progress != nullptr) {
      telemetry::append_stall_records(metrics, *progress);
    }
    if (metrics.write_file(metrics_out)) {
      std::cout << "metrics written to " << metrics_out << " ("
                << metrics.size() << " records)\n";
    } else {
      std::cerr << "cannot write " << metrics_out << "\n";
    }
  }
  if (!profile_out.empty() && recorder != nullptr) {
    const telemetry::Profile profile = telemetry::build_profile(
        *recorder, telemetry::Registry::global().snapshot());
    if (profile.write_file(profile_out)) {
      std::cout << "profile written to " << profile_out << " ("
                << profile.phases.size() << " phases, "
                << profile.obligations.size() << " obligations)\n";
    } else {
      std::cerr << "cannot write " << profile_out << "\n";
    }
    std::cout << "top phases by exclusive time:\n" << profile.top_table(10);
  }

  for (const auto& run : report.runs) {
    std::cout << run.property << ": " << run.check.status << " ("
              << run.check.frames_completed << " frames, " << run.check.seconds
              << " s)\n";
  }
  if (options.detector.engine.kind == core::EngineKind::kPortfolio) {
    std::size_t wins[3] = {0, 0, 0};  // bmc, atpg, pdr
    std::size_t proven = 0;
    for (const auto& run : report.runs) {
      switch (run.check.engine_used) {
        case core::EngineKind::kBmc: ++wins[0]; break;
        case core::EngineKind::kAtpg: ++wins[1]; break;
        case core::EngineKind::kPdr: ++wins[2]; break;
        case core::EngineKind::kPortfolio: break;
      }
      if (run.check.proven_unbounded) ++proven;
    }
    std::cout << "portfolio wins: bmc " << wins[0] << ", atpg " << wins[1]
              << ", pdr " << wins[2] << " (" << proven
              << " proven unbounded)\n";
  }
  if (verdict_cache != nullptr) print_cache_summary(*verdict_cache);
  write_signature(cli.get_string("signature-out", ""), report);
  write_flight(cli.get_string("flight-out", ""), design.name,
               core::engine_name(options.detector.engine.kind), report);
  std::cout << report.summary() << "\n";
  std::cout << "peak RSS: " << util::peak_rss_summary() << "\n";
  if (!report.trojan_found) return 0;
  for (const auto& finding : report.findings) {
    std::cout << "\n" << core::finding_kind_name(finding.kind) << " on "
              << finding.register_name;
    if (!finding.candidate_register.empty()) {
      std::cout << " (via " << finding.candidate_register << ")";
    }
    std::cout << ":\n";
    if (finding.check.witness) {
      std::cout << finding.check.witness->to_string(design.nl);
    }
  }
  return 2;
}

int cmd_prove(const util::CliParser& cli) {
  designs::Design design;
  design.nl = load_design(cli);
  design.spec =
      specdsl::load_spec_file(design.nl, cli.get_string("spec", ""));
  const std::string reg = cli.get_string("register", "");
  const auto* reg_spec = design.spec.find(reg);
  if (reg_spec == nullptr) {
    std::cerr << "register '" << reg << "' has no spec block\n";
    return 1;
  }
  const auto bad = properties::build_corruption_monitor(
      design.nl, *reg_spec, properties::CorruptionMonitorKind::kExact);
  bmc::InductionOptions options;
  options.max_k = static_cast<std::size_t>(cli.get_int("max-k", 8));
  options.time_limit_seconds = cli.get_double("budget", 60.0);
  const auto result = bmc::prove_by_induction(design.nl, bad, options);
  switch (result.status) {
    case bmc::InductionStatus::kProven:
      std::cout << "PROVEN for all time (k=" << result.k_used << ", "
                << result.seconds << " s)\n";
      return 0;
    case bmc::InductionStatus::kBaseViolated:
      std::cout << "TROJAN: counterexample at cycle "
                << result.witness->violation_frame << "\n"
                << result.witness->to_string(design.nl);
      return 2;
    case bmc::InductionStatus::kUnknown:
      std::cout << "UNKNOWN: not k-inductive within the budget (use 'check' "
                   "for a bounded certificate)\n";
      return 1;
  }
  return 1;
}

designs::Design load_design_with_spec(const util::CliParser& cli) {
  designs::Design design;
  design.name = cli.get_string("design", "design");
  design.nl = load_design(cli);
  design.spec = specdsl::load_spec_file(design.nl, cli.get_string("spec", ""));
  if (design.spec.registers.empty()) {
    throw std::runtime_error("spec file declares no registers");
  }
  for (const auto& reg_spec : design.spec.registers) {
    design.critical_registers.push_back(reg_spec.reg);
  }
  return design;
}

int cmd_certify(const util::CliParser& cli) {
  const designs::Design design = load_design_with_spec(cli);

  proof::CertifyOptions options;
  options.detector.engine.kind = parse_engine_flag(cli);
  options.detector.engine.max_frames =
      static_cast<std::size_t>(cli.get_int("frames", 128));
  options.detector.engine.time_limit_seconds = cli.get_double("budget", 60.0);
  options.detector.scan_pseudo_critical = !cli.get_bool("no-scan", false);
  options.detector.check_bypass = !cli.get_bool("no-bypass", false);
  options.jobs = static_cast<std::size_t>(cli.get_int("jobs", 1));

  const std::string out = cli.get_string("out", "");

  // Certify never reads the cache (certificates need real engine evidence)
  // but writes every verdict through, stamped with the certificate path, so
  // a later `audit --cache-dir` reuses the certified answers.
  const std::unique_ptr<cache::VerdictCache> verdict_cache = open_cache(cli);
  std::unique_ptr<cache::AuditVerdictStore> store;
  if (verdict_cache != nullptr) {
    store = std::make_unique<cache::AuditVerdictStore>(
        *verdict_cache, design, options.detector, /*fail_fast=*/false);
    store->set_cert_ref(out);
    options.store = store.get();
  }

  const proof::Certificate cert = proof::certify(design, options);
  const proof::Json json = proof::certificate_to_json(cert);
  const std::string text =
      cli.get_bool("pretty", false) ? json.dump_pretty() : json.dump() + "\n";

  if (out.empty()) {
    std::cout << text;
  } else {
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot write " + out);
    os << text;
    std::size_t witnesses = 0;
    std::size_t marks = 0;
    for (const auto& record : cert.records) {
      if (record.witness.has_value()) witnesses++;
      if (record.drat.has_value()) marks += record.drat->marks.size();
    }
    std::cout << "certificate written to " << out << " ("
              << cert.records.size() << " obligations, " << witnesses
              << " witnesses, " << marks << " DRAT-proved frames)\n";
  }
  if (verdict_cache != nullptr) print_cache_summary(*verdict_cache);
  // "clean forever" only when every record carries an unbounded proof;
  // a single merely-bounded record caps the whole certificate's claim.
  const bool all_unbounded =
      !cert.records.empty() &&
      std::all_of(cert.records.begin(), cert.records.end(),
                  [](const auto& r) { return r.proven_unbounded; });
  std::cout << (cert.trojan_found
                    ? "TROJAN FOUND (witnesses included in certificate)"
                : all_unbounded
                    ? "clean at all depths (inductive invariants included "
                      "in certificate)"
                    : "clean within the bound (proofs included in certificate)")
            << "\n";
  return cert.trojan_found ? 2 : 0;
}

int cmd_check_cert(const util::CliParser& cli) {
  const std::string path = cli.get_string("cert", "");
  if (path.empty()) throw std::runtime_error("--cert is required");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  proof::Json json;
  std::string error;
  if (!proof::Json::parse(text, json, &error)) {
    std::cerr << "certificate rejected: " << error << "\n";
    return 1;
  }
  proof::Certificate cert;
  if (!proof::certificate_from_json(json, cert, &error)) {
    std::cerr << "certificate rejected: " << error << "\n";
    return 1;
  }

  const designs::Design design = load_design_with_spec(cli);
  const proof::CertificateCheckResult result =
      proof::check_certificate(cert, design);
  std::cout << result.summary() << "\n";
  return result.ok ? 0 : 1;
}

/// Opens the fleet-shared L2 store named by --l2-dir (always read-write;
/// claim files need write access); null when the flag is absent.
std::unique_ptr<cache::VerdictCache> open_l2(const util::CliParser& cli) {
  const std::string dir = cli.get_string("l2-dir", "");
  if (dir.empty()) return nullptr;
  cache::VerdictCache::Options options;
  options.dir = dir;
  options.mode = cache::CacheMode::kReadWrite;
  const long max_mb = cli.get_int("l2-max-mb", 512);
  options.max_bytes = max_mb <= 0
                          ? 0
                          : static_cast<std::uint64_t>(max_mb) * 1024 * 1024;
  return std::make_unique<cache::VerdictCache>(std::move(options));
}

/// Publishes the resolved listen endpoint (ephemeral TCP ports become
/// concrete here) for whoever launched us — tests, ci.sh, serve-fleet.
void write_endpoint_file(const std::string& path,
                         const std::string& endpoint) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << endpoint << "\n";
}

service::AuditDaemon* g_daemon = nullptr;
fleet::FleetCoordinator* g_coordinator = nullptr;

void handle_stop_signal(int) {
  // stop() joins threads, which is not async-signal-safe in general, but
  // the daemon's accept loop polls with a timeout and every blocking read
  // is shutdown() first, so in practice this terminates promptly; the
  // alternative (a self-pipe) buys little for a CLI tool.
  if (g_daemon != nullptr) g_daemon->stop();
  if (g_coordinator != nullptr) g_coordinator->stop();
}

/// Opens the --events-out sink and installs it as the process-global
/// telemetry::EventLog; the returned handle owns it (and uninstalls on
/// destruction). Null when the flag is absent. --events-max-mb caps the
/// stream: past it the file rotates to FILE.1 and the sequence restarts
/// (0 = unbounded).
std::unique_ptr<telemetry::EventLog> open_event_log(
    const util::CliParser& cli) {
  const std::string path = cli.get_string("events-out", "");
  if (path.empty()) return nullptr;
  const long max_mb = cli.get_int("events-max-mb", 0);
  const std::uint64_t max_bytes =
      max_mb <= 0 ? 0 : static_cast<std::uint64_t>(max_mb) * 1024 * 1024;
  auto log = std::make_unique<telemetry::EventLog>(path, max_bytes);
  if (!log->ok()) throw std::runtime_error("cannot write " + path);
  telemetry::EventLog::set_global(log.get());
  return log;
}

int cmd_serve(const util::CliParser& cli) {
  const std::string endpoint = cli.get_string("socket", "");
  if (endpoint.empty()) throw std::runtime_error("--socket is required");

  const std::unique_ptr<telemetry::EventLog> event_log = open_event_log(cli);
  const std::unique_ptr<cache::VerdictCache> verdict_cache = open_cache(cli);
  const std::unique_ptr<cache::VerdictCache> l2_cache = open_l2(cli);

  service::AuditDaemon::Options options;
  options.endpoint = endpoint;
  options.jobs = static_cast<std::size_t>(cli.get_int("jobs", 0));
  options.cache = verdict_cache.get();
  options.l2 = l2_cache.get();
  options.read_timeout_seconds = cli.get_double("read-timeout", 0.0);
  options.sample_interval_ms = cli.get_double("sample-interval-ms", 1000.0);

  service::AuditDaemon daemon(options);
  daemon.start();
  g_daemon = &daemon;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  write_endpoint_file(cli.get_string("port-file", ""),
                      daemon.bound_endpoint());
  std::cout << "audit daemon listening on " << daemon.bound_endpoint();
  if (verdict_cache != nullptr) {
    std::cout << " (cache " << cache_mode_name(verdict_cache->mode()) << " "
              << verdict_cache->dir() << ")";
  }
  if (l2_cache != nullptr) std::cout << " (l2 " << l2_cache->dir() << ")";
  std::cout << "\n" << std::flush;

  daemon.wait();
  daemon.stop();
  g_daemon = nullptr;

  std::cout << "daemon stopped after " << daemon.jobs_completed()
            << " job(s)\n";
  if (verdict_cache != nullptr) print_cache_summary(*verdict_cache);
  return 0;
}

/// Path of the running binary, captured in main() for --spawn re-exec.
std::string g_self_exe;

struct SpawnedWorker {
  pid_t pid = -1;
  std::string endpoint_file;
};

/// Forks one `serve` worker on an ephemeral TCP port; the child publishes
/// its resolved endpoint through `endpoint_file`.
SpawnedWorker spawn_worker(const util::CliParser& cli,
                           const std::string& run_dir, std::size_t index) {
  SpawnedWorker worker;
  worker.endpoint_file =
      run_dir + "/worker" + std::to_string(index) + ".endpoint";
  std::vector<std::string> args = {
      g_self_exe,    "serve",
      "--socket",    "tcp:127.0.0.1:0",
      "--port-file", worker.endpoint_file,
      "--cache-dir", run_dir + "/l1-" + std::to_string(index),
      "--jobs",      std::to_string(cli.get_int("worker-jobs", 0)),
  };
  const std::string l2_dir = cli.get_string("l2-dir", "");
  if (!l2_dir.empty()) {
    args.push_back("--l2-dir");
    args.push_back(l2_dir);
    args.push_back("--l2-max-mb");
    args.push_back(std::to_string(cli.get_int("l2-max-mb", 512)));
  }
  // Workers inherit the coordinator's sampling cadence so a fleet scrape
  // sees every registry windowed on the same clock.
  args.push_back("--sample-interval-ms");
  args.push_back(std::to_string(cli.get_double("sample-interval-ms", 1000.0)));
  if (!cli.get_string("events-out", "").empty()) {
    // The coordinator's event log covers fleet-level events; each spawned
    // worker gets its own sink for what only it observes (claim steals,
    // corrupt cache entries).
    args.push_back("--events-out");
    args.push_back(run_dir + "/worker" + std::to_string(index) +
                   ".events.jsonl");
    args.push_back("--events-max-mb");
    args.push_back(std::to_string(cli.get_int("events-max-mb", 0)));
  }
  worker.pid = ::fork();
  if (worker.pid < 0) throw std::runtime_error("fork failed");
  if (worker.pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return worker;
}

/// Waits for a spawned worker to publish its endpoint (or die trying).
std::string await_worker_endpoint(const SpawnedWorker& worker) {
  for (int i = 0; i < 500; ++i) {  // 10 s at 20 ms
    std::ifstream in(worker.endpoint_file);
    std::string endpoint;
    if (in && std::getline(in, endpoint) && !endpoint.empty()) {
      return endpoint;
    }
    int status = 0;
    if (::waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
      throw std::runtime_error("spawned worker exited before listening");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  throw std::runtime_error("spawned worker never published " +
                           worker.endpoint_file);
}

int cmd_serve_fleet(const util::CliParser& cli) {
  const std::string endpoint = cli.get_string("socket", "");
  if (endpoint.empty()) throw std::runtime_error("--socket is required");

  const std::unique_ptr<telemetry::EventLog> event_log = open_event_log(cli);

  fleet::FleetCoordinator::Options options;
  options.endpoint = endpoint;
  options.trace_out = cli.get_string("trace-out", "");
  options.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-cap", 64));
  options.retry_after_ms =
      static_cast<std::uint64_t>(cli.get_int("retry-after-ms", 200));
  options.read_timeout_seconds = cli.get_double("read-timeout", 0.0);
  options.worker_timeout_seconds = cli.get_double("worker-timeout", 600.0);
  options.health_interval_seconds = cli.get_double("health-interval", 2.0);
  options.sample_interval_ms = cli.get_double("sample-interval-ms", 1000.0);
  options.slo_job_ms = static_cast<std::uint64_t>(cli.get_int("slo-ms", 0));
  options.slo_obligation_ms =
      static_cast<std::uint64_t>(cli.get_int("slo-obligation-ms", 0));

  const std::string workers_flag = cli.get_string("workers", "");
  const long spawn_count = cli.get_int("spawn", 0);
  if (workers_flag.empty() == (spawn_count <= 0)) {
    throw std::runtime_error(
        "serve-fleet needs exactly one of --workers or --spawn");
  }

  std::vector<SpawnedWorker> spawned;
  std::string run_dir = cli.get_string("run-dir", "");
  if (spawn_count > 0) {
    if (run_dir.empty()) {
      char tmpl[] = "/tmp/ts_fleet_XXXXXX";
      if (::mkdtemp(tmpl) == nullptr) {
        throw std::runtime_error("mkdtemp failed");
      }
      run_dir = tmpl;
    } else {
      // Workers open their event logs before their caches, so the run dir
      // must exist before the first fork — create it rather than racing on
      // the verdict cache's own create_directories.
      std::error_code ec;
      std::filesystem::create_directories(run_dir, ec);
      if (ec) {
        throw std::runtime_error("cannot create --run-dir " + run_dir + ": " +
                                 ec.message());
      }
    }
    for (long i = 0; i < spawn_count; ++i) {
      spawned.push_back(
          spawn_worker(cli, run_dir, static_cast<std::size_t>(i)));
    }
    for (const SpawnedWorker& worker : spawned) {
      options.workers.push_back(await_worker_endpoint(worker));
    }
  } else {
    std::istringstream in(workers_flag);
    std::string item;
    while (std::getline(in, item, ',')) {
      if (!item.empty()) options.workers.push_back(item);
    }
  }

  int exit_code = 0;
  {
    fleet::FleetCoordinator coordinator(options);
    try {
      coordinator.start();
      g_coordinator = &coordinator;
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);

      write_endpoint_file(cli.get_string("port-file", ""),
                          coordinator.bound_endpoint());
      std::cout << "fleet coordinator on " << coordinator.bound_endpoint()
                << " over " << options.workers.size() << " worker(s):";
      for (const std::string& worker : options.workers) {
        std::cout << " " << worker;
      }
      std::cout << "\n" << std::flush;

      coordinator.wait();
      coordinator.stop();
      g_coordinator = nullptr;
      std::cout << "coordinator stopped after "
                << coordinator.jobs_completed() << " job(s), "
                << coordinator.retry_after_sent() << " refused, "
                << coordinator.reshards() << " re-shard(s)\n";
    } catch (...) {
      g_coordinator = nullptr;
      for (const SpawnedWorker& worker : spawned) {
        ::kill(worker.pid, SIGTERM);
        ::waitpid(worker.pid, nullptr, 0);
      }
      throw;
    }
  }
  for (const SpawnedWorker& worker : spawned) {
    ::kill(worker.pid, SIGTERM);
    ::waitpid(worker.pid, nullptr, 0);
  }
  return exit_code;
}

/// Renders one JSON scalar for a table cell.
std::string cell_json(const proof::Json& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_bool()) return value.as_bool() ? "yes" : "no";
  if (value.is_int()) return std::to_string(value.as_int());
  if (value.is_number()) return util::cell_double(value.as_double(), 3);
  return value.dump();
}

/// Prints the "slowest" tail-attribution rows (from a stats reply or a
/// fleet report) as an aligned table; no-op when absent or empty.
void print_slowest_table(const proof::Json& slowest) {
  if (!slowest.is_array() || slowest.items().empty()) return;
  util::Table table({"property", "worker", "total_us", "phases"});
  for (const proof::Json& row : slowest.items()) {
    if (!row.is_object()) continue;
    const auto str = [&row](const char* key) -> std::string {
      const proof::Json* f = row.find(key);
      return f != nullptr ? cell_json(*f) : "";
    };
    std::string phases;
    const proof::Json* phase_obj = row.find("phases");
    if (phase_obj != nullptr && phase_obj->is_object()) {
      for (const auto& [name, us] : phase_obj->entries()) {
        if (!phases.empty()) phases += " ";
        phases += name + "=" + cell_json(us);
      }
    }
    table.add_row({str("property"), str("worker"), str("total_us"), phases});
  }
  std::cout << "slowest obligations:\n";
  table.print(std::cout);
}

/// Prints one telemetry Registry snapshot (counters + timer histograms).
void print_telemetry(const std::string& title, const proof::Json& snapshot) {
  if (!snapshot.is_object()) return;
  const proof::Json* counters = snapshot.find("counters");
  if (counters != nullptr && counters->is_object() && counters->size() > 0) {
    util::Table table({"counter", "value"});
    for (const auto& [name, value] : counters->entries()) {
      table.add_row({name, cell_json(value)});
    }
    std::cout << title << " counters:\n";
    table.print(std::cout);
  }
  const proof::Json* histograms = snapshot.find("histograms");
  if (histograms != nullptr && histograms->is_object() &&
      histograms->size() > 0) {
    util::Table table({"timer", "count", "sum_s", "min_s", "max_s"});
    for (const auto& [name, h] : histograms->entries()) {
      if (!h.is_object()) continue;
      const auto str = [&h](const char* key) -> std::string {
        const proof::Json* f = h.find(key);
        return f != nullptr ? cell_json(*f) : "";
      };
      table.add_row(
          {name, str("count"), str("sum_s"), str("min_s"), str("max_s")});
    }
    std::cout << title << " timers:\n";
    table.print(std::cout);
  }
}

/// Pretty-prints a stats reply: scalar fields, per-worker breakdown,
/// merged + own telemetry, and the slowest-obligations table.
void print_stats(const proof::Json& stats) {
  util::Table fields({"field", "value"});
  for (const auto& [key, value] : stats.entries()) {
    if (value.is_object() || value.is_array()) continue;
    if (key == "type") continue;
    fields.add_row({key, cell_json(value)});
  }
  fields.print(std::cout);

  const proof::Json* workers = stats.find("workers");
  if (workers != nullptr && workers->is_array() &&
      !workers->items().empty()) {
    util::Table table({"worker", "alive", "outstanding", "pid", "uptime_s",
                       "jobs_completed", "bad_requests"});
    for (const proof::Json& w : workers->items()) {
      if (!w.is_object()) continue;
      const auto str = [&w](const char* key) -> std::string {
        const proof::Json* f = w.find(key);
        return f != nullptr ? cell_json(*f) : "";
      };
      table.add_row({str("endpoint"), str("alive"), str("outstanding"),
                     str("pid"), str("uptime_s"), str("jobs_completed"),
                     str("bad_requests")});
    }
    std::cout << "workers:\n";
    table.print(std::cout);
  }

  const proof::Json* merged = stats.find("telemetry");
  if (merged != nullptr) {
    print_telemetry(workers != nullptr ? "merged worker" : "telemetry",
                    *merged);
  }
  const proof::Json* own = stats.find("coordinator_telemetry");
  if (own != nullptr) print_telemetry("coordinator", *own);

  const proof::Json* slowest = stats.find("slowest");
  if (slowest != nullptr) print_slowest_table(*slowest);
}

/// `submit --stats`: one stats round-trip, printed as tables or raw JSON.
int cmd_submit_stats(const util::CliParser& cli, const std::string& endpoint,
                     const service::ConnectRetry& retry) {
  service::Client client(endpoint, retry);
  client.send_line(service::control_request_line("stats"));
  proof::Json response;
  if (!client.read_response(response)) {
    std::cerr << "error: connection closed before a stats reply\n";
    return 1;
  }
  const proof::Json* type = response.find("type");
  if (type == nullptr || !type->is_string() || type->as_string() != "stats") {
    std::cerr << "error: unexpected reply: " << response.dump() << "\n";
    return 1;
  }
  if (cli.get_bool("json", false)) {
    std::cout << response.dump_pretty() << "\n";
  } else {
    print_stats(response);
  }
  return 0;
}

/// `submit --metrics`: one metrics round-trip. The Prometheus text
/// exposition is unwrapped from its NDJSON envelope and written raw
/// (stdout, or --out FILE) — ready for a scraper, promtool, or
/// check_metrics.py's exposition validator. Against a coordinator the
/// scrape fans out to every live worker and merges registries first.
int cmd_submit_metrics(const util::CliParser& cli, const std::string& endpoint,
                       const service::ConnectRetry& retry) {
  service::Client client(endpoint, retry);
  client.send_line(service::control_request_line("metrics"));
  proof::Json response;
  if (!client.read_response(response)) {
    std::cerr << "error: connection closed before a metrics reply\n";
    return 1;
  }
  const proof::Json* type = response.find("type");
  if (type == nullptr || !type->is_string() ||
      type->as_string() != "metrics") {
    std::cerr << "error: unexpected reply: " << response.dump() << "\n";
    return 1;
  }
  const proof::Json* body = response.find("body");
  if (body == nullptr || !body->is_string()) {
    std::cerr << "error: metrics reply carries no body\n";
    return 1;
  }
  const std::string out = cli.get_string("out", "");
  if (out.empty()) {
    std::cout << body->as_string();
  } else {
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot write " + out);
    os << body->as_string();
    std::cout << "exposition written to " << out << "\n";
  }
  return 0;
}

int cmd_submit(const util::CliParser& cli) {
  const std::string endpoint = cli.get_string("socket", "");
  if (endpoint.empty()) throw std::runtime_error("--socket is required");

  service::ConnectRetry submit_retry;
  submit_retry.attempts = static_cast<int>(cli.get_int("connect-retries", 1));
  submit_retry.base_delay_ms = cli.get_double("connect-delay-ms", 50.0);
  if (cli.get_bool("stats", false)) {
    return cmd_submit_stats(cli, endpoint, submit_retry);
  }
  if (cli.get_bool("metrics", false)) {
    return cmd_submit_metrics(cli, endpoint, submit_retry);
  }

  service::AuditJob job;
  job.id = cli.get_string("id", "job");
  job.design_path = cli.get_string("design", "");
  job.spec_path = cli.get_string("spec", "");
  if (job.design_path.empty()) throw std::runtime_error("--design is required");
  if (job.spec_path.empty()) throw std::runtime_error("--spec is required");
  job.engine = parse_engine_flag(cli);
  job.frames = static_cast<std::size_t>(cli.get_int("frames", 128));
  job.budget = cli.get_double("budget", 60.0);
  job.scan_pseudo_critical = !cli.get_bool("no-scan", false);
  job.check_bypass = !cli.get_bool("no-bypass", false);

  const bool quiet = cli.get_bool("quiet", false);
  const int overload_retries =
      static_cast<int>(cli.get_int("overload-retries", 0));
  // Fleet reports carry a "slowest" tail-attribution table; captured here
  // from the response stream and printed after the summary.
  auto slowest = std::make_shared<proof::Json>();
  const service::SubmitResult result = service::submit_audit_with_retry(
      endpoint, job, submit_retry, overload_retries,
      [quiet, slowest](const proof::Json& response) {
        const proof::Json* type = response.find("type");
        if (type == nullptr || !type->is_string()) return;
        if (type->as_string() == "report") {
          const proof::Json* tail = response.find("slowest");
          if (tail != nullptr) *slowest = *tail;
          return;
        }
        if (quiet || type->as_string() != "obligation") return;
        const auto str = [&response](const char* key) -> std::string {
          const proof::Json* f = response.find(key);
          return f != nullptr && f->is_string() ? f->as_string() : "";
        };
        std::cout << str("property") << ": " << str("status") << " ["
                  << str("source") << "]\n";
      },
      [quiet](std::uint64_t delay_ms) {
        if (quiet) return;
        std::cerr << "fleet busy; retrying in " << delay_ms << " ms\n";
      });

  if (!result.ok) {
    std::cerr << "error: " << result.error << "\n";
    return 1;
  }
  std::cout << result.summary << "\n"
            << "served: " << result.cache_hits << " from cache, "
            << result.shared << " shared in-flight, " << result.computed
            << " computed\n";
  if (!quiet) print_slowest_table(*slowest);
  const std::string signature_out = cli.get_string("signature-out", "");
  if (!signature_out.empty()) {
    std::ofstream os(signature_out);
    if (!os) throw std::runtime_error("cannot write " + signature_out);
    os << result.signature;
    std::cout << "signature written to " << signature_out << "\n";
  }
  return result.trojan_found ? 2 : 0;
}

// ---- top: live monitoring dashboard ---------------------------------------

volatile std::sig_atomic_t g_top_interrupted = 0;
void handle_top_signal(int) { g_top_interrupted = 1; }

/// Eight-level unicode sparkline of `values`, scaled to their own peak.
std::string sparkline(const std::vector<double>& values) {
  static const char* const kBars[8] = {"▁", "▂", "▃",
                                       "▄", "▅", "▆",
                                       "▇", "█"};
  double peak = 0.0;
  for (const double v : values) peak = std::max(peak, v);
  std::string out;
  for (const double v : values) {
    int level = 0;
    if (peak > 0.0 && v > 0.0) {
      level = std::min(7, std::max(0, static_cast<int>(v / peak * 7.0 + 0.5)));
    }
    out += kBars[level];
  }
  return out;
}

/// Numeric field of a stats object, 0.0 when absent or non-numeric.
double num_field(const proof::Json& obj, const char* key) {
  const proof::Json* f = obj.find(key);
  return f != nullptr && f->is_number() ? f->as_double() : 0.0;
}

/// Pulls one counter's per-window rate history (oldest first) out of a
/// stats reply's "series" array. Windows where the counter did not move
/// contribute 0 (the series only stores moved counters).
std::vector<double> series_rates(const proof::Json& stats,
                                 const std::string& counter) {
  std::vector<double> rates;
  const proof::Json* series = stats.find("series");
  if (series == nullptr || !series->is_array()) return rates;
  for (const proof::Json& window : series->items()) {
    double rate = 0.0;
    const proof::Json* counters = window.find("counters");
    if (counters != nullptr && counters->is_object()) {
      const proof::Json* c = counters->find(counter);
      if (c != nullptr) rate = num_field(*c, "rate_per_s");
    }
    rates.push_back(rate);
  }
  return rates;
}

/// Poll-to-poll state for derived rates (per-worker jobs/s).
struct TopState {
  std::map<std::string, double> prev_worker_jobs;
  double prev_jobs = -1.0;
  std::chrono::steady_clock::time_point prev_time;
  bool have_prev = false;
};

/// Renders one dashboard frame from a stats reply. The whole frame is
/// assembled off-screen and written in one shot (less flicker on redraw).
void render_top(const proof::Json& stats, const std::string& endpoint,
                TopState& state, bool clear) {
  const auto now = std::chrono::steady_clock::now();
  const double dt = state.have_prev
                        ? std::chrono::duration<double>(now - state.prev_time)
                              .count()
                        : 0.0;
  const double jobs = num_field(stats, "jobs_completed");

  std::ostringstream out;
  const proof::Json* role = stats.find("role");
  out << "trojanscout top — " << endpoint;
  if (role != nullptr && role->is_string()) {
    out << " (" << role->as_string() << ")";
  }
  out << "\n";

  out << "uptime " << util::cell_double(num_field(stats, "uptime_s"), 1)
      << " s   jobs " << static_cast<std::uint64_t>(jobs);
  if (dt > 0.0 && state.prev_jobs >= 0.0) {
    out << " ("
        << util::cell_double(std::max(0.0, jobs - state.prev_jobs) / dt, 2)
        << "/s)";
  }

  // Cache hit rate: prefer the daemon's own VerdictCache counters; a
  // coordinator reply carries them inside the merged telemetry registry.
  double hits = num_field(stats, "cache_hits");
  double misses = num_field(stats, "cache_misses");
  const proof::Json* tel = stats.find("telemetry");
  if (hits + misses <= 0.0 && tel != nullptr && tel->is_object()) {
    const proof::Json* counters = tel->find("counters");
    if (counters != nullptr && counters->is_object()) {
      for (const auto& [name, value] : counters->entries()) {
        if (name == "cache.hit" || name == "cache.l1_hit" ||
            name == "cache.l2_hit") {
          hits += value.as_double();
        } else if (name == "cache.miss") {
          misses += value.as_double();
        }
      }
    }
  }
  if (hits + misses > 0.0) {
    out << "   cache hit "
        << util::cell_double(100.0 * hits / (hits + misses), 1) << "%";
  }

  const proof::Json* workers = stats.find("workers");
  const bool fleet = workers != nullptr && workers->is_array();
  if (fleet) {
    double queue = 0.0;
    for (const proof::Json& w : workers->items()) {
      queue += num_field(w, "outstanding");
    }
    out << "   queue depth " << static_cast<std::uint64_t>(queue);
  }
  const proof::Json* slo = stats.find("slo");
  if (slo != nullptr && slo->is_object() &&
      (num_field(*slo, "job_ms") > 0.0 ||
       num_field(*slo, "obligation_ms") > 0.0)) {
    out << "   slo breaches "
        << static_cast<std::uint64_t>(num_field(*slo, "job_breaches"))
        << " job / "
        << static_cast<std::uint64_t>(num_field(*slo, "obligation_breaches"))
        << " obligation";
  }
  out << "\n";

  // Sparkline rate history from the sampler's windowed series.
  const std::string prefix = fleet ? "fleet" : "service";
  for (const std::string suffix : {".jobs", ".obligations"}) {
    const std::string counter = prefix + suffix;
    const std::vector<double> rates = series_rates(stats, counter);
    if (rates.empty()) continue;
    out << counter << "/s  " << sparkline(rates) << "  now "
        << util::cell_double(rates.back(), 2) << "/s\n";
  }

  if (clear) std::cout << "\x1b[H\x1b[J";
  std::cout << out.str();

  if (fleet && !workers->items().empty()) {
    util::Table table({"worker", "alive", "responding", "outstanding",
                       "jobs", "jobs/s"});
    for (const proof::Json& w : workers->items()) {
      if (!w.is_object()) continue;
      const proof::Json* ep = w.find("endpoint");
      const std::string name =
          ep != nullptr && ep->is_string() ? ep->as_string() : "?";
      const double worker_jobs = num_field(w, "jobs_completed");
      std::string rate = "-";
      const auto it = state.prev_worker_jobs.find(name);
      if (it != state.prev_worker_jobs.end() && dt > 0.0) {
        rate = util::cell_double(
            std::max(0.0, worker_jobs - it->second) / dt, 2);
      }
      state.prev_worker_jobs[name] = worker_jobs;
      const auto str = [&w](const char* key) -> std::string {
        const proof::Json* f = w.find(key);
        return f != nullptr ? cell_json(*f) : "";
      };
      table.add_row({name, str("alive"), str("responding"),
                     str("outstanding"), str("jobs_completed"), rate});
    }
    std::cout << "workers:\n";
    table.print(std::cout);
  }
  const proof::Json* slowest = stats.find("slowest");
  if (slowest != nullptr) print_slowest_table(*slowest);
  std::cout.flush();

  state.prev_jobs = jobs;
  state.prev_time = now;
  state.have_prev = true;
}

/// `top`: polls a daemon or coordinator's stats verb into a live
/// refreshing dashboard. --once (= --polls 1) and --json make it
/// scriptable: one machine-readable snapshot per poll on stdout.
int cmd_top(const util::CliParser& cli) {
  const std::string endpoint = cli.get_string("socket", "");
  if (endpoint.empty()) throw std::runtime_error("--socket is required");
  const double interval_ms = cli.get_double("interval-ms", 1000.0);
  const bool json = cli.get_bool("json", false);
  long polls = cli.get_int("polls", 0);  // 0 = until SIGINT
  if (cli.get_bool("once", false)) polls = 1;

  service::ConnectRetry retry;
  retry.attempts = static_cast<int>(cli.get_int("connect-retries", 1));
  retry.base_delay_ms = cli.get_double("connect-delay-ms", 50.0);

  std::signal(SIGINT, handle_top_signal);
  std::signal(SIGTERM, handle_top_signal);

  TopState state;
  long done = 0;
  bool first = true;
  while (g_top_interrupted == 0) {
    proof::Json stats;
    {
      service::Client client(endpoint, retry);
      client.send_line(service::control_request_line("stats"));
      if (!client.read_response(stats)) {
        std::cerr << "error: connection closed before a stats reply\n";
        return 1;
      }
    }
    const proof::Json* type = stats.find("type");
    if (type == nullptr || !type->is_string() ||
        type->as_string() != "stats") {
      std::cerr << "error: unexpected reply: " << stats.dump() << "\n";
      return 1;
    }
    if (json) {
      std::cout << stats.dump_pretty() << "\n" << std::flush;
    } else {
      // Redraw in place only on a terminal; piped output stays appendable.
      render_top(stats, endpoint, state,
                 /*clear=*/!first && ::isatty(STDOUT_FILENO) != 0);
    }
    first = false;
    if (polls > 0 && ++done >= polls) break;
    // Sleep in short slices so SIGINT lands promptly between polls.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(interval_ms);
    while (g_top_interrupted == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}

int cmd_fuzz(const util::CliParser& cli) {
  fuzz::CorpusOptions corpus_options;
  corpus_options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  corpus_options.count = static_cast<std::size_t>(cli.get_int("count", 100));
  const std::string family = cli.get_string("design", "all");
  if (family != "all") corpus_options.families = {family};
  corpus_options.max_sequence_length =
      static_cast<std::size_t>(cli.get_int("max-seq", 6));

  fuzz::HarnessOptions harness_options;
  harness_options.engine = parse_engine_flag(cli);
  harness_options.jobs = static_cast<std::size_t>(cli.get_int("jobs", 2));
  harness_options.frames_slack = static_cast<std::size_t>(
      cli.get_int("frames-slack",
                  static_cast<long long>(harness_options.frames_slack)));
  harness_options.frames_cap = static_cast<std::size_t>(cli.get_int(
      "frames-cap", static_cast<long long>(harness_options.frames_cap)));
  harness_options.budget_seconds = cli.get_double("budget", 30.0);
  harness_options.differential = !cli.get_bool("no-differential", false);
  harness_options.check_clean = !cli.get_bool("no-clean", false);
  harness_options.cache_dir = cli.get_string("cache-dir", "");
  const std::string inject = cli.get_string("inject-failure", "");
  if (!inject.empty()) {
    harness_options.inject_failure = [inject](const fuzz::MutationSpec& s) {
      return s.name().find(inject) != std::string::npos;
    };
  }
  const bool quiet = cli.get_bool("quiet", false);

  const std::vector<fuzz::MutationSpec> corpus =
      fuzz::generate_corpus(corpus_options);
  fuzz::CorpusHarness harness(harness_options);
  const fuzz::CorpusReport report = harness.run(corpus, corpus_options.seed);

  // Everything on stdout is deterministic (a pure function of seed and
  // configuration); wall-clock quantiles go to stderr so two runs of the
  // same sweep stay byte-identical on stdout.
  if (!quiet) {
    for (std::size_t i = 0; i < report.variants.size(); ++i) {
      const fuzz::VariantOutcome& v = report.variants[i];
      std::cout << "[" << i << "] " << v.spec.name() << " frames=" << v.frames;
      if (v.reachable) {
        std::cout << " fires@" << v.fire_frame
                  << (v.payload_shown ? "" : " inert");
      } else {
        std::cout << (v.deep ? " deep" : " unreachable");
      }
      if (v.detected) {
        std::cout << " detected(" << v.finding_property << ")";
      } else {
        std::cout << " clean";
      }
      std::cout << (v.ok() ? "" : " FAIL: " + v.failure) << "\n";
    }
    for (const auto& c : report.clean) {
      std::cout << "clean " << c.family << ": "
                << (c.pass ? "pass" : "FAIL " + c.detail) << " ("
                << c.obligations << " obligations, frames=" << c.frames
                << (c.scanned ? ", scanned" : "") << ")\n";
    }
  }
  std::cout << report.summary() << "\n";
  for (const auto& q : report.latency) {
    std::cerr << "latency[" << q.engine << "]: p50=" << q.p50_seconds
              << "s p90=" << q.p90_seconds << "s p99=" << q.p99_seconds
              << "s over " << q.samples << " obligations ("
              << q.total_seconds << "s engine time)\n";
  }

  const std::string out = cli.get_string("out", "");
  if (!out.empty()) {
    const bool timing = !cli.get_bool("no-timing", false);
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot write " + out);
    os << report.to_json(timing).dump_pretty() << "\n";
    std::cout << "corpus written to " << out
              << (timing ? "" : " (timing stripped)") << "\n";
  }
  const std::string signature_out = cli.get_string("signature-out", "");
  if (!signature_out.empty()) {
    std::ofstream os(signature_out);
    if (!os) throw std::runtime_error("cannot write " + signature_out);
    os << report.signature();
    std::cout << "signature written to " << signature_out << "\n";
  }

  bool failed = report.false_positive_count > 0 || report.failure_count > 0;
  const double min_rate = cli.get_double("min-rate", 0.95);
  if (report.detection_rate < min_rate) {
    std::cout << "detection rate below --min-rate=" << min_rate << "\n";
    failed = true;
  }

  if (cli.get_bool("shrink", false) && report.failure_count > 0) {
    for (const auto& v : report.variants) {
      if (v.ok()) continue;
      std::cout << "shrinking failing variant " << v.spec.name() << " ...\n";
      const fuzz::MutationSpec minimal = harness.shrink(v.spec);
      std::cout << "minimal repro: " << minimal.name() << "\n"
                << minimal.to_json().dump_pretty() << "\n";
      break;
    }
  }
  return failed ? 1 : 0;
}

int cmd_gen(const util::CliParser& cli) {
  const std::string family = cli.get_string("family", "mc8051");
  const std::string trojan = cli.get_string("trojan", "");
  designs::Design design;
  if (trojan.empty()) {
    design = designs::build_clean(family);
  } else {
    bool found = false;
    for (const auto& info : designs::trojan_benchmarks()) {
      if (info.name == trojan) {
        design = info.build(true);
        found = true;
      }
    }
    if (!found) {
      std::cerr << "unknown trojan '" << trojan << "'; names:";
      for (const auto& info : designs::trojan_benchmarks()) {
        std::cerr << " " << info.name;
      }
      std::cerr << "\n";
      return 1;
    }
  }
  const std::string out = cli.get_string("out", "");
  if (out.empty()) {
    verilog::write_verilog(std::cout, design.nl, design.name);
  } else {
    std::ofstream os(out);
    verilog::write_verilog(os, design.nl, design.name);
    std::cout << "wrote " << out << " (" << design.nl.size() << " gates)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::cout << "trojanscout " << TROJANSCOUT_GIT_REV << "\n";
    return 0;
  }
  g_self_exe = argv[0];
  const util::CliParser cli(argc - 1, argv + 1);
  try {
    if (command == "info") return cmd_info(cli);
    if (command == "check") return cmd_check(cli);
    if (command == "audit") return cmd_audit(cli);
    if (command == "prove") return cmd_prove(cli);
    if (command == "gen") return cmd_gen(cli);
    if (command == "fuzz") return cmd_fuzz(cli);
    if (command == "certify") return cmd_certify(cli);
    if (command == "check-cert") return cmd_check_cert(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "serve-fleet") return cmd_serve_fleet(cli);
    if (command == "submit") return cmd_submit(cli);
    if (command == "top") return cmd_top(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
