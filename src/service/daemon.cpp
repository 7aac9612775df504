#include "service/daemon.hpp"

#include <unistd.h>

#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/verdict_codec.hpp"
#include "designs/design.hpp"
#include "proof/json.hpp"
#include "service/telemetry_wire.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/logging.hpp"

namespace trojanscout::service {

namespace {

using proof::Json;

const char* source_name(int source) {
  switch (source) {
    case 0: return "cache";
    case 1: return "computed";
    case 2: return "shared";
  }
  return "?";
}

// Process-wide refcounted lease on a global TraceRecorder, held for the
// duration of each traced job (one carrying a "trace_id"). The engines
// record through telemetry::Span's process-global recorder pointer, so a
// worker can only capture their spans by installing one — but a long-lived
// daemon must not accumulate events forever, so the recorder is live (and
// its buffer cleared) only while traced jobs are in flight. Concurrent
// traced jobs share the lease; their events are separated afterwards by
// per-job reachability filtering from each job's root span ids. If some
// other recorder is already installed globally (in-process tests, future
// `serve --trace-out`), the lease adopts it and leaves ownership alone.
std::mutex g_lease_mutex;
int g_lease_count = 0;
bool g_lease_external = false;
telemetry::TraceRecorder* g_lease_recorder = nullptr;  // kept alive forever:
// a Span captured the pointer at construction and may end after release

class TraceLease {
 public:
  TraceLease() {
    std::lock_guard<std::mutex> lock(g_lease_mutex);
    if (g_lease_count++ == 0) {
      g_lease_external = telemetry::TraceRecorder::global() != nullptr;
      if (!g_lease_external) {
        if (g_lease_recorder == nullptr) {
          g_lease_recorder = new telemetry::TraceRecorder();
        } else {
          g_lease_recorder->clear();
        }
        telemetry::TraceRecorder::set_global(g_lease_recorder);
      }
    }
    recorder_ = telemetry::TraceRecorder::global();
  }

  ~TraceLease() {
    std::lock_guard<std::mutex> lock(g_lease_mutex);
    if (--g_lease_count == 0 && !g_lease_external) {
      telemetry::TraceRecorder::set_global(nullptr);
      g_lease_recorder->clear();
    }
  }

  TraceLease(const TraceLease&) = delete;
  TraceLease& operator=(const TraceLease&) = delete;

  [[nodiscard]] telemetry::TraceRecorder* recorder() const {
    return recorder_;
  }

 private:
  telemetry::TraceRecorder* recorder_ = nullptr;
};

}  // namespace

AuditDaemon::AuditDaemon(Options options)
    : options_(std::move(options)),
      server_(
          LineServer::Options{options_.endpoint,
                              options_.read_timeout_seconds,
                              /*max_line_bytes=*/1 << 20,
                              /*backlog=*/64},
          [this](const std::string& line, const LineServer::Sender& send) {
            return handle_line(line, send);
          }),
      tier_(cache::TieredCache::Options{
          options_.cache, options_.l2, options_.claim_wait_seconds,
          options_.claim_stale_seconds, /*poll_interval_seconds=*/0.002}) {}

AuditDaemon::~AuditDaemon() { stop(); }

void AuditDaemon::start() {
  pool_ = std::make_unique<util::ThreadPool>(options_.jobs);
  try {
    server_.start();
  } catch (...) {
    pool_.reset();
    throw;
  }
  started_at_ = std::chrono::steady_clock::now();
  // A service's counters must be live regardless of the TROJANSCOUT_TELEMETRY
  // env var: the stats reply ships the full registry snapshot, and the fleet
  // coordinator merges it per worker.
  telemetry::Registry::global().set_enabled(true);
  TS_LOG_INFO("service: listening on %s (%zu engine workers)",
              bound_endpoint().c_str(), pool_->thread_count());
}

void AuditDaemon::wait() { server_.wait(); }

void AuditDaemon::stop() {
  server_.stop();
  pool_.reset();
}

LineServer::Disposition AuditDaemon::handle_line(
    const std::string& line, const LineServer::Sender& send) {
  Request request;
  std::string error;
  if (!parse_request(line, request, &error)) {
    server_.note_bad_request();
    if (!send(error_response_line("", error, "bad_request"))) {
      return LineServer::Disposition::kClose;
    }
    return LineServer::Disposition::kKeep;
  }
  if (request.op == Request::Op::kPing) {
    Json j = Json::object();
    j.set("type", "pong");
    if (!send(j.dump())) return LineServer::Disposition::kClose;
  } else if (request.op == Request::Op::kStats) {
    Json j = Json::object();
    j.set("type", "stats");
    j.set("endpoint", bound_endpoint());
    j.set("pid", static_cast<std::int64_t>(::getpid()));
    const double uptime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    j.set("uptime_s", uptime_s);
    // Monotonic milliseconds: what dashboards should subtract, immune to
    // wall-clock steps.
    j.set("uptime_ms", static_cast<std::uint64_t>(uptime_s * 1000.0));
    j.set("jobs_completed", jobs_completed_.load(std::memory_order_relaxed));
    j.set("shared_obligations", shared_hits_.load(std::memory_order_relaxed));
    j.set("bad_requests", server_.bad_requests());
    if (options_.cache != nullptr) {
      const cache::CacheStats stats = options_.cache->stats();
      j.set("cache_mode", cache::cache_mode_name(options_.cache->mode()));
      j.set("cache_hits", stats.hits);
      j.set("cache_misses", stats.misses);
      j.set("cache_stores", stats.stores);
      j.set("cache_evictions", stats.evictions);
      j.set("cache_corrupt_skipped", stats.corrupt_skipped);
      j.set("cache_entries",
            static_cast<std::uint64_t>(options_.cache->entry_count()));
      j.set("cache_bytes", options_.cache->total_bytes());
    } else {
      j.set("cache_mode", "off");
    }
    if (options_.l2 != nullptr) {
      const cache::CacheStats stats = options_.l2->stats();
      j.set("l2_dir", options_.l2->dir());
      j.set("l2_hits", stats.hits);
      j.set("l2_misses", stats.misses);
      j.set("l2_stores", stats.stores);
      j.set("l2_entries",
            static_cast<std::uint64_t>(options_.l2->entry_count()));
    }
    // The full registry snapshot rides along so the fleet coordinator can
    // merge per-worker telemetry exactly (counters summed, histogram
    // buckets added) instead of hand-picking a few atomics.
    j.set("telemetry",
          snapshot_to_json(telemetry::Registry::global().snapshot()));
    if (!send(j.dump())) return LineServer::Disposition::kClose;
  } else if (request.op == Request::Op::kShutdown) {
    Json j = Json::object();
    j.set("type", "bye");
    send(j.dump());
    TS_LOG_INFO("service: shutdown requested");
    return LineServer::Disposition::kShutdown;
  } else {
    handle_audit(send, request.job);
  }
  return LineServer::Disposition::kKeep;
}

std::shared_ptr<AuditDaemon::Execution> AuditDaemon::claim(
    const std::string& key, bool& created) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    created = false;
    return it->second;
  }
  auto exec = std::make_shared<Execution>();
  inflight_.emplace(key, exec);
  created = true;
  return exec;
}

void AuditDaemon::publish(const std::string& key,
                          const std::shared_ptr<Execution>& exec,
                          core::CheckResult result, int source) {
  {
    std::lock_guard<std::mutex> lock(exec->mutex);
    exec->result = std::move(result);
    exec->source = source;
    exec->done = true;
  }
  exec->cv.notify_all();
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_.erase(key);
}

void AuditDaemon::handle_audit(const LineServer::Sender& send,
                               const AuditJob& job) {
  // Job-lifetime state shared with pool tasks; tasks may briefly outlive
  // an aborted job (client hung up), so everything is shared_ptr-owned.
  auto design = std::make_shared<designs::Design>();
  const core::DetectorOptions detector_options = job.detector_options();
  try {
    *design = load_job_design(job);
  } catch (const std::exception& e) {
    send(error_response_line(job.id, e.what()));
    return;
  }

  const core::TrojanDetector merger(*design, detector_options);
  const std::vector<core::Obligation> obligations =
      merger.enumerate_obligations();

  // The fleet coordinator shards a job by sending each worker the subset
  // of obligation indices whose keys hash to that worker's ring segment.
  std::vector<std::size_t> indices;
  if (job.subset.empty()) {
    indices.resize(obligations.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  } else {
    for (const std::size_t index : job.subset) {
      if (index >= obligations.size()) {
        send(error_response_line(
            job.id, "subset index " + std::to_string(index) +
                        " out of range (job has " +
                        std::to_string(obligations.size()) + " obligations)"));
        return;
      }
      indices.push_back(index);
    }
  }

  auto worker =
      std::make_shared<core::TrojanDetector>(*design, detector_options);
  // Keep `design` alive as long as any task holds `worker` (the detector
  // stores a reference, not a copy).
  const cache::ObligationKeyer keyer(*design, detector_options,
                                     /*fail_fast=*/false);

  // A job carrying a trace id records its obligations under the leased
  // recorder and ships the span rows back on the report line; the merge
  // loop below only releases the lease after every span has closed.
  const bool tracing = !job.trace_id.empty();
  std::optional<TraceLease> lease;
  if (tracing) lease.emplace();
  telemetry::TraceRecorder* recorder = tracing ? lease->recorder() : nullptr;
  // Coordinator-side parent span per slot (parent_spans aligns with the
  // subset, which is exactly `indices` when present).
  const auto parent_of = [&job](std::size_t slot_index) -> std::uint64_t {
    return slot_index < job.parent_spans.size() ? job.parent_spans[slot_index]
                                                : 0;
  };

  {
    Json j = Json::object();
    j.set("type", "accepted");
    j.set("id", job.id);
    j.set("design", job.design_path);
    j.set("obligations", indices.size());
    if (recorder != nullptr) {
      // Our recorder clock "now", read between the coordinator's send and
      // receive — the clock-offset handshake it rebases our ts_us with.
      j.set("trace_now_us", recorder->now_us());
    }
    if (!send(j.dump())) return;
  }

  // The engines copy the netlist per run; materialize the shared fanout
  // cache once before tasks race on it.
  (void)design->nl.fanouts();

  enum Source { kCache = 0, kComputed = 1, kShared = 2 };
  struct Slot {
    int source = kComputed;
    bool ready = false;
    std::uint64_t root_id = 0;  // this job's root span for the obligation
    core::CheckResult result;
    std::shared_ptr<Execution> exec;
  };
  std::vector<Slot> slots(indices.size());

  // Claim before consulting the cache: only the claim owner looks up and
  // (on a miss) computes. Since tasks store to the cache *before* they
  // publish-and-release the claim, any later claimer's lookup hits — each
  // obligation runs an engine at most once across all concurrent jobs.
  // The same discipline repeats one level up: the pool task races for the
  // fleet-wide L2 claim before running an engine, so an obligation also
  // computes at most once across worker *processes* sharing the L2 dir.
  for (std::size_t slot_index = 0; slot_index < indices.size(); ++slot_index) {
    Slot& slot = slots[slot_index];
    const core::Obligation& obligation = obligations[indices[slot_index]];
    const std::string key = keyer.key(obligation);
    bool created = false;
    slot.exec = claim(key, created);
    if (!created) {
      slot.source = kShared;
      shared_hits_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::optional<std::string> payload = tier_.lookup(key);
    if (payload.has_value()) {
      core::CheckResult parsed;
      std::string parse_error;
      if (cache::verdict_from_json(*payload, parsed, nullptr, &parse_error)) {
        std::optional<telemetry::Span> span;
        if (tracing) {
          span.emplace("obligation:" + obligation.property_name(),
                       parent_of(slot_index));
          slot.root_id = span->id();
        }
        slot.source = kCache;
        slot.ready = true;
        slot.result = parsed;
        publish(key, slot.exec, std::move(parsed), kCache);
        continue;
      }
      TS_LOG_WARN("service: rejecting cache entry %s: %s", key.c_str(),
                  parse_error.c_str());
      tier_.invalidate(key);
    }
    slot.source = kComputed;
    pool_->submit([this, worker, design, key, obligation, exec = slot.exec,
                   tracing, parent = parent_of(slot_index)] {
      core::CheckResult result;
      int source = kComputed;
      {
        // The span closes before publish(): the job thread may snapshot
        // the recorder for the report as soon as every slot is done, and
        // the end event must already be recorded by then.
        std::optional<telemetry::Span> span;
        if (tracing) {
          span.emplace("obligation:" + obligation.property_name(), parent);
          if (span->id() != 0) {
            std::lock_guard<std::mutex> lock(exec->mutex);
            exec->span_id = span->id();
          }
        }
        // Fleet-wide claim race: exactly one worker process computes a
        // missing key; the rest adopt the published entry as "shared".
        std::string resolved;
        cache::TieredCache::Claim l2_claim = tier_.acquire(key, resolved);
        bool adopted = false;
        if (l2_claim == cache::TieredCache::Claim::kResolved) {
          core::CheckResult parsed;
          std::string parse_error;
          if (cache::verdict_from_json(resolved, parsed, nullptr,
                                       &parse_error)) {
            result = std::move(parsed);
            source = kShared;
            adopted = true;
          } else {
            // corrupt publication: fall back to computing
            tier_.invalidate(key);
          }
        }
        if (!adopted) {
          result = worker->run_obligation(obligation);
          if (!result.cancelled) {
            tier_.store(key, cache::verdict_to_json(obligation, result,
                                                    /*cert_ref=*/""));
          }
          if (l2_claim == cache::TieredCache::Claim::kOwner) {
            tier_.release(key);
          }
        }
      }
      publish(key, exec, std::move(result), source);
      (void)design;  // owns the netlist `worker` references
    });
  }

  core::DetectionReport report;
  report.trust_bound_frames = detector_options.engine.max_frames;
  std::uint64_t counts[3] = {0, 0, 0};
  bool client_alive = true;
  for (std::size_t slot_index = 0; slot_index < indices.size(); ++slot_index) {
    Slot& slot = slots[slot_index];
    const core::Obligation& obligation = obligations[indices[slot_index]];
    if (!slot.ready) {
      const bool in_process_share = slot.source == kShared;
      // An in-process sharer's obligation is recorded elsewhere (under the
      // creator job's root), so it roots a span of its own covering the
      // wait — its trace shows where the time went, the creator's shows
      // the engine work. Declared before the lock so the end event is
      // recorded (destructor order) after the wait completes but before
      // this job streams or snapshots anything.
      std::optional<telemetry::Span> wait_span;
      if (tracing && in_process_share) {
        wait_span.emplace("obligation:" + obligation.property_name(),
                          parent_of(slot_index));
        slot.root_id = wait_span->id();
      }
      std::unique_lock<std::mutex> lock(slot.exec->mutex);
      slot.exec->cv.wait(lock, [&] { return slot.exec->done; });
      slot.result = slot.exec->result;
      // A creator's slot adopts where its execution actually got the
      // verdict (engine, or another fleet worker via the L2 claim); an
      // in-process sharer stays "shared" regardless.
      if (!in_process_share) {
        slot.source = slot.exec->source;
        slot.root_id = slot.exec->span_id;
      }
      slot.ready = true;
    }
    counts[slot.source]++;
    merger.merge_obligation(report, obligation, slot.result);
    if (client_alive) {
      Json j = Json::object();
      j.set("type", "obligation");
      j.set("id", job.id);
      j.set("index", indices[slot_index]);
      j.set("property", obligation.property_name());
      j.set("status", slot.result.status);
      j.set("violated", slot.result.violated);
      j.set("bound_reached", slot.result.bound_reached);
      j.set("frames_completed", slot.result.frames_completed);
      j.set("source", source_name(slot.source));
      if (job.wire_verdicts) {
        // The cache codec is the wire codec: the coordinator reconstructs
        // the exact CheckResult (witness bits included) that a warm cache
        // hit would restore, so the merged fleet report is byte-identical.
        Json verdict;
        std::string parse_error;
        if (Json::parse(cache::verdict_to_json(obligation, slot.result, ""),
                        verdict, &parse_error)) {
          j.set("verdict", std::move(verdict));
        }
      }
      client_alive = send(j.dump());
    }
  }

  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  if (!client_alive) return;
  Json j = Json::object();
  j.set("type", "report");
  j.set("id", job.id);
  j.set("trojan_found", report.trojan_found);
  j.set("trust_bound_frames", report.trust_bound_frames);
  j.set("summary", report.summary());
  j.set("signature", report.signature());
  j.set("cache_hits", counts[kCache]);
  j.set("shared", counts[kShared]);
  j.set("computed", counts[kComputed]);
  if (recorder != nullptr) {
    // Ship this job's span records (and only this job's: reachability from
    // its root ids separates concurrent jobs sharing the recorder) for
    // coordinator-side stitching.
    std::vector<std::uint64_t> roots;
    roots.reserve(slots.size());
    for (const Slot& slot : slots) {
      if (slot.root_id != 0) roots.push_back(slot.root_id);
    }
    j.set("trace_id", job.trace_id);
    j.set("spans",
          trace_events_to_json(filter_reachable(recorder->events(), roots)));
  }
  send(j.dump());
}

}  // namespace trojanscout::service
