// Fleet coordinator: `trojanscout_cli serve-fleet` — the front door of a
// horizontally scaled audit tier.
//
// Speaks the exact same NDJSON protocol as a single AuditDaemon (clients
// cannot tell them apart), but executes nothing itself: per audit job it
// enumerates Algorithm 1's obligations, keys each one with the same
// 128-bit ObligationKeyer digest the verdict cache uses, and shards the
// indices across worker daemons by consistent hash of that digest
// (fleet::ShardRing). Keying the ring on the cache key means a given
// obligation always lands on the same worker, so that worker's private L1
// cache accumulates exactly the verdicts it will be asked for again.
//
// Workers receive ordinary audit requests carrying a "subset" of indices
// and "wire_verdicts":true; they stream back full verdict payloads (the
// cache codec is the wire codec), which the coordinator parses and merges
// in enumeration order — the merged DetectionReport signature is
// byte-identical to a direct single-process audit.
//
// Failure handling:
//   * admission control — a job whose shard would exceed a worker's
//     queue_capacity outstanding obligations is refused up front with a
//     structured {"type":"retry-after"} response (never a silent drop);
//     clients back off and resubmit;
//   * worker death — a connect failure, mid-stream EOF, or read timeout
//     marks the worker dead, drops it from the ring, and re-shards that
//     worker's unfinished obligations across the survivors; the job
//     completes as long as one worker lives;
//   * health checks — a background thread pings every worker and both
//     evicts dead ones early and re-adds revived ones to the ring.
//
// Observability plane (PR 8):
//   * trace stitching — with `trace_out` set, every job gets a trace id
//     and a coordinator-side span per obligation; workers root their
//     engine spans under those ids and ship the span rows back on the
//     report line. The coordinator rebases worker timestamps through a
//     per-dispatch clock-offset handshake (midpoint of send/accept
//     against the worker's reported recorder clock), renumbers worker
//     span ids and thread ids into its own namespace, and keeps one
//     Perfetto-loadable Chrome trace of the whole run (rewritten to
//     `trace_out` after every job and at stop()). The recorder
//     accumulates for the coordinator's lifetime — the tap is meant for
//     bounded runs (CI smokes, incident captures), not always-on duty.
//   * merged telemetry — `stats` fans out to live workers and returns the
//     exact merge of their Registry snapshots (counters summed, log2-µs
//     histogram buckets added) plus a per-worker breakdown and the
//     coordinator's own snapshot.
//   * tail attribution — per dispatch, the worker's span rows are folded
//     through telemetry::build_profile; the slowest obligations (phase
//     attributed) surface in the job's report line and a run-lifetime
//     top-N table in the stats reply.
//   * structured events — worker up/down/evicted/rejoined, re-shard
//     batches, and retry-after refusals go to the process-global
//     telemetry::EventLog when one is installed (`--events-out`).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "fleet/shard.hpp"
#include "service/line_server.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "telemetry/span.hpp"

namespace trojanscout::proof {
class Json;
}

namespace trojanscout::fleet {

class FleetCoordinator {
 public:
  struct Options {
    /// Client-facing endpoint ("unix:/path", bare path, "tcp:host:port").
    std::string endpoint;
    /// Worker daemon endpoints (each a `trojanscout_cli serve` instance).
    std::vector<std::string> workers;
    /// Per-worker admission bound: a job is refused with retry-after when
    /// its shard would push a worker past this many outstanding
    /// obligations.
    std::size_t queue_capacity = 64;
    /// Client-facing idle timeout; 0 disables.
    double read_timeout_seconds = 0;
    /// Per-obligation-stream read timeout against a worker; expiry counts
    /// as worker death (0 disables — not recommended).
    double worker_timeout_seconds = 600;
    /// Connect policy against workers (retries cover worker restarts).
    service::ConnectRetry worker_connect{3, 50, 500};
    /// Background ping interval; 0 disables health checking (dispatch
    /// failures still mark workers dead).
    double health_interval_seconds = 2.0;
    /// Hint returned with retry-after responses.
    std::uint64_t retry_after_ms = 200;
    /// Path for the stitched cross-process Chrome trace; empty disables
    /// tracing (jobs are dispatched without trace ids).
    std::string trace_out;
  };

  explicit FleetCoordinator(Options options);
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  /// Binds the endpoint and starts the health thread. Throws
  /// std::runtime_error on a malformed worker endpoint or bind failure.
  void start();

  /// Blocks until a client sends {"op":"shutdown"} or stop() is called.
  void wait();

  /// Stops serving and joins the health thread. Workers are NOT shut
  /// down — their lifetime belongs to whoever spawned them. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return server_.running(); }
  [[nodiscard]] std::string bound_endpoint() const {
    return server_.bound_endpoint().to_string();
  }
  [[nodiscard]] std::uint64_t jobs_completed() const {
    return jobs_completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retry_after_sent() const {
    return retry_after_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reshards() const {
    return reshards_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::string name;  // canonical endpoint string == ring node id
    service::Endpoint endpoint;
    bool alive = true;            // guarded by ring_mutex_
    std::size_t outstanding = 0;  // guarded by ring_mutex_
  };

  /// One obligation's parsed wire verdict.
  struct ObSlot {
    bool ready = false;
    std::string source = "computed";
    core::CheckResult result;
  };

  enum class GroupStatus {
    kOk,     ///< every obligation of the group streamed back
    kDead,   ///< worker unreachable / died mid-stream → re-shard the rest
    kError,  ///< worker returned a structured error → abort the job
  };

  /// One obligation's phase-attributed cost, folded from a worker's span
  /// rows — a row of the slowest-obligations tables (report + stats).
  struct TailEntry {
    std::string property;
    std::string worker;
    std::uint64_t total_us = 0;
    std::vector<std::pair<std::string, std::uint64_t>> phases;  // name, us
  };

  /// Per-job trace state shared between the job thread and its dispatch
  /// threads (only allocated when tracing is on).
  struct JobTrace {
    std::string trace_id;
    /// Coordinator-side wrapper span per obligation index; workers parent
    /// their subset under these ids.
    std::vector<std::uint64_t> wrapper_ids;
    std::mutex mutex;  // guards `slowest`
    std::vector<TailEntry> slowest;
  };

  service::LineServer::Disposition handle_line(
      const std::string& line, const service::LineServer::Sender& send);
  void handle_audit(const service::LineServer::Sender& send,
                    const service::AuditJob& job);
  /// Sends `group` (original enumeration indices) to `worker` as a subset
  /// audit and fills `slots` from the streamed wire verdicts. With `trace`
  /// non-null, also runs the clock handshake, stitches the worker's span
  /// rows into recorder_, and feeds tail attribution.
  GroupStatus dispatch_group(const Worker& worker,
                             const service::AuditJob& base,
                             const std::vector<std::size_t>& group,
                             std::vector<ObSlot>& slots, JobTrace* trace,
                             std::string& error);

  /// Renumbers one worker's span rows (ids, tids, timestamps) into the
  /// coordinator's namespace and appends them to recorder_.
  void stitch_worker_events(
      const std::vector<telemetry::TraceEvent>& worker_events,
      std::int64_t clock_offset_us, const JobTrace& trace);

  /// Folds worker-local span rows into per-obligation cost entries for the
  /// job's report and the run-lifetime top-N (tail_).
  void note_tail(const std::string& worker_name,
                 const std::vector<telemetry::TraceEvent>& worker_events,
                 JobTrace& trace);

  /// Top `limit` entries as the "slowest" JSON array (property, worker,
  /// total_us, per-phase exclusive µs).
  static proof::Json tail_to_json(const std::vector<TailEntry>& entries,
                                  std::size_t limit);

  void mark_dead(const std::string& name, const std::string& reason);
  bool ping_worker(const service::Endpoint& endpoint) const;
  void health_loop();

  Options options_;
  service::LineServer server_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex ring_mutex_;  // guards ring_ + Worker::alive/outstanding
  ShardRing ring_;

  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> retry_after_sent_{0};
  std::atomic<std::uint64_t> reshards_{0};
  std::chrono::steady_clock::time_point started_at_{};

  /// Stitched-trace recorder (only with Options::trace_out). Coordinator
  /// spans are recorded through explicit begin/end calls — the recorder is
  /// never installed globally, so in-process workers (tests) can lease
  /// their own without interference.
  std::unique_ptr<telemetry::TraceRecorder> recorder_;
  std::atomic<std::uint64_t> trace_seq_{0};
  /// Namespaced tids for stitched worker threads, far above the
  /// coordinator's own dense tids.
  std::atomic<int> stitch_tids_{1000};
  std::mutex tail_mutex_;
  std::vector<TailEntry> tail_;  // run-lifetime slowest, sorted desc

  std::thread health_thread_;
  bool health_stop_ = false;  // guarded by health_mutex_
  std::mutex health_mutex_;
  std::condition_variable health_cv_;
};

}  // namespace trojanscout::fleet
