// Audit daemon: `trojanscout_cli serve` — one worker of the audit tier.
//
// Accepts connections on a Unix-domain or TCP socket (service::LineServer
// owns the transport, framing, and request-robustness layer) and executes
// audit jobs on one shared work-stealing thread pool, so a batch submitted
// over many connections saturates the machine exactly like one big
// parallel audit. Four layers keep repeated work off the engines:
//
//   1. the worker-private L1 verdict cache (optional, shared with the
//      CLI's --cache-dir) answers obligations solved in any previous run;
//   2. the fleet-shared L2 cache (optional, --l2-dir) answers obligations
//      solved by *any* worker of the fleet, promoting hits into L1;
//   3. an in-flight table dedupes identical obligations across concurrent
//      jobs in this process, and the L2 claim protocol
//      (cache::TieredCache) extends that across worker processes — the
//      second claimer waits for the first's engine run instead of
//      re-solving (reported as "shared");
//   4. everything else is computed once and fed back through both tiers.
//
// Per job the daemon enumerates Algorithm 1's obligations with the same
// TrojanDetector a direct audit uses and merges results in enumeration
// order, so the streamed final report carries a DetectionReport signature
// byte-identical to `trojanscout_cli audit` with the same flags. A job
// carrying a "subset" (the fleet coordinator's shard) executes only those
// indices and can return full wire verdicts for coordinator-side merging.
//
// Threading model: LineServer runs one accept thread and one thread per
// connection (jobs on a connection run sequentially; concurrency comes
// from multiple connections), engine runs on the shared pool. Connection
// threads wait on executions but never run on the pool, so a jobs=1 pool
// cannot deadlock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cache/tiered.hpp"
#include "cache/verdict_cache.hpp"
#include "core/detector.hpp"
#include "service/line_server.hpp"
#include "service/protocol.hpp"
#include "util/thread_pool.hpp"

namespace trojanscout::service {

class AuditDaemon {
 public:
  struct Options {
    /// Endpoint string: "unix:/path", a bare socket path, or
    /// "tcp:host:port" (port 0 = ephemeral; see bound_endpoint()).
    std::string endpoint;
    /// Engine worker threads in the shared pool; 0 = hardware threads.
    std::size_t jobs = 0;
    /// Optional worker-private L1 verdict cache.
    cache::VerdictCache* cache = nullptr;
    /// Optional fleet-shared L2 verdict cache (claim-first dedupe).
    cache::VerdictCache* l2 = nullptr;
    /// Per-connection receive timeout; 0 disables.
    double read_timeout_seconds = 0;
    /// Claim-protocol tunables (see cache::TieredCache::Options).
    double claim_wait_seconds = 300.0;
    double claim_stale_seconds = 300.0;
  };

  explicit AuditDaemon(Options options);
  ~AuditDaemon();

  AuditDaemon(const AuditDaemon&) = delete;
  AuditDaemon& operator=(const AuditDaemon&) = delete;

  /// Binds the socket and spawns the accept thread. Throws
  /// std::runtime_error when the endpoint cannot be bound.
  void start();

  /// Blocks until a client sends {"op":"shutdown"} (or stop() is called
  /// from another thread).
  void wait();

  /// Stops accepting, joins every connection thread (in-flight jobs finish
  /// first), and removes a Unix socket file. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return server_.running(); }
  [[nodiscard]] std::uint64_t jobs_completed() const {
    return jobs_completed_.load(std::memory_order_relaxed);
  }
  /// Resolved listen endpoint (carries the kernel-assigned port for
  /// tcp:...:0). Valid after start().
  [[nodiscard]] std::string bound_endpoint() const {
    return server_.bound_endpoint().to_string();
  }

 private:
  /// One obligation's engine run, shared between every job that needs it.
  struct Execution {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    int source = 1;  // Source enum value of where the result came from
    /// Root span id of the obligation's work when tracing (0 otherwise);
    /// written by the computing task under `mutex`, read by its creator
    /// job for per-job reachability filtering.
    std::uint64_t span_id = 0;
    core::CheckResult result;
  };

  LineServer::Disposition handle_line(const std::string& line,
                                      const LineServer::Sender& send);
  void handle_audit(const LineServer::Sender& send, const AuditJob& job);

  /// Returns the execution registered under `key`, creating it (and
  /// setting `created`) when this caller is the one that must compute it.
  std::shared_ptr<Execution> claim(const std::string& key, bool& created);
  void publish(const std::string& key, const std::shared_ptr<Execution>& exec,
               core::CheckResult result, int source);

  Options options_;
  LineServer server_;
  cache::TieredCache tier_;
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> shared_hits_{0};
  std::chrono::steady_clock::time_point started_at_{};

  std::unique_ptr<util::ThreadPool> pool_;

  std::mutex inflight_mutex_;
  std::map<std::string, std::shared_ptr<Execution>> inflight_;
};

}  // namespace trojanscout::service
