// RAII span tracing exported as Chrome trace_event JSON.
//
// A Span marks one phase of work (an obligation, an unroll step, a SAT
// solve). Spans nest per thread through a thread-local current-span id, and
// cross thread-pool boundaries through an *explicit parent id*: the
// scheduler creates a root span, passes root.id() into each worker task,
// and the task's span names it as parent — so a full `soc_audit --jobs=N`
// run reconstructs as one span tree per obligation in Perfetto /
// chrome://tracing.
//
// Tracing is off unless a TraceRecorder is installed with set_global();
// with no recorder a Span construction is a single relaxed atomic load.
// Events are emitted as matched "B"/"E" (duration begin/end) pairs with
// span_id/parent_id args, timestamps in microseconds on the steady clock
// since the recorder's construction. A span may also carry integer args of
// its own (Span::arg), written on its "E" event next to span_id: the
// engines put each frame's counter deltas on their `bmc:frame` /
// `atpg:frame` / `pdr:frontier` spans, so the trace shows which frame got
// hard and the span's B/E pair says how long it took. The work before the
// first frame (`bmc:setup`, `atpg:random-sim`, `pdr:reset`) carries the
// same counter args, so a run's span args sum to its counters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <memory>
#include <mutex>

namespace trojanscout::telemetry {

/// A span's own args, in the order they were set. Keys must not be
/// "span_id" or "parent_id", which the Chrome export writes itself.
using TraceArgs = std::vector<std::pair<std::string, std::uint64_t>>;

/// One begin/end trace event as recorded. Public so the phase profiler
/// (telemetry/profile.hpp) can fold the span tree without reparsing the
/// Chrome JSON it serializes to.
struct TraceEvent {
  bool begin = true;
  std::string name;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  int tid = 0;
  std::uint64_t ts_us = 0;
  /// Span args; only end events carry them.
  TraceArgs args = {};
};

class TraceRecorder {
 public:
  TraceRecorder();

  /// The installed recorder, or nullptr when tracing is off.
  static TraceRecorder* global();
  /// Installs (or removes, with nullptr) the process-global recorder. The
  /// caller owns the recorder and must keep it alive while installed and
  /// until every live Span that observed it has been destroyed.
  static void set_global(TraceRecorder* recorder);

  /// Fresh process-unique span id (never 0; 0 means "no parent").
  std::uint64_t next_id();

  /// Microseconds since the recorder was constructed (steady clock).
  [[nodiscard]] std::uint64_t now_us() const;

  /// Small dense id for the calling thread (assigned on first use).
  static int thread_tid();

  void begin_event(const std::string& name, std::uint64_t span_id,
                   std::uint64_t parent_id, int tid, std::uint64_t ts_us);
  void end_event(const std::string& name, std::uint64_t span_id, int tid,
                 std::uint64_t ts_us, TraceArgs args = {});

  [[nodiscard]] std::size_t event_count() const;

  /// Snapshot of all recorded events, in recording order. Per-thread
  /// subsequences are chronological; the interleaving across threads is not.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Drops all recorded events (ids keep advancing — they are process
  /// global). Lets a long-lived recorder bound its memory between jobs;
  /// a Span still live across a clear() leaves an unmatched end event,
  /// which per-job reachability filtering discards.
  void clear();

  /// The full {"traceEvents":[...]} document (Chrome trace_event JSON
  /// array format — loadable in Perfetto and chrome://tracing).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`; false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::uint64_t epoch_ns_ = 0;
  std::uint64_t next_id_ = 1;
};

class Span {
 public:
  /// Child of the calling thread's current span (or a root if none).
  explicit Span(std::string name);
  /// Child of an explicit span — the cross-thread form: the parent id was
  /// produced on another thread (e.g. the scheduler's root span).
  Span(std::string name, std::uint64_t parent_id);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when tracing is off) — pass to tasks as their
  /// explicit parent.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// The calling thread's innermost live span id (0 if none).
  static std::uint64_t current_id();

  /// Attaches an integer arg, written on this span's end event. A no-op
  /// when tracing was off at construction.
  void arg(std::string_view key, std::uint64_t value);

 private:
  void open(std::uint64_t parent_id);

  TraceRecorder* recorder_ = nullptr;  // captured at construction
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t prev_current_ = 0;
  TraceArgs args_;
};

}  // namespace trojanscout::telemetry
