#include "telemetry/span.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>

#include "util/json_escape.hpp"

namespace trojanscout::telemetry {

namespace {

std::atomic<TraceRecorder*> g_recorder{nullptr};
std::atomic<std::uint64_t> g_span_ids{1};
std::atomic<int> g_tids{1};

thread_local std::uint64_t tls_current_span = 0;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(steady_ns()) {}

TraceRecorder* TraceRecorder::global() {
  return g_recorder.load(std::memory_order_acquire);
}

void TraceRecorder::set_global(TraceRecorder* recorder) {
  g_recorder.store(recorder, std::memory_order_release);
}

std::uint64_t TraceRecorder::next_id() {
  return g_span_ids.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::now_us() const {
  return (steady_ns() - epoch_ns_) / 1000u;
}

int TraceRecorder::thread_tid() {
  thread_local int tid = g_tids.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void TraceRecorder::begin_event(const std::string& name, std::uint64_t span_id,
                                std::uint64_t parent_id, int tid,
                                std::uint64_t ts_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({true, name, span_id, parent_id, tid, ts_us});
}

void TraceRecorder::end_event(const std::string& name, std::uint64_t span_id,
                              int tid, std::uint64_t ts_us, TraceArgs args) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({false, name, span_id, 0, tid, ts_us, std::move(args)});
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

std::string TraceRecorder::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const TraceEvent& event : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    util::append_json_escaped(out, event.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"%c\",\"ts\":%" PRIu64
                  ",\"pid\":1,\"tid\":%d,\"args\":{\"span_id\":%" PRIu64,
                  event.begin ? 'B' : 'E', event.ts_us, event.tid,
                  event.span_id);
    out += buf;
    if (event.begin) {
      std::snprintf(buf, sizeof(buf), ",\"parent_id\":%" PRIu64,
                    event.parent_id);
      out += buf;
    }
    for (const auto& [key, value] : event.args) {
      out += ",\"";
      util::append_json_escaped(out, key);
      std::snprintf(buf, sizeof(buf), "\":%" PRIu64, value);
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool TraceRecorder::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << to_chrome_json() << "\n";
  return os.good();
}

Span::Span(std::string name) : name_(std::move(name)) {
  open(tls_current_span);
}

Span::Span(std::string name, std::uint64_t parent_id) : name_(std::move(name)) {
  open(parent_id);
}

void Span::open(std::uint64_t parent_id) {
  recorder_ = TraceRecorder::global();
  if (recorder_ == nullptr) return;
  id_ = recorder_->next_id();
  prev_current_ = tls_current_span;
  tls_current_span = id_;
  recorder_->begin_event(name_, id_, parent_id, TraceRecorder::thread_tid(),
                         recorder_->now_us());
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  recorder_->end_event(name_, id_, TraceRecorder::thread_tid(),
                       recorder_->now_us(), std::move(args_));
  tls_current_span = prev_current_;
}

std::uint64_t Span::current_id() { return tls_current_span; }

void Span::arg(std::string_view key, std::uint64_t value) {
  if (recorder_ == nullptr) return;
  args_.emplace_back(key, value);
}

}  // namespace trojanscout::telemetry
