#include "telemetry/events.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "util/json_escape.hpp"

namespace trojanscout::telemetry {

namespace {

std::atomic<EventLog*> g_event_log{nullptr};

std::uint64_t wall_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  util::append_json_escaped(out, text);
  out += '"';
  return out;
}

}  // namespace

EventLog::Field::Field(std::string_view field_key, std::string_view value)
    : key(field_key), json(quoted(value)) {}
EventLog::Field::Field(std::string_view field_key, const char* value)
    : Field(field_key, std::string_view(value)) {}
EventLog::Field::Field(std::string_view field_key, std::uint64_t value)
    : key(field_key), json(std::to_string(value)) {}
EventLog::Field::Field(std::string_view field_key, std::int64_t value)
    : key(field_key), json(std::to_string(value)) {}
EventLog::Field::Field(std::string_view field_key, int value)
    : key(field_key), json(std::to_string(value)) {}
EventLog::Field::Field(std::string_view field_key, double value)
    : key(field_key) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  json = buf;
}
EventLog::Field::Field(std::string_view field_key, bool value)
    : key(field_key), json(value ? "true" : "false") {}

EventLog::EventLog(const std::string& path, std::uint64_t max_bytes)
    : path_(path), max_bytes_(max_bytes) {
  out_.open(path, std::ios::out | std::ios::trunc);
  ok_ = out_.good();
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  write_header();
}

EventLog::~EventLog() {
  if (g_event_log.load(std::memory_order_acquire) == this) {
    g_event_log.store(nullptr, std::memory_order_release);
  }
}

std::uint64_t EventLog::emit(std::string_view type,
                             std::initializer_list<Field> fields) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ok_) return 0;  // failed sink: record nothing, advance nothing
  if (max_bytes_ > 0 && bytes_written_ >= max_bytes_) {
    // Size-based rotation: the finished generation moves to `<path>.1`
    // (replacing the previous one) and a fresh stream restarts — header
    // first, seq from 0 — so each generation is a self-describing,
    // independently valid `trojanscout-events-v1` stream.
    out_.close();
    std::rename(path_.c_str(), (path_ + ".1").c_str());
    out_.open(path_, std::ios::out | std::ios::trunc);
    ok_ = out_.good();
    bytes_written_ = 0;
    next_seq_ = 0;
    rotations_++;
    if (!ok_) return 0;
    write_header();
  }
  return write_record(type, fields);
}

void EventLog::write_header() {
  // Header record: carries the schema name so validators can identify the
  // stream from its first line, and anchors seq 0.
  write_record("header", {{"schema", "trojanscout-events-v1"},
                          {"pid", static_cast<std::int64_t>(::getpid())}});
}

std::uint64_t EventLog::write_record(std::string_view type,
                                     std::initializer_list<Field> fields) {
  const std::uint64_t seq = next_seq_++;
  std::string line;
  line.reserve(128);
  line += "{\"type\": ";
  line += quoted(type);
  line += ", \"seq\": ";
  line += std::to_string(seq);
  line += ", \"ts_ms\": ";
  line += std::to_string(wall_ms());
  for (const Field& f : fields) {
    line += ", ";
    line += quoted(f.key);
    line += ": ";
    line += f.json;
  }
  line += "}\n";
  out_ << line;
  out_.flush();
  bytes_written_ += line.size();
  return seq;
}

std::uint64_t EventLog::record_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t EventLog::rotations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rotations_;
}

EventLog* EventLog::global() {
  return g_event_log.load(std::memory_order_acquire);
}

void EventLog::set_global(EventLog* log) {
  g_event_log.store(log, std::memory_order_release);
}

void emit_event(std::string_view type,
                std::initializer_list<EventLog::Field> fields) {
  EventLog* log = EventLog::global();
  if (log == nullptr) return;
  log->emit(type, fields);
}

}  // namespace trojanscout::telemetry
