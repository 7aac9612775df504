#include "telemetry/profile.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>

#include "util/json_escape.hpp"

namespace trojanscout::telemetry {

namespace {

constexpr const char* kObligationPrefix = "obligation:";

std::string json_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void sort_phases(std::vector<PhaseStats>& phases) {
  std::sort(phases.begin(), phases.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              return a.name < b.name;
            });
}

void append_phase_array(std::string& out,
                        const std::vector<PhaseStats>& phases,
                        bool include_timing) {
  out += '[';
  bool first = true;
  for (const PhaseStats& phase : phases) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    util::append_json_escaped(out, phase.name);
    out += "\",\"count\":" + std::to_string(phase.count);
    if (include_timing) {
      out += ",\"inclusive_us\":" + std::to_string(phase.inclusive_us);
      out += ",\"exclusive_us\":" + std::to_string(phase.exclusive_us);
    }
    out += '}';
  }
  out += ']';
}

}  // namespace

double histogram_quantile(const Registry::HistogramValue& hist, double q) {
  if (hist.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The extremes are carried exactly; only interior quantiles estimate.
  if (q == 0.0) return hist.min_seconds;
  if (q == 1.0) return hist.max_seconds;
  // Rank of the target sample (0-based, continuous).
  const double rank = q * static_cast<double>(hist.count - 1);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < Registry::kHistogramBuckets; ++b) {
    const std::uint64_t in_bucket = hist.buckets[b];
    if (in_bucket == 0) continue;
    const double bucket_first = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (rank >= static_cast<double>(cumulative)) continue;
    // Bucket b spans [2^(b-1), 2^b) µs; bucket 0 is [0, 1) µs.
    const double lo_us = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
    const double hi_us = std::ldexp(1.0, static_cast<int>(b));
    // Interpolate by the rank's position among this bucket's samples.
    const double within =
        in_bucket > 1
            ? (rank - bucket_first) / static_cast<double>(in_bucket - 1)
            : 0.5;
    const double us = lo_us + (hi_us - lo_us) * std::clamp(within, 0.0, 1.0);
    return std::clamp(us / 1e6, hist.min_seconds, hist.max_seconds);
  }
  return hist.max_seconds;
}

Profile build_profile(const std::vector<TraceEvent>& events) {
  Profile profile;
  if (events.empty()) return profile;

  // Per-tid event order is chronological (each thread appends its own
  // events in program order); split by tid and walk each thread's stack.
  std::map<int, std::vector<const TraceEvent*>> by_tid;
  std::uint64_t min_ts = UINT64_MAX;
  std::uint64_t max_ts = 0;
  for (const TraceEvent& event : events) {
    by_tid[event.tid].push_back(&event);
    min_ts = std::min(min_ts, event.ts_us);
    max_ts = std::max(max_ts, event.ts_us);
  }
  profile.wall_us = max_ts - min_ts;
  profile.thread_count = by_tid.size();

  struct Frame {
    const TraceEvent* begin = nullptr;
    std::uint64_t child_us = 0;   // same-thread children's inclusive time
    std::string obligation;       // nearest enclosing obligation (inherited)
  };
  // One record per completed span, for the cross-thread child pass.
  struct Closed {
    std::string name;
    std::string obligation;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    int tid = 0;
    std::uint64_t inclusive_us = 0;
    std::uint64_t child_us = 0;
  };
  std::vector<Closed> closed;
  std::map<std::string, std::uint64_t> obligation_total;

  auto close_frame = [&](const Frame& frame, std::uint64_t end_ts) {
    const std::uint64_t inclusive =
        end_ts >= frame.begin->ts_us ? end_ts - frame.begin->ts_us : 0;
    const std::string& name = frame.begin->name;
    if (name.rfind(kObligationPrefix, 0) == 0) {
      obligation_total[frame.obligation] += inclusive;
    }
    closed.push_back({name, frame.obligation, frame.begin->span_id,
                      frame.begin->parent_id, frame.begin->tid, inclusive,
                      frame.child_us});
    return inclusive;
  };

  for (auto& [tid, tid_events] : by_tid) {
    std::vector<Frame> stack;
    std::uint64_t latest_ts = 0;
    for (const TraceEvent* event : tid_events) {
      latest_ts = std::max(latest_ts, event->ts_us);
      if (event->begin) {
        Frame frame;
        frame.begin = event;
        if (event->name.rfind(kObligationPrefix, 0) == 0) {
          frame.obligation =
              event->name.substr(std::strlen(kObligationPrefix));
          obligation_total.emplace(frame.obligation, 0);
        } else if (!stack.empty()) {
          frame.obligation = stack.back().obligation;
        }
        stack.push_back(std::move(frame));
        continue;
      }
      // Spans are RAII, so an end event matches the top of its thread's
      // stack; tolerate strays (span_id mismatch) by ignoring them.
      if (stack.empty() || stack.back().begin->span_id != event->span_id) {
        continue;
      }
      Frame frame = std::move(stack.back());
      stack.pop_back();
      const std::uint64_t inclusive = close_frame(frame, event->ts_us);
      if (!stack.empty()) stack.back().child_us += inclusive;
    }
    // Unclosed spans (snapshot taken mid-run): charge up to the thread's
    // latest timestamp, innermost first so child time propagates.
    while (!stack.empty()) {
      Frame frame = std::move(stack.back());
      stack.pop_back();
      const std::uint64_t inclusive = close_frame(frame, latest_ts);
      if (!stack.empty()) stack.back().child_us += inclusive;
    }
  }

  // Cross-thread child pass: a span whose explicit parent lives on another
  // thread (the scheduler's audit span parenting pool-worker obligations)
  // charges its inclusive time to that parent too — the parent is blocked
  // in wait_idle() while the child runs, and counting that wait as busy
  // would double the wall-clock. Overlapping concurrent children can push
  // the subtraction past the parent's inclusive time; the clamp to zero is
  // then the right answer (the parent did nothing but wait).
  {
    std::unordered_map<std::uint64_t, std::size_t> by_span;
    by_span.reserve(closed.size());
    for (std::size_t i = 0; i < closed.size(); ++i) {
      by_span.emplace(closed[i].span_id, i);
    }
    for (const Closed& span : closed) {
      if (span.parent_id == 0) continue;
      const auto it = by_span.find(span.parent_id);
      if (it == by_span.end()) continue;
      Closed& parent = closed[it->second];
      if (parent.tid != span.tid) parent.child_us += span.inclusive_us;
    }
  }

  // (phase name) -> stats and (obligation, phase) -> stats.
  std::map<std::string, PhaseStats> phases;
  std::map<std::string, std::map<std::string, PhaseStats>> per_obligation;
  for (const Closed& span : closed) {
    const std::uint64_t exclusive =
        span.inclusive_us >= span.child_us ? span.inclusive_us - span.child_us
                                           : 0;
    PhaseStats& phase = phases[span.name];
    phase.name = span.name;
    phase.count += 1;
    phase.inclusive_us += span.inclusive_us;
    phase.exclusive_us += exclusive;
    profile.busy_us += exclusive;

    PhaseStats& scoped = per_obligation[span.obligation][span.name];
    scoped.name = span.name;
    scoped.count += 1;
    scoped.inclusive_us += span.inclusive_us;
    scoped.exclusive_us += exclusive;
  }

  profile.phases.reserve(phases.size());
  for (auto& [name, stats] : phases) profile.phases.push_back(stats);

  for (auto& [name, scoped] : per_obligation) {
    ObligationProfile op;
    // Spans outside any obligation span (scheduler, report assembly) land
    // in a named catch-all bucket rather than an empty-string key.
    op.name = name.empty() ? "(unattributed)" : name;
    const auto total = obligation_total.find(name);
    op.total_us = total != obligation_total.end() ? total->second : 0;
    for (auto& [phase_name, stats] : scoped) op.phases.push_back(stats);
    sort_phases(op.phases);
    profile.obligations.push_back(std::move(op));
  }
  // Make sure obligations that recorded no nested spans still appear.
  for (const auto& [name, total] : obligation_total) {
    const bool present =
        std::any_of(profile.obligations.begin(), profile.obligations.end(),
                    [&](const ObligationProfile& op) { return op.name == name; });
    if (!present) {
      ObligationProfile op;
      op.name = name;
      op.total_us = total;
      profile.obligations.push_back(std::move(op));
    }
  }
  std::sort(profile.obligations.begin(), profile.obligations.end(),
            [](const ObligationProfile& a, const ObligationProfile& b) {
              return a.name < b.name;
            });
  return profile;
}

Profile build_profile(const TraceRecorder& recorder,
                      const Registry::Snapshot& snapshot) {
  Profile profile = build_profile(recorder.events());
  for (const Registry::HistogramValue& hist : snapshot.histograms) {
    Profile::TimerStats timer;
    timer.name = hist.name;
    timer.count = hist.count;
    timer.sum_seconds = hist.sum_seconds;
    timer.min_seconds = hist.min_seconds;
    timer.max_seconds = hist.max_seconds;
    timer.p50_seconds = histogram_quantile(hist, 0.5);
    timer.p90_seconds = histogram_quantile(hist, 0.9);
    profile.timers.push_back(std::move(timer));
  }
  std::sort(profile.timers.begin(), profile.timers.end(),
            [](const Profile::TimerStats& a, const Profile::TimerStats& b) {
              return a.name < b.name;
            });
  return profile;
}

std::string Profile::to_json(bool include_timing) const {
  std::string out = "{\"schema\":\"trojanscout-profile-v1\"";
  if (include_timing) {
    out += ",\"wall_us\":" + std::to_string(wall_us);
    out += ",\"busy_us\":" + std::to_string(busy_us);
    // Scheduling-dependent like the timings (varies with --jobs), so it is
    // stripped with them to keep the invariant form jobs-identical.
    out += ",\"threads\":" + std::to_string(thread_count);
  }
  out += ",\"phases\":";
  append_phase_array(out, phases, include_timing);
  out += ",\"obligations\":[";
  bool first = true;
  for (const ObligationProfile& op : obligations) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    util::append_json_escaped(out, op.name);
    out += '"';
    if (include_timing) out += ",\"total_us\":" + std::to_string(op.total_us);
    out += ",\"phases\":";
    append_phase_array(out, op.phases, include_timing);
    out += '}';
  }
  out += "],\"timers\":[";
  first = true;
  for (const TimerStats& timer : timers) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    util::append_json_escaped(out, timer.name);
    out += "\",\"count\":" + std::to_string(timer.count);
    if (include_timing) {
      out += ",\"sum_seconds\":" + json_double(timer.sum_seconds);
      out += ",\"min_seconds\":" + json_double(timer.min_seconds);
      out += ",\"max_seconds\":" + json_double(timer.max_seconds);
      out += ",\"p50_seconds\":" + json_double(timer.p50_seconds);
      out += ",\"p90_seconds\":" + json_double(timer.p90_seconds);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

bool Profile::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << to_json(true) << "\n";
  return os.good();
}

std::string Profile::top_table(std::size_t n) const {
  std::vector<const PhaseStats*> ranked;
  ranked.reserve(phases.size());
  for (const PhaseStats& phase : phases) ranked.push_back(&phase);
  std::sort(ranked.begin(), ranked.end(),
            [](const PhaseStats* a, const PhaseStats* b) {
              if (a->exclusive_us != b->exclusive_us)
                return a->exclusive_us > b->exclusive_us;
              return a->name < b->name;
            });
  if (ranked.size() > n) ranked.resize(n);

  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %10s %12s %12s %7s\n", "phase",
                "count", "incl (ms)", "excl (ms)", "excl%");
  out += buf;
  const double busy = busy_us > 0 ? static_cast<double>(busy_us) : 1.0;
  for (const PhaseStats* phase : ranked) {
    std::snprintf(buf, sizeof(buf), "  %-28s %10" PRIu64 " %12.3f %12.3f %6.1f%%\n",
                  phase->name.c_str(), phase->count,
                  static_cast<double>(phase->inclusive_us) / 1e3,
                  static_cast<double>(phase->exclusive_us) / 1e3,
                  100.0 * static_cast<double>(phase->exclusive_us) / busy);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  wall %.3f ms, busy %.3f ms across %" PRIu64 " thread%s\n",
                static_cast<double>(wall_us) / 1e3,
                static_cast<double>(busy_us) / 1e3, thread_count,
                thread_count == 1 ? "" : "s");
  out += buf;
  return out;
}

}  // namespace trojanscout::telemetry
