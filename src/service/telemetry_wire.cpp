#include "service/telemetry_wire.hpp"

#include <algorithm>
#include <unordered_set>

namespace trojanscout::service {

namespace {

bool shape_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

proof::Json snapshot_to_json(const telemetry::Registry::Snapshot& snapshot) {
  proof::Json counters = proof::Json::object();
  for (const auto& c : snapshot.counters) {
    counters.set(c.name, proof::Json(c.value));
  }
  proof::Json histograms = proof::Json::object();
  for (const auto& h : snapshot.histograms) {
    proof::Json entry = proof::Json::object();
    entry.set("count", proof::Json(h.count));
    entry.set("sum_s", proof::Json(h.sum_seconds));
    entry.set("min_s", proof::Json(h.min_seconds));
    entry.set("max_s", proof::Json(h.max_seconds));
    proof::Json buckets = proof::Json::array();
    for (std::uint64_t b : h.buckets) buckets.push_back(proof::Json(b));
    entry.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(entry));
  }
  proof::Json out = proof::Json::object();
  out.set("counters", std::move(counters));
  out.set("histograms", std::move(histograms));
  return out;
}

bool snapshot_from_json(const proof::Json& json,
                        telemetry::Registry::Snapshot& out,
                        std::string* error) {
  out.counters.clear();
  out.histograms.clear();
  if (!json.is_object()) return shape_error(error, "snapshot: not an object");
  const proof::Json* counters = json.find("counters");
  const proof::Json* histograms = json.find("histograms");
  if (counters == nullptr || !counters->is_object()) {
    return shape_error(error, "snapshot: missing counters object");
  }
  if (histograms == nullptr || !histograms->is_object()) {
    return shape_error(error, "snapshot: missing histograms object");
  }
  for (const auto& [name, value] : counters->entries()) {
    if (!value.is_int()) {
      return shape_error(error, "snapshot: counter " + name + " not an int");
    }
    out.counters.push_back(
        {name, static_cast<std::uint64_t>(value.as_int())});
  }
  for (const auto& [name, value] : histograms->entries()) {
    if (!value.is_object()) {
      return shape_error(error, "snapshot: histogram " + name + " malformed");
    }
    const proof::Json* count = value.find("count");
    const proof::Json* sum = value.find("sum_s");
    const proof::Json* min = value.find("min_s");
    const proof::Json* max = value.find("max_s");
    const proof::Json* buckets = value.find("buckets");
    if (count == nullptr || !count->is_int() || sum == nullptr ||
        !sum->is_number() || min == nullptr || !min->is_number() ||
        max == nullptr || !max->is_number() || buckets == nullptr ||
        !buckets->is_array() ||
        buckets->items().size() != telemetry::Registry::kHistogramBuckets) {
      return shape_error(error, "snapshot: histogram " + name + " malformed");
    }
    telemetry::Registry::HistogramValue h;
    h.name = name;
    h.count = static_cast<std::uint64_t>(count->as_int());
    h.sum_seconds = sum->as_double();
    h.min_seconds = min->as_double();
    h.max_seconds = max->as_double();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const proof::Json& b = buckets->items()[i];
      if (!b.is_int()) {
        return shape_error(error,
                           "snapshot: histogram " + name + " bucket not int");
      }
      h.buckets[i] = static_cast<std::uint64_t>(b.as_int());
    }
    out.histograms.push_back(std::move(h));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return true;
}

void merge_snapshot(telemetry::Registry::Snapshot& into,
                    const telemetry::Registry::Snapshot& from) {
  for (const auto& c : from.counters) {
    auto it = std::lower_bound(
        into.counters.begin(), into.counters.end(), c,
        [](const auto& a, const auto& b) { return a.name < b.name; });
    if (it != into.counters.end() && it->name == c.name) {
      it->value += c.value;
    } else {
      into.counters.insert(it, c);
    }
  }
  for (const auto& h : from.histograms) {
    auto it = std::lower_bound(
        into.histograms.begin(), into.histograms.end(), h,
        [](const auto& a, const auto& b) { return a.name < b.name; });
    if (it == into.histograms.end() || it->name != h.name) {
      into.histograms.insert(it, h);
      continue;
    }
    if (h.count == 0) continue;
    if (it->count == 0) {
      it->min_seconds = h.min_seconds;
      it->max_seconds = h.max_seconds;
    } else {
      it->min_seconds = std::min(it->min_seconds, h.min_seconds);
      it->max_seconds = std::max(it->max_seconds, h.max_seconds);
    }
    it->count += h.count;
    it->sum_seconds += h.sum_seconds;
    for (std::size_t i = 0; i < it->buckets.size(); ++i) {
      it->buckets[i] += h.buckets[i];
    }
  }
}

proof::Json trace_events_to_json(
    const std::vector<telemetry::TraceEvent>& events) {
  proof::Json out = proof::Json::array();
  for (const telemetry::TraceEvent& e : events) {
    proof::Json row = proof::Json::array();
    row.push_back(proof::Json(e.begin ? 1 : 0));
    row.push_back(proof::Json(e.name));
    row.push_back(proof::Json(e.span_id));
    row.push_back(proof::Json(e.begin ? e.parent_id : 0u));
    row.push_back(proof::Json(e.tid));
    row.push_back(proof::Json(e.ts_us));
    if (!e.args.empty()) {
      proof::Json args = proof::Json::object();
      for (const auto& [key, value] : e.args) args.set(key, value);
      row.push_back(std::move(args));
    }
    out.push_back(std::move(row));
  }
  return out;
}

bool trace_events_from_json(const proof::Json& json,
                            std::vector<telemetry::TraceEvent>& out,
                            std::string* error) {
  out.clear();
  if (!json.is_array()) return shape_error(error, "spans: not an array");
  out.reserve(json.items().size());
  for (const proof::Json& row : json.items()) {
    if (!row.is_array() ||
        (row.items().size() != 6 && row.items().size() != 7)) {
      return shape_error(error, "spans: row is not a 6- or 7-tuple");
    }
    const auto& cols = row.items();
    if (!cols[0].is_int() || !cols[1].is_string() || !cols[2].is_int() ||
        !cols[3].is_int() || !cols[4].is_int() || !cols[5].is_int()) {
      return shape_error(error, "spans: row has wrong column types");
    }
    telemetry::TraceEvent e;
    e.begin = cols[0].as_int() != 0;
    e.name = cols[1].as_string();
    e.span_id = static_cast<std::uint64_t>(cols[2].as_int());
    e.parent_id = static_cast<std::uint64_t>(cols[3].as_int());
    e.tid = static_cast<int>(cols[4].as_int());
    e.ts_us = static_cast<std::uint64_t>(cols[5].as_int());
    if (cols.size() == 7) {
      if (!cols[6].is_object()) {
        return shape_error(error, "spans: args column is not an object");
      }
      for (const auto& [key, value] : cols[6].entries()) {
        if (key == "span_id" || key == "parent_id") {
          return shape_error(error, "spans: arg '" + key + "' is reserved");
        }
        if (!value.is_int() || value.as_int() < 0) {
          return shape_error(error, "spans: arg '" + key +
                                        "' is not a non-negative integer");
        }
        e.args.emplace_back(key, static_cast<std::uint64_t>(value.as_int()));
      }
    }
    out.push_back(std::move(e));
  }
  return true;
}

std::vector<telemetry::TraceEvent> filter_reachable(
    const std::vector<telemetry::TraceEvent>& events,
    const std::vector<std::uint64_t>& roots) {
  std::unordered_set<std::uint64_t> keep(roots.begin(), roots.end());
  keep.erase(0u);
  std::vector<telemetry::TraceEvent> out;
  for (const telemetry::TraceEvent& e : events) {
    if (e.begin) {
      if (keep.count(e.span_id) != 0 ||
          (e.parent_id != 0 && keep.count(e.parent_id) != 0)) {
        keep.insert(e.span_id);
        out.push_back(e);
      }
    } else if (keep.count(e.span_id) != 0) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace trojanscout::service
