// Wire codecs that carry telemetry across the NDJSON protocol boundary.
//
// The fleet tier re-hid what PRs 3–4 made visible: worker counters,
// histograms, and spans used to die inside the worker process. These
// codecs move them — a Registry snapshot rides in the daemon `stats`
// reply (and the coordinator merges one per worker, exactly), and the
// span records of a job's obligations ride in the final `report` line so
// the coordinator can stitch one cross-process Chrome trace.
//
// They live in src/service (not src/telemetry) deliberately: ts_proof
// links ts_telemetry for its certificate spans, so the telemetry library
// can never depend on proof::Json — the service layer is the lowest one
// that sees both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proof/json.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace trojanscout::service {

/// Snapshot → {"counters": {name: value, …}, "histograms": {name:
/// {count, sum_s, min_s, max_s, buckets: […40…]}, …}}. Keys keep the
/// snapshot's sorted order, so the document is deterministic.
proof::Json snapshot_to_json(const telemetry::Registry::Snapshot& snapshot);

/// Inverse of snapshot_to_json. False (with `error`) on shape mismatch;
/// `out` is left sorted by name either way.
bool snapshot_from_json(const proof::Json& json,
                        telemetry::Registry::Snapshot& out,
                        std::string* error);

/// Exact merge of `from` into `into`: counters summed by name, histogram
/// buckets added bucket-wise, counts/sums summed, min-of-mins (over
/// populated histograms) and max-of-maxes. Result stays sorted by name —
/// merging N worker snapshots equals one snapshot of all their work.
void merge_snapshot(telemetry::Registry::Snapshot& into,
                    const telemetry::Registry::Snapshot& from);

/// Span records → compact array of [ph, name, span_id, parent_id, tid,
/// ts_us] rows (ph 1 = begin, 0 = end; end rows carry parent_id 0). An
/// event with span args (an engine frame's counters) gets a 7th column,
/// {key: value, …}.
proof::Json trace_events_to_json(
    const std::vector<telemetry::TraceEvent>& events);

/// Inverse of trace_events_to_json. False (with `error`) on shape
/// mismatch: a row of other than 6 or 7 columns, or a 7th column that is
/// not an object of non-negative integers keyed other than span_id /
/// parent_id.
bool trace_events_from_json(const proof::Json& json,
                            std::vector<telemetry::TraceEvent>& out,
                            std::string* error);

/// Events reachable from `roots` (the per-obligation root span ids of one
/// job): a begin whose span or parent is already reachable joins the set;
/// an end is kept only for a reachable span. A single forward pass
/// suffices because the recorder's mutex orders every parent's begin
/// before its children's. Filters out other jobs sharing the recorder and
/// unmatched ends left behind by TraceRecorder::clear().
std::vector<telemetry::TraceEvent> filter_reachable(
    const std::vector<telemetry::TraceEvent>& events,
    const std::vector<std::uint64_t>& roots);

}  // namespace trojanscout::service
