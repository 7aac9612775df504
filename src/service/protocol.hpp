// Wire protocol of the audit service: newline-delimited JSON over a
// stream socket (Unix-domain or TCP — see service/transport.hpp).
//
// Requests — one JSON object per line, dispatched on "op":
//   {"op":"audit","id":"job-1","design":"ip.v","spec":"ip.spec",
//    "engine":"bmc","frames":128,"budget":60.0,
//    "no_scan":false,"no_bypass":false,
//    "subset":[0,3,7],"wire_verdicts":true}     (last two: fleet-internal)
//   {"op":"ping"}        liveness probe
//   {"op":"stats"}       cache + service counters
//   {"op":"shutdown"}    finish in-flight jobs, then exit the accept loop
//
// Responses — streamed back on the same connection, one object per line,
// dispatched on "type":
//   {"type":"accepted","id":...,"design":...,"obligations":N}
//   {"type":"obligation","id":...,"index":i,"property":...,"status":...,
//    "violated":...,"bound_reached":...,"frames_completed":...,
//    "source":"cache"|"computed"|"shared"[,"verdict":{...}]}
//                                               (enumeration order)
//   {"type":"report","id":...,"trojan_found":...,"trust_bound_frames":...,
//    "summary":...,"signature":...,"cache_hits":N,"shared":N,"computed":N}
//   {"type":"retry-after","id":...,"retry_after_ms":N}   (fleet overload)
//   {"type":"pong"} / {"type":"stats",...} / {"type":"bye"}
//   {"type":"error","id":...,"code":...,"message":...}
//
// "source" says where the verdict came from: the verdict cache (either
// tier), a fresh engine run, or an identical obligation already in flight
// (in-process dedupe, or an L2 claim another fleet worker resolved). The
// report's "signature" is DetectionReport::signature() verbatim,
// byte-identical to what a direct `trojanscout_cli audit` of the same
// design produces — also when the obligations were sharded across a fleet.
//
// Fleet extensions: "subset" restricts a job to the named indices of the
// canonical enumerate_obligations() order (how the coordinator shards one
// audit across workers), and "wire_verdicts" asks the worker to embed the
// full cache-codec verdict JSON in each obligation response so the
// coordinator can merge CheckResults without re-running anything.
// "retry-after" is the coordinator's admission-control answer when every
// worker queue is full: the client must back off and resubmit — overload
// is always an explicit response, never a silent drop.
//
// Trace stitching (fleet-internal): "trace_id" names the distributed
// trace a job belongs to and "parent_spans" (one uint64 per subset entry,
// same order) carries the coordinator-side span id each obligation should
// parent under. A worker running under a TraceRecorder then roots one
// span per obligation at the given parent, answers "accepted" with
// "trace_now_us" (its recorder clock, for the clock-offset handshake) and
// ships the job's span records back as "spans" rows on the report line —
// the coordinator remaps ids/tids and rebases timestamps into one
// Perfetto-loadable trace (`serve-fleet --trace-out`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "designs/design.hpp"

namespace trojanscout::service {

/// An audit job as it crosses the wire. Defaults mirror the audit
/// subcommand's flag defaults, so a job that only names design + spec
/// audits exactly like `trojanscout_cli audit --design ... --spec ...`.
struct AuditJob {
  std::string id;
  std::string design_path;
  std::string spec_path;
  core::EngineKind engine = core::EngineKind::kBmc;
  std::size_t frames = 128;
  double budget = 60.0;
  bool scan_pseudo_critical = true;
  bool check_bypass = true;
  /// Empty = the whole job. Otherwise the sorted obligation indices (into
  /// enumerate_obligations() order) this request covers — the fleet
  /// coordinator shards a job into per-worker subsets.
  std::vector<std::size_t> subset;
  /// Embed the full verdict payload (cache codec JSON) in each obligation
  /// response line, so the receiver can reconstruct CheckResults.
  bool wire_verdicts = false;
  /// Distributed-trace id this job belongs to (fleet-internal; empty = not
  /// part of a stitched trace). When set, a tracing worker ships its span
  /// records back on the report line.
  std::string trace_id;
  /// Coordinator-side parent span id per subset entry (same order as
  /// `subset`; must match its length). 0 = root.
  std::vector<std::uint64_t> parent_spans;

  /// The DetectorOptions an equivalent direct audit would use.
  [[nodiscard]] core::DetectorOptions detector_options() const;
};

/// Loads the job's design + spec files exactly like the audit subcommand
/// (shared by the worker daemon and the fleet coordinator, which must
/// enumerate the same obligations in the same order). Throws
/// std::runtime_error with a client-presentable message.
designs::Design load_job_design(const AuditJob& job);

struct Request {
  enum class Op { kAudit, kPing, kStats, kShutdown };
  Op op = Op::kPing;
  AuditJob job;  // kAudit only
};

/// Parses one request line. False (with `error`) on malformed input —
/// the daemon answers with an "error" response and keeps the connection.
bool parse_request(const std::string& line, Request& out, std::string* error);

/// Serializes an audit job to its request line (no trailing newline).
std::string audit_request_line(const AuditJob& job);
/// Serializes a control request ("ping" | "stats" | "shutdown").
std::string control_request_line(const std::string& op);

/// {"type":"error",...} with an optional machine-readable code.
std::string error_response_line(const std::string& id,
                                const std::string& message,
                                const std::string& code = "");
/// {"type":"retry-after",...} — the admission-control overload answer.
std::string retry_after_line(const std::string& id,
                             std::uint64_t retry_after_ms);

}  // namespace trojanscout::service
