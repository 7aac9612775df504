#include "fleet/coordinator.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cache/verdict_codec.hpp"
#include "designs/design.hpp"
#include "proof/json.hpp"
#include "service/telemetry_wire.hpp"
#include "telemetry/events.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"

namespace trojanscout::fleet {

namespace {

using proof::Json;
using service::AuditJob;
using service::LineServer;

int source_rank(const std::string& source) {
  if (source == "cache") return 0;
  if (source == "shared") return 2;
  return 1;  // computed
}

/// One-shot stats probe against a worker (no connect retries — a worker
/// that cannot answer promptly is simply reported without telemetry).
std::optional<Json> fetch_worker_stats(const service::Endpoint& endpoint) {
  std::string connect_error;
  const int fd = service::connect_endpoint(endpoint, &connect_error);
  if (fd < 0) return std::nullopt;
  service::set_recv_timeout(fd, 5.0);
  std::optional<Json> result;
  if (service::send_frame(fd, service::control_request_line("stats"))) {
    std::string buffer;
    std::string line;
    if (service::read_frame(fd, buffer, line) ==
        service::ReadLineStatus::kLine) {
      Json j;
      std::string parse_error;
      if (Json::parse(line, j, &parse_error) && j.is_object()) {
        const Json* type = j.find("type");
        if (type != nullptr && type->is_string() &&
            type->as_string() == "stats") {
          result = std::move(j);
        }
      }
    }
  }
  ::close(fd);
  return result;
}

}  // namespace

FleetCoordinator::FleetCoordinator(Options options)
    : options_(std::move(options)),
      server_(
          LineServer::Options{options_.endpoint,
                              options_.read_timeout_seconds,
                              /*max_line_bytes=*/1 << 20,
                              /*backlog=*/64},
          [this](const std::string& line, const LineServer::Sender& send) {
            return handle_line(line, send);
          }) {}

FleetCoordinator::~FleetCoordinator() { stop(); }

void FleetCoordinator::start() {
  if (options_.workers.empty()) {
    throw std::runtime_error("fleet: no worker endpoints configured");
  }
  if (!options_.trace_out.empty()) {
    recorder_ = std::make_unique<telemetry::TraceRecorder>();
  }
  workers_.clear();
  for (const std::string& text : options_.workers) {
    service::Endpoint endpoint;
    std::string error;
    if (!service::parse_endpoint(text, endpoint, &error)) {
      throw std::runtime_error("fleet: bad worker endpoint '" + text +
                               "': " + error);
    }
    auto worker = std::make_unique<Worker>();
    worker->name = endpoint.to_string();
    worker->endpoint = endpoint;
    if (ring_.contains(worker->name)) {
      throw std::runtime_error("fleet: duplicate worker endpoint " +
                               worker->name);
    }
    ring_.add(worker->name);
    workers_.push_back(std::move(worker));
  }
  server_.start();
  started_at_ = std::chrono::steady_clock::now();
  // The stats reply merges per-worker registry snapshots next to the
  // coordinator's own — which therefore must be live.
  telemetry::Registry::global().set_enabled(true);
  for (const auto& worker : workers_) {
    telemetry::emit_event("worker_up", {{"endpoint", worker->name}});
  }
  if (options_.health_interval_seconds > 0) {
    health_thread_ = std::thread([this] { health_loop(); });
  }
  TS_LOG_INFO("fleet: coordinating %zu workers on %s", workers_.size(),
              bound_endpoint().c_str());
}

void FleetCoordinator::wait() { server_.wait(); }

void FleetCoordinator::stop() {
  server_.stop();
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  if (recorder_ != nullptr && !recorder_->write_file(options_.trace_out)) {
    TS_LOG_WARN("fleet: cannot write trace to %s",
                options_.trace_out.c_str());
  }
}

LineServer::Disposition FleetCoordinator::handle_line(
    const std::string& line, const LineServer::Sender& send) {
  service::Request request;
  std::string error;
  if (!service::parse_request(line, request, &error)) {
    server_.note_bad_request();
    if (!send(service::error_response_line("", error, "bad_request"))) {
      return LineServer::Disposition::kClose;
    }
    return LineServer::Disposition::kKeep;
  }
  if (request.op == service::Request::Op::kPing) {
    Json j = Json::object();
    j.set("type", "pong");
    if (!send(j.dump())) return LineServer::Disposition::kClose;
  } else if (request.op == service::Request::Op::kStats) {
    // Snapshot the worker table under the lock; the stats fan-out (network
    // I/O against every live worker) runs unlocked.
    struct WorkerView {
      std::string name;
      service::Endpoint endpoint;
      bool alive = false;
      std::size_t outstanding = 0;
    };
    std::vector<WorkerView> views;
    {
      std::lock_guard<std::mutex> lock(ring_mutex_);
      views.reserve(workers_.size());
      for (const auto& worker : workers_) {
        views.push_back({worker->name, worker->endpoint, worker->alive,
                         worker->outstanding});
      }
    }
    telemetry::Registry::Snapshot merged;
    Json workers = Json::array();
    for (const WorkerView& view : views) {
      Json w = Json::object();
      w.set("endpoint", view.name);
      w.set("alive", view.alive);
      w.set("outstanding", view.outstanding);
      std::optional<Json> stats =
          view.alive ? fetch_worker_stats(view.endpoint) : std::nullopt;
      // A worker can be ring-alive yet die between the snapshot above and
      // the probe: "responding" records whether *this* fan-out heard back,
      // so partial replies still sum correctly and the absent worker is
      // marked instead of silently merged as zero.
      w.set("responding", stats.has_value());
      if (stats.has_value()) {
        for (const char* field :
             {"pid", "uptime_s", "jobs_completed", "bad_requests"}) {
          const Json* f = stats->find(field);
          if (f != nullptr) w.set(field, *f);
        }
        const Json* snapshot_json = stats->find("telemetry");
        telemetry::Registry::Snapshot snapshot;
        if (snapshot_json != nullptr &&
            service::snapshot_from_json(*snapshot_json, snapshot, nullptr)) {
          // The merge is exact: counters summed by name, histogram buckets
          // added bucket-wise — "telemetry" below equals one snapshot of
          // all the workers' combined work.
          service::merge_snapshot(merged, snapshot);
          w.set("telemetry", *snapshot_json);
        }
      }
      workers.push_back(std::move(w));
    }
    Json j = Json::object();
    j.set("type", "stats");
    j.set("endpoint", bound_endpoint());
    j.set("role", "coordinator");
    j.set("pid", static_cast<std::int64_t>(::getpid()));
    const double uptime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    j.set("uptime_s", uptime_s);
    j.set("uptime_ms", static_cast<std::uint64_t>(uptime_s * 1000.0));
    j.set("jobs_completed", jobs_completed_.load(std::memory_order_relaxed));
    j.set("retry_after_sent",
          retry_after_sent_.load(std::memory_order_relaxed));
    j.set("reshards", reshards_.load(std::memory_order_relaxed));
    j.set("bad_requests", server_.bad_requests());
    j.set("workers", std::move(workers));
    j.set("telemetry", service::snapshot_to_json(merged));
    j.set("coordinator_telemetry",
          service::snapshot_to_json(telemetry::Registry::global().snapshot()));
    {
      std::lock_guard<std::mutex> lock(tail_mutex_);
      j.set("slowest", tail_to_json(tail_, 10));
    }
    if (!send(j.dump())) return LineServer::Disposition::kClose;
  } else if (request.op == service::Request::Op::kShutdown) {
    Json j = Json::object();
    j.set("type", "bye");
    send(j.dump());
    TS_LOG_INFO("fleet: shutdown requested");
    return LineServer::Disposition::kShutdown;
  } else {
    handle_audit(send, request.job);
  }
  return LineServer::Disposition::kKeep;
}

void FleetCoordinator::handle_audit(const LineServer::Sender& send,
                                    const AuditJob& job) {
  designs::Design design;
  const core::DetectorOptions detector_options = job.detector_options();
  try {
    design = service::load_job_design(job);
  } catch (const std::exception& e) {
    send(service::error_response_line(job.id, e.what()));
    return;
  }

  const core::TrojanDetector merger(design, detector_options);
  const std::vector<core::Obligation> obligations =
      merger.enumerate_obligations();
  const cache::ObligationKeyer keyer(design, detector_options,
                                     /*fail_fast=*/false);
  std::vector<std::string> keys;
  keys.reserve(obligations.size());
  for (const core::Obligation& obligation : obligations) {
    keys.push_back(keyer.key(obligation));
  }

  std::vector<std::size_t> requested;
  if (job.subset.empty()) {
    requested.resize(obligations.size());
    for (std::size_t i = 0; i < requested.size(); ++i) requested[i] = i;
  } else {
    for (const std::size_t index : job.subset) {
      if (index >= obligations.size()) {
        send(service::error_response_line(
            job.id, "subset index " + std::to_string(index) +
                        " out of range (job has " +
                        std::to_string(obligations.size()) + " obligations)"));
        return;
      }
      requested.push_back(index);
    }
  }

  // Trace plumbing: one job span plus one wrapper span per requested
  // obligation, all on this thread. Workers parent their engine spans
  // under the wrapper ids; the guard below closes the wrappers in reverse
  // begin order (Chrome duration events are a per-tid stack) on every exit
  // path, then rewrites the trace file so it is valid after each job.
  std::unique_ptr<JobTrace> trace;
  std::uint64_t job_span_id = 0;
  std::string job_span_name;
  const int job_tid =
      recorder_ != nullptr ? telemetry::TraceRecorder::thread_tid() : 0;
  if (recorder_ != nullptr) {
    trace = std::make_unique<JobTrace>();
    trace->trace_id =
        "fleet-" + std::to_string(
                       trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
    job_span_name = "fleet:job:" + trace->trace_id;
    job_span_id = recorder_->next_id();
    recorder_->begin_event(job_span_name, job_span_id, 0, job_tid,
                           recorder_->now_us());
    trace->wrapper_ids.assign(obligations.size(), 0);
    for (const std::size_t index : requested) {
      const std::uint64_t wrapper = recorder_->next_id();
      trace->wrapper_ids[index] = wrapper;
      recorder_->begin_event(
          "fleet:shard:" + obligations[index].property_name(), wrapper,
          job_span_id, job_tid, recorder_->now_us());
    }
  }
  struct TraceCloser {
    FleetCoordinator* self;
    std::uint64_t* job_span_id;
    const std::string* job_span_name;
    int tid;
    const JobTrace* trace;
    const std::vector<std::size_t>* requested;
    const std::vector<core::Obligation>* obligations;
    ~TraceCloser() {
      if (trace == nullptr || *job_span_id == 0) return;
      telemetry::TraceRecorder& rec = *self->recorder_;
      for (auto it = requested->rbegin(); it != requested->rend(); ++it) {
        rec.end_event("fleet:shard:" + (*obligations)[*it].property_name(),
                      trace->wrapper_ids[*it], tid, rec.now_us());
      }
      rec.end_event(*job_span_name, *job_span_id, tid, rec.now_us());
      *job_span_id = 0;
      if (!rec.write_file(self->options_.trace_out)) {
        TS_LOG_WARN("fleet: cannot write trace to %s",
                    self->options_.trace_out.c_str());
      }
    }
  } trace_closer{this,       &job_span_id, &job_span_name, job_tid,
                 trace.get(), &requested,   &obligations};

  std::vector<ObSlot> slots(obligations.size());
  std::vector<std::size_t> pending = requested;
  bool accepted_sent = false;
  while (!pending.empty()) {
    // Shard the pending indices over the live ring. Membership and
    // outstanding counts are read under the ring lock; dispatch itself
    // runs unlocked.
    std::map<Worker*, std::vector<std::size_t>> groups;
    {
      std::lock_guard<std::mutex> lock(ring_mutex_);
      if (ring_.empty()) {
        send(service::error_response_line(
            job.id, "no live workers in the fleet", "no_workers"));
        return;
      }
      std::map<std::string, Worker*> by_name;
      for (const auto& worker : workers_) by_name[worker->name] = worker.get();
      for (const std::size_t index : pending) {
        groups[by_name.at(ring_.node_for(keys[index]))].push_back(index);
      }
      if (!accepted_sent) {
        // Admission control: refuse (never queue silently, never drop) a
        // job that would overrun any worker's obligation queue.
        for (const auto& [worker, group] : groups) {
          if (worker->outstanding + group.size() > options_.queue_capacity) {
            retry_after_sent_.fetch_add(1, std::memory_order_relaxed);
            TS_COUNTER_ADD("fleet.retry_after", 1);
            telemetry::emit_event(
                "retry_after",
                {{"job", job.id},
                 {"worker", worker->name},
                 {"outstanding", worker->outstanding},
                 {"requested", group.size()},
                 {"retry_after_ms", options_.retry_after_ms}});
            TS_LOG_WARN(
                "fleet: refusing job %s: worker %s at %zu/%zu outstanding "
                "(+%zu requested)",
                job.id.c_str(), worker->name.c_str(), worker->outstanding,
                options_.queue_capacity, group.size());
            send(service::retry_after_line(job.id, options_.retry_after_ms));
            return;
          }
        }
      }
      for (const auto& [worker, group] : groups) {
        worker->outstanding += group.size();
      }
    }
    if (!accepted_sent) {
      Json j = Json::object();
      j.set("type", "accepted");
      j.set("id", job.id);
      j.set("design", job.design_path);
      j.set("obligations", requested.size());
      if (!send(j.dump())) {
        std::lock_guard<std::mutex> lock(ring_mutex_);
        for (const auto& [worker, group] : groups) {
          worker->outstanding -= group.size();
        }
        return;
      }
      accepted_sent = true;
    }

    struct GroupOutcome {
      Worker* worker;
      std::vector<std::size_t> indices;
      GroupStatus status = GroupStatus::kDead;
      std::string error;
    };
    std::vector<GroupOutcome> outcomes;
    outcomes.reserve(groups.size());
    for (auto& [worker, group] : groups) {
      GroupOutcome outcome;
      outcome.worker = worker;
      outcome.indices = group;
      outcomes.push_back(std::move(outcome));
    }
    std::vector<std::thread> threads;
    threads.reserve(outcomes.size());
    for (GroupOutcome& outcome : outcomes) {
      threads.emplace_back([this, &outcome, &job, &slots, &trace] {
        outcome.status = dispatch_group(*outcome.worker, job, outcome.indices,
                                        slots, trace.get(), outcome.error);
        std::lock_guard<std::mutex> lock(ring_mutex_);
        outcome.worker->outstanding -= outcome.indices.size();
      });
    }
    for (std::thread& thread : threads) thread.join();

    pending.clear();
    for (const GroupOutcome& outcome : outcomes) {
      if (outcome.status == GroupStatus::kOk) continue;
      if (outcome.status == GroupStatus::kError) {
        // A structured worker error (bad design path, out-of-range subset)
        // would fail identically on every worker — abort, don't re-shard.
        send(service::error_response_line(job.id, outcome.error));
        return;
      }
      mark_dead(outcome.worker->name, outcome.error);
      for (const std::size_t index : outcome.indices) {
        if (!slots[index].ready) pending.push_back(index);
      }
    }
    if (!pending.empty()) {
      std::sort(pending.begin(), pending.end());
      reshards_.fetch_add(1, std::memory_order_relaxed);
      TS_COUNTER_ADD("fleet.reshard", 1);
      telemetry::emit_event("reshard", {{"job", job.id},
                                        {"obligations", pending.size()}});
      TS_LOG_WARN("fleet: re-sharding %zu obligations of job %s",
                  pending.size(), job.id.c_str());
    }
  }

  // Merge in enumeration order — the invariant DetectionReport::signature
  // depends on — and stream per-obligation lines like a single daemon.
  core::DetectionReport report;
  report.trust_bound_frames = detector_options.engine.max_frames;
  std::uint64_t counts[3] = {0, 0, 0};
  bool client_alive = accepted_sent;
  for (const std::size_t index : requested) {
    const ObSlot& slot = slots[index];
    const core::Obligation& obligation = obligations[index];
    counts[source_rank(slot.source)]++;
    merger.merge_obligation(report, obligation, slot.result);
    if (client_alive) {
      Json j = Json::object();
      j.set("type", "obligation");
      j.set("id", job.id);
      j.set("index", index);
      j.set("property", obligation.property_name());
      j.set("status", slot.result.status);
      j.set("violated", slot.result.violated);
      j.set("bound_reached", slot.result.bound_reached);
      j.set("frames_completed", slot.result.frames_completed);
      j.set("source", slot.source);
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
  j.set("cache_hits", counts[0]);
  j.set("shared", counts[2]);
  j.set("computed", counts[1]);
  if (trace != nullptr) {
    j.set("trace_id", trace->trace_id);
    std::lock_guard<std::mutex> lock(trace->mutex);
    // Tail attribution for the submitter: where this job's time went,
    // phase-attributed from the workers' own span records.
    j.set("slowest", tail_to_json(trace->slowest, 5));
  }
  send(j.dump());
}

FleetCoordinator::GroupStatus FleetCoordinator::dispatch_group(
    const Worker& worker, const AuditJob& base,
    const std::vector<std::size_t>& group, std::vector<ObSlot>& slots,
    JobTrace* trace, std::string& error) {
  int fd = -1;
  try {
    fd = service::connect_with_retry(worker.endpoint,
                                     options_.worker_connect);
  } catch (const std::exception& e) {
    error = e.what();
    return GroupStatus::kDead;
  }
  service::set_recv_timeout(fd, options_.worker_timeout_seconds);

  AuditJob shard = base;
  shard.subset = group;
  shard.wire_verdicts = true;
  if (trace != nullptr) {
    shard.trace_id = trace->trace_id;
    shard.parent_spans.reserve(group.size());
    for (const std::size_t index : group) {
      shard.parent_spans.push_back(trace->wrapper_ids[index]);
    }
  }
  // Clock handshake, leg 1: our recorder clock just before the request
  // goes out.
  const std::uint64_t t_send = recorder_ != nullptr ? recorder_->now_us() : 0;
  std::int64_t clock_offset_us = 0;
  bool have_offset = false;
  if (!service::send_frame(fd, service::audit_request_line(shard))) {
    ::close(fd);
    error = "send failed";
    return GroupStatus::kDead;
  }

  std::string buffer;
  std::string line;
  bool got_report = false;
  while (!got_report) {
    const service::ReadLineStatus status =
        service::read_frame(fd, buffer, line);
    if (status != service::ReadLineStatus::kLine) {
      ::close(fd);
      error = status == service::ReadLineStatus::kTimeout
                  ? "worker read timeout"
                  : "worker closed the connection";
      return GroupStatus::kDead;
    }
    Json j;
    std::string parse_error;
    if (!Json::parse(line, j, &parse_error) || !j.is_object()) {
      ::close(fd);
      error = "unparseable worker response: " + parse_error;
      return GroupStatus::kDead;
    }
    const Json* type = j.find("type");
    const std::string kind =
        type != nullptr && type->is_string() ? type->as_string() : "";
    if (kind == "accepted") {
      if (trace != nullptr && recorder_ != nullptr) {
        // Clock handshake, leg 2: the worker read its recorder clock
        // between our send and this receive. Estimating that read at the
        // round-trip midpoint gives the offset rebasing every worker
        // timestamp onto our clock (error bounded by half the RTT plus
        // half the worker's request-parse time — constant per dispatch,
        // so per-thread monotonicity survives).
        const Json* now_field = j.find("trace_now_us");
        if (now_field != nullptr && now_field->is_int()) {
          const std::uint64_t t_recv = recorder_->now_us();
          clock_offset_us =
              static_cast<std::int64_t>((t_send + t_recv) / 2) -
              now_field->as_int();
          have_offset = true;
        }
      }
      continue;
    }
    if (kind == "error") {
      const Json* message = j.find("message");
      error = message != nullptr && message->is_string()
                  ? message->as_string()
                  : "worker error";
      ::close(fd);
      return GroupStatus::kError;
    }
    if (kind == "obligation") {
      const Json* index_field = j.find("index");
      const Json* verdict = j.find("verdict");
      if (index_field == nullptr || !index_field->is_int() ||
          index_field->as_int() < 0 ||
          static_cast<std::size_t>(index_field->as_int()) >= slots.size() ||
          verdict == nullptr || !verdict->is_object()) {
        ::close(fd);
        error = "malformed obligation line from worker";
        return GroupStatus::kDead;
      }
      ObSlot& slot = slots[static_cast<std::size_t>(index_field->as_int())];
      std::string codec_error;
      if (!cache::verdict_from_json(verdict->dump(), slot.result, nullptr,
                                    &codec_error)) {
        ::close(fd);
        error = "bad wire verdict: " + codec_error;
        return GroupStatus::kDead;
      }
      const Json* source = j.find("source");
      slot.source = source != nullptr && source->is_string()
                        ? source->as_string()
                        : "computed";
      slot.ready = true;
      continue;
    }
    if (kind == "report") {
      got_report = true;
      if (trace != nullptr && have_offset) {
        const Json* spans = j.find("spans");
        std::vector<telemetry::TraceEvent> worker_events;
        std::string codec_error;
        if (spans != nullptr &&
            service::trace_events_from_json(*spans, worker_events,
                                            &codec_error)) {
          // Fold tail attribution from the worker-local records (their
          // clock, their ids — build_profile only needs self-consistency),
          // then renumber and rebase them into our recorder.
          note_tail(worker.name, worker_events, *trace);
          stitch_worker_events(worker_events, clock_offset_us, *trace);
        } else if (spans != nullptr) {
          TS_LOG_WARN("fleet: dropping spans from %s: %s",
                      worker.name.c_str(), codec_error.c_str());
        }
      }
    }
  }
  ::close(fd);
  for (const std::size_t index : group) {
    if (!slots[index].ready) {
      error = "worker report omitted obligations";
      return GroupStatus::kDead;
    }
  }
  return GroupStatus::kOk;
}

void FleetCoordinator::stitch_worker_events(
    const std::vector<telemetry::TraceEvent>& worker_events,
    std::int64_t clock_offset_us, const JobTrace& trace) {
  if (recorder_ == nullptr) return;
  std::unordered_set<std::uint64_t> wrapper_ids(trace.wrapper_ids.begin(),
                                                trace.wrapper_ids.end());
  wrapper_ids.erase(0u);
  // Worker span ids and tids are renumbered into our namespace: ids from
  // the shared process-global counter (collision-free with our own and
  // with other dispatches), tids from a dedicated range far above the
  // coordinator's dense thread ids. Rebasing by a per-dispatch constant
  // (clamped at 0) preserves each worker thread's timestamp order, so the
  // stitched file still passes per-tid monotonicity.
  std::unordered_map<std::uint64_t, std::uint64_t> id_map;
  std::unordered_map<int, int> tid_map;
  for (const telemetry::TraceEvent& e : worker_events) {
    const std::int64_t rebased =
        clock_offset_us + static_cast<std::int64_t>(e.ts_us);
    const std::uint64_t ts =
        rebased > 0 ? static_cast<std::uint64_t>(rebased) : 0;
    auto tid_it = tid_map.find(e.tid);
    if (tid_it == tid_map.end()) {
      tid_it = tid_map
                   .emplace(e.tid, stitch_tids_.fetch_add(
                                       1, std::memory_order_relaxed))
                   .first;
    }
    if (e.begin) {
      const std::uint64_t id = recorder_->next_id();
      id_map[e.span_id] = id;
      std::uint64_t parent = 0;
      const auto parent_it = id_map.find(e.parent_id);
      if (parent_it != id_map.end()) {
        parent = parent_it->second;  // worker-local parent: follow the map
      } else if (wrapper_ids.count(e.parent_id) != 0) {
        parent = e.parent_id;  // one of the wrapper ids we sent: keep it
      }
      recorder_->begin_event(e.name, id, parent, tid_it->second, ts);
    } else {
      const auto span_it = id_map.find(e.span_id);
      if (span_it == id_map.end()) continue;  // orphan end: begin not shipped
      recorder_->end_event(e.name, span_it->second, tid_it->second, ts,
                           e.args);
    }
  }
}

void FleetCoordinator::note_tail(
    const std::string& worker_name,
    const std::vector<telemetry::TraceEvent>& worker_events, JobTrace& trace) {
  constexpr std::size_t kTailKeep = 32;
  const telemetry::Profile profile = telemetry::build_profile(worker_events);
  std::vector<TailEntry> entries;
  entries.reserve(profile.obligations.size());
  for (const telemetry::ObligationProfile& ob : profile.obligations) {
    if (ob.name == "(unattributed)") continue;
    TailEntry entry;
    entry.property = ob.name;
    entry.worker = worker_name;
    entry.total_us = ob.total_us;
    for (const telemetry::PhaseStats& phase : ob.phases) {
      if (phase.exclusive_us == 0) continue;
      entry.phases.emplace_back(phase.name, phase.exclusive_us);
    }
    entries.push_back(std::move(entry));
  }
  {
    std::lock_guard<std::mutex> lock(trace.mutex);
    trace.slowest.insert(trace.slowest.end(), entries.begin(), entries.end());
  }
  std::lock_guard<std::mutex> lock(tail_mutex_);
  tail_.insert(tail_.end(), entries.begin(), entries.end());
  std::stable_sort(tail_.begin(), tail_.end(),
                   [](const TailEntry& a, const TailEntry& b) {
                     return a.total_us > b.total_us;
                   });
  if (tail_.size() > kTailKeep) tail_.resize(kTailKeep);
}

proof::Json FleetCoordinator::tail_to_json(
    const std::vector<TailEntry>& entries, std::size_t limit) {
  std::vector<const TailEntry*> sorted;
  sorted.reserve(entries.size());
  for (const TailEntry& entry : entries) sorted.push_back(&entry);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TailEntry* a, const TailEntry* b) {
                     return a->total_us > b->total_us;
                   });
  if (sorted.size() > limit) sorted.resize(limit);
  Json out = Json::array();
  for (const TailEntry* entry : sorted) {
    Json row = Json::object();
    row.set("property", entry->property);
    row.set("worker", entry->worker);
    row.set("total_us", entry->total_us);
    Json phases = Json::object();
    for (const auto& [name, us] : entry->phases) phases.set(name, us);
    row.set("phases", std::move(phases));
    out.push_back(std::move(row));
  }
  return out;
}

void FleetCoordinator::mark_dead(const std::string& name,
                                 const std::string& reason) {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  for (const auto& worker : workers_) {
    if (worker->name != name) continue;
    if (!worker->alive) return;
    worker->alive = false;
    ring_.remove(name);
    TS_COUNTER_ADD("fleet.worker_dead", 1);
    telemetry::emit_event("worker_down",
                          {{"endpoint", name}, {"reason", reason}});
    telemetry::emit_event(
        "worker_evicted",
        {{"endpoint", name}, {"live", ring_.node_count()}});
    TS_LOG_WARN("fleet: worker %s marked dead (%zu remain)", name.c_str(),
                ring_.node_count());
    return;
  }
}

bool FleetCoordinator::ping_worker(const service::Endpoint& endpoint) const {
  std::string error;
  const int fd = service::connect_endpoint(endpoint, &error);
  if (fd < 0) return false;
  service::set_recv_timeout(fd, 1.0);
  bool ok = false;
  if (service::send_frame(fd, service::control_request_line("ping"))) {
    std::string buffer;
    std::string line;
    if (service::read_frame(fd, buffer, line) ==
        service::ReadLineStatus::kLine) {
      Json j;
      std::string parse_error;
      if (Json::parse(line, j, &parse_error) && j.is_object()) {
        const Json* type = j.find("type");
        ok = type != nullptr && type->is_string() &&
             type->as_string() == "pong";
      }
    }
  }
  ::close(fd);
  return ok;
}

void FleetCoordinator::health_loop() {
  const auto interval = std::chrono::duration<double>(
      options_.health_interval_seconds);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(health_mutex_);
      health_cv_.wait_for(lock, interval, [this] { return health_stop_; });
      if (health_stop_) return;
    }
    for (const auto& worker : workers_) {
      const bool ok = ping_worker(worker->endpoint);
      if (!ok) {
        mark_dead(worker->name, "health ping failed");
        continue;
      }
      std::lock_guard<std::mutex> lock(ring_mutex_);
      if (!worker->alive) {
        worker->alive = true;
        ring_.add(worker->name);
        TS_COUNTER_ADD("fleet.worker_revived", 1);
        telemetry::emit_event(
            "worker_rejoined",
            {{"endpoint", worker->name}, {"live", ring_.node_count()}});
        TS_LOG_INFO("fleet: worker %s revived (%zu live)",
                    worker->name.c_str(), ring_.node_count());
      }
    }
  }
}

}  // namespace trojanscout::fleet
