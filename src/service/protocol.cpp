#include "service/protocol.hpp"

#include <fstream>
#include <optional>
#include <stdexcept>

#include "proof/json.hpp"
#include "specdsl/specdsl.hpp"
#include "verilog/reader.hpp"

namespace trojanscout::service {

using proof::Json;

designs::Design load_job_design(const AuditJob& job) {
  designs::Design design;
  design.name = job.design_path;
  std::ifstream in(job.design_path);
  if (!in) throw std::runtime_error("cannot open " + job.design_path);
  design.nl = verilog::read_verilog(in);
  design.nl.validate();
  design.spec = specdsl::load_spec_file(design.nl, job.spec_path);
  if (design.spec.registers.empty()) {
    throw std::runtime_error("spec file declares no registers");
  }
  for (const auto& reg_spec : design.spec.registers) {
    design.critical_registers.push_back(reg_spec.reg);
  }
  return design;
}

core::DetectorOptions AuditJob::detector_options() const {
  core::DetectorOptions options;
  options.engine.kind = engine;
  options.engine.max_frames = frames;
  options.engine.time_limit_seconds = budget;
  options.scan_pseudo_critical = scan_pseudo_critical;
  options.check_bypass = check_bypass;
  return options;
}

bool parse_request(const std::string& line, Request& out, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  Json j;
  std::string parse_error;
  if (!Json::parse(line, j, &parse_error)) {
    return fail("bad JSON: " + parse_error);
  }
  if (!j.is_object()) return fail("request is not an object");
  const Json* op = j.find("op");
  if (op == nullptr || !op->is_string()) return fail("missing op");

  Request request;
  if (op->as_string() == "ping") {
    request.op = Request::Op::kPing;
  } else if (op->as_string() == "stats") {
    request.op = Request::Op::kStats;
  } else if (op->as_string() == "shutdown") {
    request.op = Request::Op::kShutdown;
  } else if (op->as_string() == "audit") {
    request.op = Request::Op::kAudit;
    AuditJob& job = request.job;
    const Json* f = j.find("id");
    if (f != nullptr && f->is_string()) job.id = f->as_string();
    f = j.find("design");
    if (f == nullptr || !f->is_string() || f->as_string().empty()) {
      return fail("audit needs a design path");
    }
    job.design_path = f->as_string();
    f = j.find("spec");
    if (f == nullptr || !f->is_string() || f->as_string().empty()) {
      return fail("audit needs a spec path");
    }
    job.spec_path = f->as_string();
    f = j.find("engine");
    if (f != nullptr) {
      if (!f->is_string()) return fail("bad engine");
      const std::optional<core::EngineKind> kind =
          core::engine_kind_from_string(f->as_string());
      if (!kind.has_value()) {
        return fail("unknown engine '" + f->as_string() + "'");
      }
      job.engine = *kind;
    }
    f = j.find("frames");
    if (f != nullptr) {
      if (!f->is_int() || f->as_int() <= 0) return fail("bad frames");
      job.frames = static_cast<std::size_t>(f->as_int());
    }
    f = j.find("budget");
    if (f != nullptr) {
      if (!f->is_number() || f->as_double() <= 0) return fail("bad budget");
      job.budget = f->as_double();
    }
    f = j.find("no_scan");
    if (f != nullptr) {
      if (!f->is_bool()) return fail("bad no_scan");
      job.scan_pseudo_critical = !f->as_bool();
    }
    f = j.find("no_bypass");
    if (f != nullptr) {
      if (!f->is_bool()) return fail("bad no_bypass");
      job.check_bypass = !f->as_bool();
    }
    f = j.find("subset");
    if (f != nullptr) {
      if (!f->is_array()) return fail("bad subset");
      for (const Json& idx : f->items()) {
        if (!idx.is_int() || idx.as_int() < 0) return fail("bad subset index");
        const auto value = static_cast<std::size_t>(idx.as_int());
        if (!job.subset.empty() && value <= job.subset.back()) {
          return fail("subset must be sorted and unique");
        }
        job.subset.push_back(value);
      }
    }
    f = j.find("wire_verdicts");
    if (f != nullptr) {
      if (!f->is_bool()) return fail("bad wire_verdicts");
      job.wire_verdicts = f->as_bool();
    }
    f = j.find("trace_id");
    if (f != nullptr) {
      if (!f->is_string()) return fail("bad trace_id");
      job.trace_id = f->as_string();
    }
    f = j.find("parent_spans");
    if (f != nullptr) {
      if (!f->is_array()) return fail("bad parent_spans");
      for (const Json& span : f->items()) {
        if (!span.is_int() || span.as_int() < 0) {
          return fail("bad parent_spans entry");
        }
        job.parent_spans.push_back(static_cast<std::uint64_t>(span.as_int()));
      }
      if (job.parent_spans.size() != job.subset.size()) {
        return fail("parent_spans must match subset length");
      }
    }
  } else {
    return fail("unknown op '" + op->as_string() + "'");
  }
  out = std::move(request);
  return true;
}

std::string audit_request_line(const AuditJob& job) {
  Json j = Json::object();
  j.set("op", "audit");
  j.set("id", job.id);
  j.set("design", job.design_path);
  j.set("spec", job.spec_path);
  j.set("engine", core::engine_flag_name(job.engine));
  j.set("frames", job.frames);
  j.set("budget", job.budget);
  j.set("no_scan", !job.scan_pseudo_critical);
  j.set("no_bypass", !job.check_bypass);
  if (!job.subset.empty()) {
    Json subset = Json::array();
    for (const std::size_t index : job.subset) {
      subset.push_back(static_cast<std::int64_t>(index));
    }
    j.set("subset", std::move(subset));
  }
  if (job.wire_verdicts) j.set("wire_verdicts", true);
  if (!job.trace_id.empty()) {
    j.set("trace_id", job.trace_id);
    Json parents = Json::array();
    for (const std::uint64_t span : job.parent_spans) {
      parents.push_back(static_cast<std::int64_t>(span));
    }
    j.set("parent_spans", std::move(parents));
  }
  return j.dump();
}

std::string control_request_line(const std::string& op) {
  Json j = Json::object();
  j.set("op", op);
  return j.dump();
}

std::string error_response_line(const std::string& id,
                                const std::string& message,
                                const std::string& code) {
  Json j = Json::object();
  j.set("type", "error");
  j.set("id", id);
  if (!code.empty()) j.set("code", code);
  j.set("message", message);
  return j.dump();
}

std::string retry_after_line(const std::string& id,
                             std::uint64_t retry_after_ms) {
  Json j = Json::object();
  j.set("type", "retry-after");
  j.set("id", id);
  j.set("retry_after_ms", retry_after_ms);
  return j.dump();
}

}  // namespace trojanscout::service
