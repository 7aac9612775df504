#include "proof/certificate.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "cnf/unroller.hpp"
#include "proof/checker.hpp"
#include "sat/solver.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/thread_pool.hpp"

namespace trojanscout::proof {

namespace {

using core::CheckResult;
using core::EngineKind;
using core::Obligation;
using core::TrojanDetector;

// ---- hashing --------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;

  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  void mix(const netlist::Word& word) {
    mix(static_cast<std::uint64_t>(word.size()));
    for (const netlist::SignalId id : word) mix(static_cast<std::uint64_t>(id));
  }
};

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool parse_hex_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  out = 0;
  for (const char c : text) {
    out <<= 4;
    if (c >= '0' && c <= '9') out |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return false;
  }
  return true;
}

// ---- enum names -----------------------------------------------------------

const char* kind_name(Obligation::Kind kind) {
  switch (kind) {
    case Obligation::Kind::kPseudo: return "pseudo";
    case Obligation::Kind::kCorruption: return "corruption";
    case Obligation::Kind::kBypass: return "bypass";
  }
  return "?";
}

bool kind_from_name(const std::string& name, Obligation::Kind& out) {
  if (name == "pseudo") out = Obligation::Kind::kPseudo;
  else if (name == "corruption") out = Obligation::Kind::kCorruption;
  else if (name == "bypass") out = Obligation::Kind::kBypass;
  else return false;
  return true;
}

const char* monitor_kind_name(properties::CorruptionMonitorKind kind) {
  return kind == properties::CorruptionMonitorKind::kExact ? "exact"
                                                           : "hold-only";
}

bool monitor_kind_from_name(const std::string& name,
                            properties::CorruptionMonitorKind& out) {
  if (name == "exact") out = properties::CorruptionMonitorKind::kExact;
  else if (name == "hold-only") out = properties::CorruptionMonitorKind::kHoldOnly;
  else return false;
  return true;
}

/// Algorithm 1's fold over certificate records: each record's verdict is
/// merged in enumeration order, exactly as the scheduler merges engine
/// results, so the signature is the one a plain audit reports.
core::DetectionReport merge_records(
    const TrojanDetector& detector, const std::vector<Obligation>& obligations,
    const std::vector<ObligationRecord>& records) {
  std::vector<CheckResult> checks(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ObligationRecord& record = records[i];
    CheckResult& check = checks[i];
    check.engine_used = record.engine_used;
    check.violated = record.violated;
    check.bound_reached = record.bound_reached;
    check.proven_unbounded = record.proven_unbounded;
    check.cancelled = record.cancelled;
    check.frames_completed = record.frames_completed;
    check.status = record.status;
    check.witness = record.witness;
  }
  return detector.merge_obligations(obligations, checks);
}

}  // namespace

std::uint64_t design_hash(const netlist::Netlist& nl) {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(nl.size()));
  for (netlist::SignalId id = 0; id < nl.size(); ++id) {
    const netlist::Gate& g = nl.gate(id);
    fnv.mix(static_cast<std::uint64_t>(g.op));
    fnv.mix(static_cast<std::uint64_t>(g.fanin[0]));
    fnv.mix(static_cast<std::uint64_t>(g.fanin[1]));
    fnv.mix(static_cast<std::uint64_t>(g.fanin[2]));
    fnv.mix(static_cast<std::uint64_t>(g.init ? 1 : 0));
  }
  fnv.mix(static_cast<std::uint64_t>(nl.inputs().size()));
  for (const netlist::SignalId id : nl.inputs()) {
    fnv.mix(static_cast<std::uint64_t>(id));
  }
  for (const auto& port : nl.input_ports()) {
    fnv.mix(port.name);
    fnv.mix(port.bits);
  }
  for (const auto& port : nl.output_ports()) {
    fnv.mix(port.name);
    fnv.mix(port.bits);
  }
  for (const auto& reg : nl.registers()) {
    fnv.mix(reg.name);
    fnv.mix(reg.dffs);
  }
  return fnv.h;
}

std::uint64_t spec_hash(const designs::Design& design) {
  Fnv fnv;
  fnv.mix(design.name);
  fnv.mix(static_cast<std::uint64_t>(design.spec.registers.size()));
  for (const auto& reg : design.spec.registers) {
    fnv.mix(reg.reg);
    fnv.mix(static_cast<std::uint64_t>(reg.ways.size()));
    for (const auto& way : reg.ways) {
      fnv.mix(way.description);
      fnv.mix(way.cycle_label);
      fnv.mix(way.value_description);
      fnv.mix(static_cast<std::uint64_t>(way.condition));
      fnv.mix(way.next_value);
    }
    fnv.mix(static_cast<std::uint64_t>(reg.obligations.size()));
    for (const auto& obligation : reg.obligations) {
      fnv.mix(obligation.description);
      fnv.mix(static_cast<std::uint64_t>(obligation.condition));
      fnv.mix(obligation.observed_value);
      fnv.mix(static_cast<std::uint64_t>(obligation.latency));
    }
  }
  fnv.mix(static_cast<std::uint64_t>(design.critical_registers.size()));
  for (const auto& reg : design.critical_registers) fnv.mix(reg);
  return fnv.h;
}

BmcFormula derive_bmc_formula(const netlist::Netlist& nl,
                              netlist::SignalId bad, std::size_t n_frames) {
  // The unroller's clause emission depends only on the netlist and the
  // frame count — never on solver assignment state — so reconstructing the
  // (solver, unroller) pair and skipping the solve calls reproduces the
  // exact input-clause sequence an engine run streamed to its ProofLog.
  ProofLog log;
  sat::Solver solver;
  solver.set_proof_listener(&log);
  cnf::Unroller unroller(nl, solver, {bad});
  BmcFormula out;
  for (std::size_t t = 0; t < n_frames; ++t) {
    unroller.add_frame();
    const sat::Lit bad_lit = unroller.lit_of(bad, t);
    out.frames.push_back({log.formula().size(), bad_lit});
    solver.add_clause(~bad_lit);
  }
  out.formula = log.formula();
  return out;
}

Certificate certify(const designs::Design& design,
                    const CertifyOptions& options) {
  TrojanDetector detector(design, options.detector);
  const std::vector<Obligation> obligations = detector.enumerate_obligations();
  // BMC emits DRAT; the portfolio forwards the proof stream to its BMC leg,
  // so the evidence is usable exactly when BMC ends up the winning engine.
  const bool wants_drat =
      options.detector.engine.kind == EngineKind::kBmc ||
      options.detector.engine.kind == EngineKind::kPortfolio;

  telemetry::Span certify_span("certify");
  const std::uint64_t certify_id = certify_span.id();

  std::vector<ObligationRecord> records(obligations.size());
  // `run_one` executes on pool workers, so the obligation span parents to
  // the certify root by explicit id rather than the thread-local stack.
  auto run_one = [&](std::size_t i) {
    telemetry::Span span("certify:" + obligations[i].property_name(),
                         certify_id);
    TS_COUNTER_ADD("certify.obligations", 1);
    ProofLog log;
    // Only the input-clause *counts* enter the marks; the verifier
    // re-derives clause contents from the netlist, so skip storing them.
    log.set_record_formula(false);
    core::EngineOptions engine = options.detector.engine;
    engine.cancel = nullptr;  // certificates never race a fail-fast cancel
    if (wants_drat) engine.proof = &log;
    const CheckResult check = detector.run_obligation(obligations[i], engine);
    if (options.store != nullptr) {
      options.store->store(obligations[i], check);
    }

    ObligationRecord& record = records[i];
    record.obligation = obligations[i];
    record.engine_used = check.engine_used;
    record.violated = check.violated;
    record.bound_reached = check.bound_reached;
    record.proven_unbounded = check.proven_unbounded;
    record.cancelled = check.cancelled;
    record.frames_completed = check.frames_completed;
    record.status = check.status;
    record.witness = check.witness;
    record.invariant = check.invariant;
    if (check.engine_used == EngineKind::kBmc) {
      // A winning BMC run always completed its clean frames, so the mark
      // count must line up; a cancelled portfolio leg never gets here.
      if (log.marks().size() != check.frames_completed) {
        throw std::runtime_error(
            "certify: UNSAT mark count " + std::to_string(log.marks().size()) +
            " != frames_completed " + std::to_string(check.frames_completed) +
            " for " + obligations[i].property_name());
      }
      record.drat = DratEvidence{log.drat(), log.marks()};
    }
    if (record.proven_unbounded && !record.invariant.has_value()) {
      throw std::runtime_error(
          "certify: unbounded proof without an inductive invariant for " +
          obligations[i].property_name());
    }
  };

  {
    util::ThreadPool pool(options.jobs);
    std::vector<std::exception_ptr> errors(obligations.size());
    for (std::size_t i = 0; i < obligations.size(); ++i) {
      pool.submit([&, i] {
        try {
          run_one(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Merge in enumeration order — the same fold the parallel scheduler
  // performs, so the signature matches a plain audit.
  const core::DetectionReport report =
      merge_records(detector, obligations, records);

  Certificate cert;
  cert.design_name = design.name;
  cert.design_hash = design_hash(design.nl);
  cert.spec_hash = spec_hash(design);
  cert.engine = options.detector.engine.kind;
  cert.max_frames = options.detector.engine.max_frames;
  cert.monitor_kind = options.detector.monitor_kind;
  cert.scan_pseudo_critical = options.detector.scan_pseudo_critical;
  cert.check_bypass = options.detector.check_bypass;
  cert.mirror_threshold = options.detector.mirror_threshold;
  cert.min_pseudo_violation_depth = options.detector.min_pseudo_violation_depth;
  cert.records = std::move(records);
  cert.trojan_found = report.trojan_found;
  cert.trust_bound_frames = report.trust_bound_frames;
  cert.report_signature = report.signature();
  return cert;
}

std::string CertificateCheckResult::summary() const {
  std::string out = ok ? "certificate OK" : "certificate REJECTED";
  out += ": " + std::to_string(witnesses_confirmed) + " witness(es) replayed, " +
         std::to_string(drat_marks_checked) + " UNSAT frame(s) DRAT-checked, " +
         std::to_string(invariants_checked) + " invariant(s) re-proved, " +
         std::to_string(unchecked_obligations) + " obligation(s) unchecked";
  for (const auto& e : errors) out += "\n  error: " + e;
  return out;
}

CertificateCheckResult check_certificate(const Certificate& cert,
                                         const designs::Design& design) {
  CertificateCheckResult result;
  auto fail = [&result](std::string message) {
    result.errors.push_back(std::move(message));
  };

  // 1. Identity: the certificate must be about exactly this design + spec.
  if (cert.design_name != design.name) {
    fail("design name mismatch: certificate says '" + cert.design_name +
         "', design is '" + design.name + "'");
  }
  if (cert.design_hash != design_hash(design.nl)) {
    fail("design hash mismatch (netlist differs from the certified one)");
  }
  if (cert.spec_hash != spec_hash(design)) {
    fail("spec hash mismatch (valid-ways spec or critical set differs)");
  }
  if (!result.errors.empty()) {
    return result;  // wrong design: nothing else is meaningful
  }

  // 2. Re-enumerate the obligations with the certified configuration.
  core::DetectorOptions options;
  options.engine.kind = cert.engine;
  options.engine.max_frames = cert.max_frames;
  options.monitor_kind = cert.monitor_kind;
  options.scan_pseudo_critical = cert.scan_pseudo_critical;
  options.check_bypass = cert.check_bypass;
  options.mirror_threshold = cert.mirror_threshold;
  options.min_pseudo_violation_depth = cert.min_pseudo_violation_depth;
  TrojanDetector detector(design, options);

  const std::vector<Obligation> obligations = detector.enumerate_obligations();
  if (obligations.size() != cert.records.size()) {
    fail("obligation count mismatch: design yields " +
         std::to_string(obligations.size()) + ", certificate records " +
         std::to_string(cert.records.size()));
    return result;
  }
  for (std::size_t i = 0; i < obligations.size(); ++i) {
    const Obligation& expected = obligations[i];
    const Obligation& got = cert.records[i].obligation;
    if (expected.kind != got.kind || expected.reg != got.reg ||
        expected.candidate != got.candidate) {
      fail("obligation " + std::to_string(i) + " mismatch: expected " +
           expected.property_name() + ", certificate has " +
           got.property_name());
    }
  }
  if (!result.errors.empty()) return result;

  // 3. Evidence, per record. Requirements follow each record's winning
  // engine: BMC answers need DRAT chains, PDR unbounded proofs need an
  // invariant that re-proves, ATPG clean frames are honestly unchecked.
  for (std::size_t i = 0; i < cert.records.size(); ++i) {
    const ObligationRecord& record = cert.records[i];
    const std::string label = record.obligation.property_name();
    if (record.cancelled) {
      fail(label + ": cancelled run in a certificate (no evidence exists)");
      continue;
    }
    if (cert.engine != EngineKind::kPortfolio &&
        record.engine_used != cert.engine) {
      fail(label + ": record engine " +
           core::engine_name(record.engine_used) +
           " disagrees with the certified configuration " +
           core::engine_name(cert.engine));
      continue;
    }
    if (record.engine_used == EngineKind::kPortfolio) {
      fail(label + ": record engine must be a concrete backend, not the "
           "portfolio itself");
      continue;
    }
    const bool is_bmc = record.engine_used == EngineKind::kBmc;

    // The monitor netlist is rebuilt here, independently of the run that
    // produced the certificate — both the witness replay and the CNF
    // re-derivation below use this reconstruction.
    TrojanDetector::InstrumentedProperty property;
    try {
      property = detector.instrument_obligation(record.obligation);
    } catch (const std::exception& e) {
      fail(label + ": cannot rebuild monitor: " + e.what());
      continue;
    }

    if (record.violated) {
      if (!record.witness.has_value()) {
        fail(label + ": violated but no witness in certificate");
      } else {
        const sim::ReplayVerdict verdict =
            sim::replay_confirms(property.nl, property.bad, *record.witness);
        if (!verdict.confirmed) {
          fail(label + ": witness replay failed: " + verdict.detail);
        } else if (is_bmc && !verdict.minimal) {
          // BMC witnesses are minimal by construction (earlier frames were
          // proven UNSAT); a non-minimal one contradicts the DRAT marks.
          fail(label + ": BMC witness not minimal: " + verdict.detail);
        } else {
          result.witnesses_confirmed++;
        }
      }
    }

    if (is_bmc) {
      if (!record.drat.has_value()) {
        fail(label + ": BMC record without DRAT evidence");
        continue;
      }
      const DratEvidence& evidence = *record.drat;
      if (evidence.marks.size() != record.frames_completed) {
        fail(label + ": " + std::to_string(evidence.marks.size()) +
             " UNSAT marks for " + std::to_string(record.frames_completed) +
             " completed frames");
        continue;
      }
      const BmcFormula derived = derive_bmc_formula(property.nl, property.bad,
                                                    record.frames_completed);
      std::size_t prev_proof_bytes = 0;
      for (std::size_t t = 0; t < evidence.marks.size(); ++t) {
        const ProofLog::UnsatMark& mark = evidence.marks[t];
        const BmcFormula::FramePoint& point = derived.frames[t];
        if (mark.formula_clauses != point.formula_clauses) {
          fail(label + " frame " + std::to_string(t) +
               ": formula prefix mismatch (certificate " +
               std::to_string(mark.formula_clauses) + ", re-derived " +
               std::to_string(point.formula_clauses) + ")");
          continue;
        }
        if (mark.assumptions.size() != 1 || mark.assumptions[0] != point.bad) {
          fail(label + " frame " + std::to_string(t) +
               ": assumption is not this frame's bad literal");
          continue;
        }
        if (mark.proof_bytes < prev_proof_bytes ||
            mark.proof_bytes > evidence.drat.size()) {
          fail(label + " frame " + std::to_string(t) +
               ": proof prefix length out of range");
          continue;
        }
        prev_proof_bytes = mark.proof_bytes;

        // The frame's UNSAT claim: formula prefix + the bad assumption as a
        // unit clause is refuted by the DRAT prefix. The formula comes from
        // the re-derivation, never from the certificate.
        std::vector<sat::Clause> formula(
            derived.formula.begin(),
            derived.formula.begin() +
                static_cast<std::ptrdiff_t>(point.formula_clauses));
        formula.push_back({point.bad});
        DratChecker checker;
        std::string check_error;
        if (!checker.check(formula, evidence.drat.data(), mark.proof_bytes,
                           &check_error)) {
          fail(label + " frame " + std::to_string(t) +
               ": DRAT check failed: " + check_error);
          continue;
        }
        result.drat_marks_checked++;
      }
    } else if (record.engine_used == EngineKind::kPdr) {
      if (record.proven_unbounded) {
        if (!record.invariant.has_value()) {
          fail(label + ": unbounded proof without an inductive invariant");
        } else {
          const pdr::InvariantCheck verdict = pdr::check_invariant(
              property.nl, property.bad, *record.invariant);
          if (!verdict.ok) {
            fail(label + ": invariant re-check failed: " + verdict.detail);
          } else {
            result.invariants_checked++;
          }
        }
      } else if (!record.violated) {
        // A bound-reached PDR run carries no proof object.
        result.unchecked_obligations++;
      }
    } else if (!record.violated) {
      // ATPG clean frames: search exhaustion yields no proof object.
      result.unchecked_obligations++;
    }
    if (record.proven_unbounded && record.engine_used != EngineKind::kPdr) {
      fail(label + ": only PDR can claim an unbounded proof, record says " +
           core::engine_name(record.engine_used));
    }
  }

  // 4. The claim: re-merge the records into a report; its signature must be
  // exactly the certified one.
  const core::DetectionReport report =
      merge_records(detector, obligations, cert.records);
  if (report.signature() != cert.report_signature) {
    fail("report signature mismatch: the records do not merge into the "
         "certified report");
  }
  if (report.trojan_found != cert.trojan_found) {
    fail("trojan_found mismatch between records and certificate header");
  }
  if (report.trust_bound_frames != cert.trust_bound_frames) {
    fail("trust_bound_frames mismatch between records and certificate header");
  }

  result.ok = result.errors.empty();
  return result;
}

// ---- JSON -----------------------------------------------------------------

Json certificate_to_json(const Certificate& cert) {
  Json root = Json::object();
  root.set("format", Certificate::kFormat);
  root.set("version", Certificate::kVersion);

  Json design = Json::object();
  design.set("name", cert.design_name);
  design.set("design_hash", hex_u64(cert.design_hash));
  design.set("spec_hash", hex_u64(cert.spec_hash));
  root.set("design", std::move(design));

  Json options = Json::object();
  options.set("engine", core::engine_name(cert.engine));
  options.set("max_frames", cert.max_frames);
  options.set("monitor_kind", monitor_kind_name(cert.monitor_kind));
  options.set("scan_pseudo_critical", cert.scan_pseudo_critical);
  options.set("check_bypass", cert.check_bypass);
  options.set("mirror_threshold", cert.mirror_threshold);
  options.set("min_pseudo_violation_depth", cert.min_pseudo_violation_depth);
  root.set("options", std::move(options));

  Json records = Json::array();
  for (const ObligationRecord& record : cert.records) {
    Json r = Json::object();
    r.set("kind", kind_name(record.obligation.kind));
    r.set("reg", record.obligation.reg);
    r.set("candidate", record.obligation.candidate);
    r.set("property", record.obligation.property_name());
    r.set("engine", core::engine_name(record.engine_used));

    Json outcome = Json::object();
    outcome.set("violated", record.violated);
    outcome.set("bound_reached", record.bound_reached);
    outcome.set("proven_unbounded", record.proven_unbounded);
    outcome.set("cancelled", record.cancelled);
    outcome.set("frames_completed", record.frames_completed);
    outcome.set("status", record.status);
    r.set("result", std::move(outcome));

    if (record.witness.has_value()) {
      Json witness = Json::object();
      witness.set("violation_frame", record.witness->violation_frame);
      Json frames = Json::array();
      for (const auto& frame : record.witness->frames) {
        frames.push_back(frame.bits.to_binary_string());
      }
      witness.set("frames", std::move(frames));
      r.set("witness", std::move(witness));
    } else {
      r.set("witness", nullptr);
    }

    if (record.drat.has_value()) {
      Json drat = Json::object();
      drat.set("proof_b64", base64_encode(record.drat->drat));
      Json marks = Json::array();
      for (const auto& mark : record.drat->marks) {
        Json m = Json::object();
        m.set("formula_clauses", mark.formula_clauses);
        m.set("proof_bytes", mark.proof_bytes);
        Json assumptions = Json::array();
        for (const sat::Lit lit : mark.assumptions) {
          assumptions.push_back(lit.to_dimacs());
        }
        m.set("assumptions", std::move(assumptions));
        marks.push_back(std::move(m));
      }
      drat.set("marks", std::move(marks));
      r.set("drat", std::move(drat));
    } else {
      r.set("drat", nullptr);
    }

    if (record.invariant.has_value()) {
      Json clauses = Json::array();
      for (const auto& clause : record.invariant->clauses) {
        Json lits = Json::array();
        for (const std::int32_t lit : clause) {
          lits.push_back(static_cast<std::int64_t>(lit));
        }
        clauses.push_back(std::move(lits));
      }
      r.set("invariant", std::move(clauses));
    } else {
      r.set("invariant", nullptr);
    }
    records.push_back(std::move(r));
  }
  root.set("obligations", std::move(records));

  Json report = Json::object();
  report.set("trojan_found", cert.trojan_found);
  report.set("trust_bound_frames", cert.trust_bound_frames);
  report.set("signature", cert.report_signature);
  root.set("report", std::move(report));
  return root;
}

namespace {

bool get_field(const Json& obj, const char* key, const Json*& out,
               std::string* error) {
  out = obj.find(key);
  if (out == nullptr) {
    if (error != nullptr) {
      *error = "certificate: missing field '" + std::string(key) + "'";
    }
    return false;
  }
  return true;
}

}  // namespace

bool certificate_from_json(const Json& json, Certificate& out,
                           std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = "certificate: " + message;
    return false;
  };
  if (!json.is_object()) return fail("root is not an object");
  const Json* field = nullptr;

  if (!get_field(json, "format", field, error)) return false;
  if (!field->is_string() || field->as_string() != Certificate::kFormat) {
    return fail("unrecognized format");
  }
  if (!get_field(json, "version", field, error)) return false;
  if (!field->is_int() || field->as_int() != Certificate::kVersion) {
    return fail("unsupported version");
  }

  if (!get_field(json, "design", field, error)) return false;
  {
    const Json& design = *field;
    const Json* f = nullptr;
    if (!get_field(design, "name", f, error) || !f->is_string()) {
      return fail("bad design.name");
    }
    out.design_name = f->as_string();
    if (!get_field(design, "design_hash", f, error) || !f->is_string() ||
        !parse_hex_u64(f->as_string(), out.design_hash)) {
      return fail("bad design.design_hash");
    }
    if (!get_field(design, "spec_hash", f, error) || !f->is_string() ||
        !parse_hex_u64(f->as_string(), out.spec_hash)) {
      return fail("bad design.spec_hash");
    }
  }

  if (!get_field(json, "options", field, error)) return false;
  {
    const Json& options = *field;
    const Json* f = nullptr;
    if (!get_field(options, "engine", f, error) || !f->is_string()) {
      return fail("bad options.engine");
    }
    if (f->as_string() == "BMC") out.engine = EngineKind::kBmc;
    else if (f->as_string() == "ATPG") out.engine = EngineKind::kAtpg;
    else if (f->as_string() == "PDR") out.engine = EngineKind::kPdr;
    else if (f->as_string() == "PORTFOLIO") out.engine = EngineKind::kPortfolio;
    else return fail("unknown engine '" + f->as_string() + "'");
    if (!get_field(options, "max_frames", f, error) || !f->is_int()) {
      return fail("bad options.max_frames");
    }
    out.max_frames = static_cast<std::size_t>(f->as_int());
    if (!get_field(options, "monitor_kind", f, error) || !f->is_string() ||
        !monitor_kind_from_name(f->as_string(), out.monitor_kind)) {
      return fail("bad options.monitor_kind");
    }
    if (!get_field(options, "scan_pseudo_critical", f, error) || !f->is_bool()) {
      return fail("bad options.scan_pseudo_critical");
    }
    out.scan_pseudo_critical = f->as_bool();
    if (!get_field(options, "check_bypass", f, error) || !f->is_bool()) {
      return fail("bad options.check_bypass");
    }
    out.check_bypass = f->as_bool();
    if (!get_field(options, "mirror_threshold", f, error) || !f->is_number()) {
      return fail("bad options.mirror_threshold");
    }
    out.mirror_threshold = f->as_double();
    if (!get_field(options, "min_pseudo_violation_depth", f, error) ||
        !f->is_int()) {
      return fail("bad options.min_pseudo_violation_depth");
    }
    out.min_pseudo_violation_depth = static_cast<std::size_t>(f->as_int());
  }

  if (!get_field(json, "obligations", field, error)) return false;
  if (!field->is_array()) return fail("obligations is not an array");
  out.records.clear();
  for (const Json& r : field->items()) {
    if (!r.is_object()) return fail("obligation record is not an object");
    ObligationRecord record;
    const Json* f = nullptr;
    if (!get_field(r, "kind", f, error) || !f->is_string() ||
        !kind_from_name(f->as_string(), record.obligation.kind)) {
      return fail("bad record kind");
    }
    if (!get_field(r, "reg", f, error) || !f->is_string()) {
      return fail("bad record reg");
    }
    record.obligation.reg = f->as_string();
    if (!get_field(r, "candidate", f, error) || !f->is_string()) {
      return fail("bad record candidate");
    }
    record.obligation.candidate = f->as_string();
    if (!get_field(r, "engine", f, error) || !f->is_string()) {
      return fail("bad record engine");
    }
    if (f->as_string() == "BMC") record.engine_used = EngineKind::kBmc;
    else if (f->as_string() == "ATPG") record.engine_used = EngineKind::kAtpg;
    else if (f->as_string() == "PDR") record.engine_used = EngineKind::kPdr;
    else return fail("unknown record engine '" + f->as_string() + "'");

    if (!get_field(r, "result", f, error) || !f->is_object()) {
      return fail("bad record result");
    }
    {
      const Json& outcome = *f;
      const Json* g = nullptr;
      if (!get_field(outcome, "violated", g, error) || !g->is_bool()) {
        return fail("bad result.violated");
      }
      record.violated = g->as_bool();
      if (!get_field(outcome, "bound_reached", g, error) || !g->is_bool()) {
        return fail("bad result.bound_reached");
      }
      record.bound_reached = g->as_bool();
      if (!get_field(outcome, "proven_unbounded", g, error) || !g->is_bool()) {
        return fail("bad result.proven_unbounded");
      }
      record.proven_unbounded = g->as_bool();
      if (!get_field(outcome, "cancelled", g, error) || !g->is_bool()) {
        return fail("bad result.cancelled");
      }
      record.cancelled = g->as_bool();
      if (!get_field(outcome, "frames_completed", g, error) || !g->is_int()) {
        return fail("bad result.frames_completed");
      }
      record.frames_completed = static_cast<std::size_t>(g->as_int());
      if (!get_field(outcome, "status", g, error) || !g->is_string()) {
        return fail("bad result.status");
      }
      record.status = g->as_string();
    }

    if (!get_field(r, "witness", f, error)) return false;
    if (!f->is_null()) {
      if (!f->is_object()) return fail("bad record witness");
      const Json* g = nullptr;
      sim::Witness witness;
      if (!get_field(*f, "violation_frame", g, error) || !g->is_int()) {
        return fail("bad witness.violation_frame");
      }
      witness.violation_frame = static_cast<std::size_t>(g->as_int());
      if (!get_field(*f, "frames", g, error) || !g->is_array()) {
        return fail("bad witness.frames");
      }
      for (const Json& frame : g->items()) {
        if (!frame.is_string()) return fail("bad witness frame");
        try {
          witness.frames.push_back(
              {util::BitVec::from_binary_string(frame.as_string())});
        } catch (const std::exception&) {
          return fail("bad witness frame bits");
        }
      }
      record.witness = std::move(witness);
    }

    if (!get_field(r, "drat", f, error)) return false;
    if (!f->is_null()) {
      if (!f->is_object()) return fail("bad record drat");
      DratEvidence evidence;
      const Json* g = nullptr;
      if (!get_field(*f, "proof_b64", g, error) || !g->is_string() ||
          !base64_decode(g->as_string(), evidence.drat)) {
        return fail("bad drat.proof_b64");
      }
      if (!get_field(*f, "marks", g, error) || !g->is_array()) {
        return fail("bad drat.marks");
      }
      for (const Json& m : g->items()) {
        if (!m.is_object()) return fail("bad drat mark");
        ProofLog::UnsatMark mark;
        const Json* h = nullptr;
        if (!get_field(m, "formula_clauses", h, error) || !h->is_int()) {
          return fail("bad mark.formula_clauses");
        }
        mark.formula_clauses = static_cast<std::size_t>(h->as_int());
        if (!get_field(m, "proof_bytes", h, error) || !h->is_int()) {
          return fail("bad mark.proof_bytes");
        }
        mark.proof_bytes = static_cast<std::size_t>(h->as_int());
        if (!get_field(m, "assumptions", h, error) || !h->is_array()) {
          return fail("bad mark.assumptions");
        }
        for (const Json& a : h->items()) {
          if (!a.is_int() || a.as_int() == 0) return fail("bad assumption");
          const std::int64_t dimacs = a.as_int();
          const sat::Var var = static_cast<sat::Var>(
              (dimacs < 0 ? -dimacs : dimacs) - 1);
          mark.assumptions.emplace_back(var, dimacs < 0);
        }
        evidence.marks.push_back(std::move(mark));
      }
      record.drat = std::move(evidence);
    }

    if (!get_field(r, "invariant", f, error)) return false;
    if (!f->is_null()) {
      if (!f->is_array()) return fail("bad record invariant");
      pdr::Invariant invariant;
      for (const Json& clause : f->items()) {
        if (!clause.is_array()) return fail("bad invariant clause");
        std::vector<std::int32_t> lits;
        for (const Json& lit : clause.items()) {
          if (!lit.is_int() || lit.as_int() == 0) {
            return fail("bad invariant literal");
          }
          lits.push_back(static_cast<std::int32_t>(lit.as_int()));
        }
        invariant.clauses.push_back(std::move(lits));
      }
      record.invariant = std::move(invariant);
    }
    out.records.push_back(std::move(record));
  }

  if (!get_field(json, "report", field, error)) return false;
  {
    const Json& report = *field;
    const Json* f = nullptr;
    if (!get_field(report, "trojan_found", f, error) || !f->is_bool()) {
      return fail("bad report.trojan_found");
    }
    out.trojan_found = f->as_bool();
    if (!get_field(report, "trust_bound_frames", f, error) || !f->is_int()) {
      return fail("bad report.trust_bound_frames");
    }
    out.trust_bound_frames = static_cast<std::size_t>(f->as_int());
    if (!get_field(report, "signature", f, error) || !f->is_string()) {
      return fail("bad report.signature");
    }
    out.report_signature = f->as_string();
  }
  return true;
}

}  // namespace trojanscout::proof
