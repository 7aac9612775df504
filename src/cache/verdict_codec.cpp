#include "cache/verdict_codec.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "proof/certificate.hpp"
#include "proof/json.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"

namespace trojanscout::cache {

namespace {

constexpr const char* kFormat = "trojanscout-verdict";
// v2: engine identity + PDR knobs join the key context; payloads carry
// proven_unbounded, the (possibly null) inductive invariant, engine_used,
// and the pdr_* counter block. v1 entries fail the version check and are
// recomputed — a one-time cold start, never a wrong verdict.
constexpr int kVersion = 2;

std::uint64_t fnv1a(const std::string& s, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void mix(std::string& out, const char* name, const std::string& value) {
  out += name;
  out += '=';
  out += value;
  out += ';';
}

void mix_u64(std::string& out, const char* name, std::uint64_t value) {
  mix(out, name, std::to_string(value));
}

void mix_double(std::string& out, const char* name, double value) {
  // Bit pattern, not decimal text: two configs hash equal iff the engine
  // sees the exact same double.
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  mix_u64(out, name, bits);
}

}  // namespace

ObligationKeyer::ObligationKeyer(const designs::Design& design,
                                 const core::DetectorOptions& options,
                                 bool fail_fast) {
  std::string& c = context_;
  mix(c, "codec", "v" + std::to_string(kVersion));
  mix(c, "design", hex16(proof::design_hash(design.nl)));
  mix(c, "spec", hex16(proof::spec_hash(design)));
  mix(c, "monitor",
      options.monitor_kind == properties::CorruptionMonitorKind::kExact
          ? "exact"
          : "hold-only");
  mix(c, "engine", core::engine_name(options.engine.kind));
  mix_u64(c, "frames", options.engine.max_frames);
  mix_double(c, "budget", options.engine.time_limit_seconds);
  const sat::SolverOptions& s = options.engine.solver;
  mix_u64(c, "sat.learning", s.enable_learning ? 1 : 0);
  mix_u64(c, "sat.vsids", s.enable_vsids ? 1 : 0);
  mix_u64(c, "sat.phase", s.enable_phase_saving ? 1 : 0);
  mix_u64(c, "sat.minimize", s.enable_clause_minimization ? 1 : 0);
  mix_double(c, "sat.var_decay", s.var_decay);
  mix_double(c, "sat.clause_decay", s.clause_decay);
  mix_u64(c, "sat.restart_base", static_cast<std::uint64_t>(s.restart_base));
  mix_u64(c, "sat.learned_cap", s.learned_capacity_start);
  mix_u64(c, "atpg.backtracks", options.engine.atpg_backtrack_limit);
  mix_u64(c, "atpg.scoap", options.engine.atpg_use_scoap ? 1 : 0);
  mix_u64(c, "atpg.random", options.engine.atpg_random_sequences);
  std::string stimulus;
  for (const auto& sequence : options.engine.atpg_stimulus) {
    for (const auto& frame : sequence) stimulus += frame.to_hex_string() + ",";
    stimulus += "|";
  }
  mix(c, "atpg.stimulus", hex16(fnv1a(stimulus, 14695981039346656037ULL)));
  mix_u64(c, "pdr.generalize", options.engine.pdr_generalize ? 1 : 0);
  mix_u64(c, "fail_fast", fail_fast ? 1 : 0);
}

std::string ObligationKeyer::key(const core::Obligation& obligation) const {
  std::string text = context_;
  mix(text, "obligation", obligation.property_name());
  return hex16(fnv1a(text, 14695981039346656037ULL)) +
         hex16(fnv1a(text, 1099511628211ULL));
}

std::string verdict_to_json(const core::Obligation& obligation,
                            const core::CheckResult& result,
                            const std::string& cert_ref) {
  using proof::Json;
  Json j = Json::object();
  j.set("format", kFormat);
  j.set("version", kVersion);
  j.set("property", obligation.property_name());
  j.set("violated", result.violated);
  j.set("bound_reached", result.bound_reached);
  j.set("proven_unbounded", result.proven_unbounded);
  j.set("frames_completed", result.frames_completed);
  j.set("status", result.status);
  j.set("engine_used", core::engine_flag_name(result.engine_used));
  if (result.invariant.has_value()) {
    Json clauses = Json::array();
    for (const auto& clause : result.invariant->clauses) {
      Json lits = Json::array();
      for (const std::int32_t lit : clause) {
        lits.push_back(static_cast<std::int64_t>(lit));
      }
      clauses.push_back(std::move(lits));
    }
    j.set("invariant", std::move(clauses));
  } else {
    j.set("invariant", nullptr);
  }
  // The per-leg portfolio vector is a timing carve-out: wall-clock ordering
  // decides which losers got cancelled, so it is deliberately not persisted
  // — a warm hit reports only the winning verdict, which IS deterministic.
  if (result.witness.has_value()) {
    Json witness = Json::object();
    witness.set("violation_frame", result.witness->violation_frame);
    Json frames = Json::array();
    for (const auto& frame : result.witness->frames) {
      frames.push_back(frame.bits.to_binary_string());
    }
    witness.set("frames", std::move(frames));
    j.set("witness", std::move(witness));
  } else {
    j.set("witness", nullptr);
  }
  const core::EngineCounters& c = result.counters;
  Json counters = Json::object();
  counters.set("sat_decisions", c.sat.decisions);
  counters.set("sat_propagations", c.sat.propagations);
  counters.set("sat_conflicts", c.sat.conflicts);
  counters.set("sat_restarts", c.sat.restarts);
  counters.set("sat_learned_clauses", c.sat.learned_clauses);
  counters.set("sat_learned_literals", c.sat.learned_literals);
  counters.set("sat_deleted_clauses", c.sat.deleted_clauses);
  counters.set("sat_minimized_literals", c.sat.minimized_literals);
  counters.set("cnf_vars", c.cnf_vars);
  Json frame_clauses = Json::array();
  for (const std::uint32_t n : c.frame_clauses) {
    frame_clauses.push_back(static_cast<std::int64_t>(n));
  }
  counters.set("frame_clauses", std::move(frame_clauses));
  counters.set("atpg_decisions", c.atpg_decisions);
  counters.set("atpg_backtracks", c.atpg_backtracks);
  counters.set("atpg_implications", c.atpg_implications);
  counters.set("atpg_frames_proven_clean", c.atpg_frames_proven_clean);
  counters.set("atpg_frames_aborted", c.atpg_frames_aborted);
  counters.set("pdr_frames", c.pdr_frames);
  counters.set("pdr_pushed_clauses", c.pdr_pushed_clauses);
  counters.set("pdr_ctis", c.pdr_ctis);
  counters.set("pdr_obligations", c.pdr_obligations);
  j.set("counters", std::move(counters));
  // Diagnostics only: what the original solve cost. Never restored.
  j.set("solved_seconds", result.seconds);
  j.set("cert_ref", cert_ref);
  return j.dump();
}

bool verdict_from_json(const std::string& text, core::CheckResult& out,
                       std::string* cert_ref, std::string* error) {
  using proof::Json;
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  Json j;
  std::string parse_error;
  if (!Json::parse(text, j, &parse_error)) {
    return fail("bad JSON: " + parse_error);
  }
  if (!j.is_object()) return fail("not an object");
  const Json* f = j.find("format");
  if (f == nullptr || !f->is_string() || f->as_string() != kFormat) {
    return fail("bad format tag");
  }
  f = j.find("version");
  if (f == nullptr || !f->is_int() || f->as_int() != kVersion) {
    return fail("unsupported version");
  }

  core::CheckResult result;
  const auto get_bool = [&](const char* key, bool& value) {
    const Json* g = j.find(key);
    if (g == nullptr || !g->is_bool()) return false;
    value = g->as_bool();
    return true;
  };
  if (!get_bool("violated", result.violated)) return fail("bad violated");
  if (!get_bool("bound_reached", result.bound_reached)) {
    return fail("bad bound_reached");
  }
  if (!get_bool("proven_unbounded", result.proven_unbounded)) {
    return fail("bad proven_unbounded");
  }
  if (result.proven_unbounded && (result.violated || !result.bound_reached)) {
    return fail("proven_unbounded inconsistent with verdict flags");
  }
  f = j.find("frames_completed");
  if (f == nullptr || !f->is_int() || f->as_int() < 0) {
    return fail("bad frames_completed");
  }
  result.frames_completed = static_cast<std::size_t>(f->as_int());
  f = j.find("status");
  if (f == nullptr || !f->is_string()) return fail("bad status");
  result.status = f->as_string();
  f = j.find("engine_used");
  if (f == nullptr || !f->is_string()) return fail("bad engine_used");
  {
    const std::optional<core::EngineKind> kind =
        core::engine_kind_from_string(f->as_string());
    if (!kind.has_value()) return fail("bad engine_used");
    result.engine_used = *kind;
  }
  f = j.find("invariant");
  if (f == nullptr) return fail("missing invariant");
  if (!f->is_null()) {
    if (!f->is_array()) return fail("bad invariant");
    pdr::Invariant invariant;
    for (const Json& clause : f->items()) {
      if (!clause.is_array()) return fail("bad invariant clause");
      std::vector<std::int32_t> lits;
      for (const Json& lit : clause.items()) {
        if (!lit.is_int() || lit.as_int() == 0) return fail("bad invariant literal");
        lits.push_back(static_cast<std::int32_t>(lit.as_int()));
      }
      invariant.clauses.push_back(std::move(lits));
    }
    result.invariant = std::move(invariant);
  }
  if (result.invariant.has_value() && !result.proven_unbounded) {
    return fail("invariant without unbounded proof");
  }

  f = j.find("witness");
  if (f == nullptr) return fail("missing witness");
  if (!f->is_null()) {
    if (!f->is_object()) return fail("bad witness");
    sim::Witness witness;
    const Json* g = f->find("violation_frame");
    if (g == nullptr || !g->is_int() || g->as_int() < 0) {
      return fail("bad witness.violation_frame");
    }
    witness.violation_frame = static_cast<std::size_t>(g->as_int());
    g = f->find("frames");
    if (g == nullptr || !g->is_array()) return fail("bad witness.frames");
    for (const Json& frame : g->items()) {
      if (!frame.is_string()) return fail("bad witness frame");
      try {
        witness.frames.push_back(
            {util::BitVec::from_binary_string(frame.as_string())});
      } catch (const std::exception&) {
        return fail("bad witness frame bits");
      }
    }
    result.witness = std::move(witness);
  }
  if (result.violated != result.witness.has_value()) {
    return fail("witness/violated mismatch");
  }

  f = j.find("counters");
  if (f == nullptr || !f->is_object()) return fail("bad counters");
  const auto get_u64 = [&](const char* key, std::uint64_t& value) {
    const Json* g = f->find(key);
    if (g == nullptr || !g->is_int() || g->as_int() < 0) return false;
    value = static_cast<std::uint64_t>(g->as_int());
    return true;
  };
  core::EngineCounters& c = result.counters;
  std::uint64_t u = 0;
  if (!get_u64("sat_decisions", c.sat.decisions)) return fail("bad counters");
  if (!get_u64("sat_propagations", c.sat.propagations)) {
    return fail("bad counters");
  }
  if (!get_u64("sat_conflicts", c.sat.conflicts)) return fail("bad counters");
  if (!get_u64("sat_restarts", c.sat.restarts)) return fail("bad counters");
  if (!get_u64("sat_learned_clauses", c.sat.learned_clauses)) {
    return fail("bad counters");
  }
  if (!get_u64("sat_learned_literals", c.sat.learned_literals)) {
    return fail("bad counters");
  }
  if (!get_u64("sat_deleted_clauses", c.sat.deleted_clauses)) {
    return fail("bad counters");
  }
  if (!get_u64("sat_minimized_literals", c.sat.minimized_literals)) {
    return fail("bad counters");
  }
  if (!get_u64("cnf_vars", u)) return fail("bad counters");
  c.cnf_vars = static_cast<std::size_t>(u);
  const Json* g = f->find("frame_clauses");
  if (g == nullptr || !g->is_array()) return fail("bad frame_clauses");
  for (const Json& n : g->items()) {
    if (!n.is_int() || n.as_int() < 0) return fail("bad frame_clauses");
    c.frame_clauses.push_back(static_cast<std::uint32_t>(n.as_int()));
  }
  if (!get_u64("atpg_decisions", c.atpg_decisions)) return fail("bad counters");
  if (!get_u64("atpg_backtracks", c.atpg_backtracks)) {
    return fail("bad counters");
  }
  if (!get_u64("atpg_implications", c.atpg_implications)) {
    return fail("bad counters");
  }
  if (!get_u64("atpg_frames_proven_clean", u)) return fail("bad counters");
  c.atpg_frames_proven_clean = static_cast<std::size_t>(u);
  if (!get_u64("atpg_frames_aborted", u)) return fail("bad counters");
  c.atpg_frames_aborted = static_cast<std::size_t>(u);
  if (!get_u64("pdr_frames", c.pdr_frames)) return fail("bad counters");
  if (!get_u64("pdr_pushed_clauses", c.pdr_pushed_clauses)) {
    return fail("bad counters");
  }
  if (!get_u64("pdr_ctis", c.pdr_ctis)) return fail("bad counters");
  if (!get_u64("pdr_obligations", c.pdr_obligations)) {
    return fail("bad counters");
  }

  const Json* ref = j.find("cert_ref");
  if (ref == nullptr || !ref->is_string()) return fail("bad cert_ref");
  if (cert_ref != nullptr) *cert_ref = ref->as_string();

  result.seconds = 0.0;
  result.memory_bytes = 0;
  result.cancelled = false;
  out = std::move(result);
  return true;
}

AuditVerdictStore::AuditVerdictStore(VerdictCache& cache,
                                     const designs::Design& design,
                                     const core::DetectorOptions& options,
                                     bool fail_fast)
    : cache_(cache), keyer_(design, options, fail_fast) {}

void AuditVerdictStore::set_cert_ref(std::string ref) {
  std::lock_guard<std::mutex> lock(cert_ref_mutex_);
  cert_ref_ = std::move(ref);
}

bool AuditVerdictStore::lookup(const core::Obligation& obligation,
                               core::CheckResult& out) {
  const std::string key = keyer_.key(obligation);
  const std::optional<std::string> payload = cache_.lookup(key);
  if (!payload.has_value()) {
    TS_COUNTER_ADD("cache.miss", 1);
    return false;
  }
  std::string parse_error;
  if (!verdict_from_json(*payload, out, nullptr, &parse_error)) {
    TS_LOG_WARN("cache: rejecting entry %s for %s: %s", key.c_str(),
                obligation.property_name().c_str(), parse_error.c_str());
    cache_.invalidate(key);
    TS_COUNTER_ADD("cache.miss", 1);
    return false;
  }
  TS_COUNTER_ADD("cache.hit", 1);
  return true;
}

void AuditVerdictStore::store(const core::Obligation& obligation,
                              const core::CheckResult& result) {
  if (result.cancelled) return;  // a cancelled run is not a verdict
  std::string ref;
  {
    std::lock_guard<std::mutex> lock(cert_ref_mutex_);
    ref = cert_ref_;
  }
  cache_.store(keyer_.key(obligation), verdict_to_json(obligation, result, ref));
}

void append_cache_record(telemetry::RunReport& report,
                         const VerdictCache& cache) {
  const CacheStats stats = cache.stats();
  auto& rec = report.add("cache");
  rec.set("dir", cache.dir())
      .set("mode", cache_mode_name(cache.mode()))
      .set("hits", stats.hits)
      .set("misses", stats.misses)
      .set("stores", stats.stores)
      .set("evictions", stats.evictions)
      .set("corrupt_skipped", stats.corrupt_skipped)
      .set("entries", static_cast<std::uint64_t>(cache.entry_count()))
      .set("bytes", cache.total_bytes());
}

}  // namespace trojanscout::cache
