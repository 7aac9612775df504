#include "fuzz/harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "cache/verdict_codec.hpp"
#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout::fuzz {

namespace {

/// Identity key over every canonical field (name() omits the pattern).
std::string spec_key(const MutationSpec& spec) {
  return spec.name() + "#" + std::to_string(spec.pattern);
}

core::Obligation finding_obligation(const core::Finding& finding) {
  core::Obligation ob;
  switch (finding.kind) {
    case core::FindingKind::kCorruption:
      ob.kind = core::Obligation::Kind::kCorruption;
      break;
    case core::FindingKind::kPseudoCritical:
      ob.kind = core::Obligation::Kind::kPseudo;
      break;
    case core::FindingKind::kBypass:
      ob.kind = core::Obligation::Kind::kBypass;
      break;
  }
  ob.reg = finding.register_name;
  ob.candidate = finding.candidate_register;
  return ob;
}

/// Whether the payload, with the trigger high in `simulator`'s current
/// cycle, gives the target register a next state other than its golden
/// one. The Section-4 styles leave the register's update intact and instead
/// reroute its readers to a register the trigger corrupts (pseudo-critical)
/// or freezes (bypass), so for them the trigger firing is itself the
/// change.
bool payload_changes_next_state(const sim::Simulator& simulator,
                                const Mutant& mutant) {
  if (mutant.golden_next.empty()) return true;
  const netlist::Netlist& nl = mutant.design.nl;
  const netlist::Word& dffs = nl.find_register(mutant.spec.target).dffs;
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    if (simulator.value(nl.gate(dffs[i]).fanin[0]) !=
        simulator.value(mutant.golden_next[i])) {
      return true;
    }
  }
  return false;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

CorpusHarness::CorpusHarness(HarnessOptions options)
    : options_(std::move(options)) {
  if (options_.jobs == 0) options_.jobs = 2;
  if (!options_.differential) return;
  cache_dir_ = options_.cache_dir;
  if (cache_dir_.empty()) {
    const std::filesystem::path base =
        std::filesystem::temp_directory_path() /
        ("trojanscout-fuzz-" + std::to_string(::getpid()));
    std::filesystem::path dir = base;
    std::error_code ec;
    for (int n = 0; !std::filesystem::create_directories(dir, ec); ++n) {
      if (n >= 1000) {
        throw std::runtime_error("fuzz harness: cannot create cache dir " +
                                 base.string());
      }
      dir = base.string() + "-" + std::to_string(n);
    }
    cache_dir_ = dir.string();
    owns_cache_dir_ = true;
  }
  cache::VerdictCache::Options co;
  co.dir = cache_dir_;
  cache_ = std::make_unique<cache::VerdictCache>(std::move(co));
}

CorpusHarness::~CorpusHarness() {
  cache_.reset();
  if (owns_cache_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }
}

VariantOutcome CorpusHarness::run_variant(const MutationSpec& spec) {
  VariantOutcome out;
  Mutant mutant = build_mutant(spec);
  out.spec = mutant.spec;
  out.frames =
      std::min(mutant.fire_depth + options_.frames_slack, options_.frames_cap);
  out.deep = mutant.fire_depth >= out.frames;

  // Ground truth: replay the generator's activation sequence on the
  // cycle-accurate simulator within the frame bound. `reachable`: the
  // trigger fires. `payload_shown`: on a cycle where it fires, the payload
  // changes the target register's next state.
  {
    sim::Simulator simulator(mutant.design.nl);
    simulator.reset();
    const std::size_t sim_frames =
        std::min(mutant.activation.size(), out.frames);
    for (std::size_t t = 0; t < sim_frames && !out.payload_shown; ++t) {
      simulator.set_inputs(mutant.activation[t].bits);
      simulator.eval();
      if (simulator.value(mutant.design.trojan_trigger)) {
        if (!out.reachable) out.fire_frame = t;
        out.reachable = true;
        out.payload_shown = payload_changes_next_state(simulator, mutant);
      }
      simulator.step();
    }
  }

  core::ParallelDetectorOptions po;
  po.detector.engine.kind = options_.engine;
  po.detector.engine.max_frames = out.frames;
  po.detector.engine.time_limit_seconds = options_.budget_seconds;
  po.detector.scan_pseudo_critical =
      mutant.spec.payload == PayloadStyle::kPseudoCritical;
  po.detector.check_bypass = mutant.spec.payload == PayloadStyle::kBypass;
  po.jobs = options_.jobs;

  std::unique_ptr<cache::AuditVerdictStore> store;
  if (cache_ != nullptr) {
    store = std::make_unique<cache::AuditVerdictStore>(
        *cache_, mutant.design, po.detector, /*fail_fast=*/false);
    po.store = store.get();
  }

  const core::DetectionReport cold =
      core::ParallelDetector(mutant.design, po).run();
  out.detected = cold.trojan_found;
  out.obligation_seconds.reserve(cold.runs.size());
  for (const auto& run : cold.runs) {
    out.obligation_seconds.push_back(run.check.seconds);
  }

  // Oracle 2b: every finding's witness must replay on the instrumented
  // netlist the engine searched.
  const core::TrojanDetector detector(mutant.design, po.detector);
  for (const auto& finding : cold.findings) {
    const core::Obligation ob = finding_obligation(finding);
    if (out.finding_property.empty()) {
      out.finding_property = ob.property_name();
    }
    if (!finding.check.witness.has_value()) {
      out.witness_confirmed = false;
      if (out.failure.empty()) {
        out.failure = "witness: finding " + ob.property_name() +
                      " carries no witness";
      }
      continue;
    }
    const auto instrumented = detector.instrument_obligation(ob);
    const sim::ReplayVerdict verdict = sim::replay_confirms(
        instrumented.nl, instrumented.bad, *finding.check.witness);
    if (!verdict.confirmed) {
      out.witness_confirmed = false;
      if (out.failure.empty()) {
        out.failure = "witness: replay of " + ob.property_name() +
                      " not confirmed (" + verdict.detail + ")";
      }
    }
  }

  // Oracle 3: warm-cache re-run under a different jobs count must produce
  // the identical timing-stripped report.
  if (options_.differential && cache_ != nullptr) {
    core::ParallelDetectorOptions warm_options = po;
    warm_options.jobs = po.jobs == 1 ? 2 : 1;
    const core::DetectionReport warm =
        core::ParallelDetector(mutant.design, warm_options).run();
    if (warm.signature() != cold.signature()) {
      out.deterministic = false;
      if (out.failure.empty()) {
        out.failure =
            "determinism: warm/jobs report signature diverged on " +
            out.spec.name();
      }
    }
  }

  // Oracle 2a: a mutant whose replay shows the Trojan (trigger fired and
  // the payload changed the target's next state) must be flagged. A fired
  // trigger alone is not enough: e.g. rotating an all-zero register
  // changes nothing, and a bounded audit rightly finds no violation.
  if (out.failure.empty() && out.payload_shown && !out.detected) {
    out.failure = "detection: simulator-shown Trojan not flagged";
  }

  if (out.failure.empty() && options_.inject_failure &&
      options_.inject_failure(out.spec)) {
    out.failure = "injected: harness failure predicate matched";
  }
  return out;
}

CleanOutcome CorpusHarness::audit_clean(const std::string& family, bool scan,
                                        std::size_t frames) {
  CleanOutcome out;
  out.family = family;
  out.scanned = scan;
  out.frames = frames;
  util::Stopwatch watch;

  designs::Design clean = designs::build_clean(family);
  clean.critical_registers.clear();
  for (const auto& reg_spec : clean.spec.registers) {
    clean.critical_registers.push_back(reg_spec.reg);
  }

  core::ParallelDetectorOptions po;
  po.detector.engine.kind = options_.engine;
  po.detector.engine.max_frames = frames;
  po.detector.engine.time_limit_seconds = options_.budget_seconds;
  po.detector.scan_pseudo_critical = scan;
  po.detector.check_bypass = true;
  po.jobs = options_.jobs;

  std::unique_ptr<cache::AuditVerdictStore> store;
  if (cache_ != nullptr) {
    store = std::make_unique<cache::AuditVerdictStore>(
        *cache_, clean, po.detector, /*fail_fast=*/false);
    po.store = store.get();
  }

  const core::DetectionReport report =
      core::ParallelDetector(clean, po).run();
  out.obligations = report.runs.size();
  out.pass = !report.trojan_found;
  if (!out.pass) {
    std::ostringstream detail;
    for (const auto& finding : report.findings) {
      if (detail.tellp() > 0) detail << "; ";
      detail << core::finding_kind_name(finding.kind) << " on "
             << finding.register_name;
    }
    out.detail = detail.str();
  }
  out.seconds = watch.elapsed_seconds();
  return out;
}

CorpusReport CorpusHarness::run(const std::vector<MutationSpec>& corpus,
                                std::uint64_t seed) {
  util::Stopwatch watch;
  CorpusReport report;
  report.seed = seed;
  report.engine = options_.engine;
  report.jobs = options_.jobs;

  report.variants.reserve(corpus.size());
  for (const MutationSpec& spec : corpus) {
    report.variants.push_back(run_variant(spec));
  }

  // Clean legs: one audit per family the corpus touched, at the deepest
  // bound used. The audit is the canonical one (Eq. 2 corruption + Eq. 4
  // bypass); the Eq. 3 pseudo scan stays off here because it is a
  // screening heuristic scoped to Trojan-suspect cores (Algorithm 1), and
  // architecturally coupled registers on a clean design — RISC stack
  // entries are saved PC copies, RAM cells share the eeprom registers'
  // reset value — satisfy its mirror relation without any Trojan.
  if (options_.check_clean) {
    std::vector<std::string> families;
    for (const auto& outcome : report.variants) {
      if (std::find(families.begin(), families.end(), outcome.spec.family) ==
          families.end()) {
        families.push_back(outcome.spec.family);
      }
    }
    std::sort(families.begin(), families.end());
    for (const std::string& family : families) {
      std::size_t frames = 1;
      for (const auto& outcome : report.variants) {
        if (outcome.spec.family != family) continue;
        frames = std::max(frames, outcome.frames);
      }
      report.clean.push_back(audit_clean(family, /*scan=*/false, frames));
      if (!report.clean.back().pass) ++report.false_positive_count;
    }
  }

  std::vector<double> samples;
  for (const auto& outcome : report.variants) {
    if (outcome.reachable) {
      ++report.reachable_count;
      if (outcome.detected) {
        ++report.detected_count;
      } else if (outcome.payload_shown) {
        ++report.missed_count;
      }
    }
    if (!outcome.ok()) ++report.failure_count;
    samples.insert(samples.end(), outcome.obligation_seconds.begin(),
                   outcome.obligation_seconds.end());
  }
  report.detection_rate =
      report.reachable_count == 0
          ? 1.0
          : static_cast<double>(report.detected_count) /
                static_cast<double>(report.reachable_count);

  std::sort(samples.begin(), samples.end());
  LatencyQuantile lat;
  lat.engine = core::engine_name(options_.engine);
  lat.samples = samples.size();
  lat.p50_seconds = quantile(samples, 0.50);
  lat.p90_seconds = quantile(samples, 0.90);
  lat.p99_seconds = quantile(samples, 0.99);
  for (const double s : samples) lat.total_seconds += s;
  report.latency.push_back(std::move(lat));
  report.total_seconds = watch.elapsed_seconds();
  return report;
}

MutationSpec CorpusHarness::shrink(const MutationSpec& failing) {
  const VariantOutcome base = run_variant(failing);
  if (base.ok()) return base.spec;
  const std::string category =
      base.failure.substr(0, base.failure.find(':'));

  MutationSpec current = base.spec;
  auto reproduces = [&](const MutationSpec& candidate,
                        MutationSpec& canonical) {
    const VariantOutcome outcome = run_variant(candidate);
    if (outcome.ok()) return false;
    if (outcome.failure.substr(0, outcome.failure.find(':')) != category) {
      return false;
    }
    canonical = outcome.spec;
    return true;
  };

  // Deterministic reduction order, biggest simplification first. Each
  // accepted step restarts the pass; canonicalization inside build_mutant
  // may veto a reduction (e.g. pseudo payloads keep sequence_length >= 5),
  // in which case the canonical spec equals the current one and the step
  // is discarded to guarantee termination.
  bool progress = true;
  std::size_t attempts = 0;
  while (progress && attempts < 128) {
    progress = false;
    std::vector<MutationSpec> candidates;
    if (current.trigger != TriggerKind::kCombinational) {
      MutationSpec s = current;
      s.trigger = TriggerKind::kCombinational;
      s.sequence_length = 1;
      candidates.push_back(std::move(s));
    }
    if (current.sequence_length > 1) {
      MutationSpec s = current;
      s.sequence_length = 1;
      candidates.push_back(s);
      s.sequence_length = current.sequence_length / 2;
      candidates.push_back(std::move(s));
    }
    if (current.trigger_width > 1) {
      MutationSpec s = current;
      s.trigger_width = 1;
      candidates.push_back(s);
      s.trigger_width = current.trigger_width / 2;
      candidates.push_back(std::move(s));
    }
    if (current.payload != PayloadStyle::kBitFlip) {
      MutationSpec s = current;
      s.payload = PayloadStyle::kBitFlip;
      s.payload_param = 0;  // canonicalizes to mask 1
      candidates.push_back(std::move(s));
    }
    if (current.payload_param > 1) {
      MutationSpec s = current;
      s.payload_param = 0;
      candidates.push_back(std::move(s));
    }
    if (current.pattern != 0) {
      MutationSpec s = current;
      s.pattern = 0;
      candidates.push_back(std::move(s));
    }
    if (current.insertion_point != 0) {
      MutationSpec s = current;
      s.insertion_point = 0;
      candidates.push_back(std::move(s));
    }
    for (const MutationSpec& candidate : candidates) {
      ++attempts;
      MutationSpec canonical;
      if (reproduces(candidate, canonical) &&
          spec_key(canonical) != spec_key(current)) {
        current = canonical;
        progress = true;
        break;
      }
      if (attempts >= 128) break;
    }
  }
  return current;
}

// ---- report serialization --------------------------------------------------

proof::Json CorpusReport::to_json(bool include_timing) const {
  proof::Json doc = proof::Json::object();
  doc.set("schema", "trojanscout-corpus-v1");
  doc.set("seed", seed);
  doc.set("engine", core::engine_name(engine));
  doc.set("count", static_cast<std::uint64_t>(variants.size()));

  proof::Json clean_array = proof::Json::array();
  for (const auto& outcome : clean) {
    proof::Json c = proof::Json::object();
    c.set("family", outcome.family);
    c.set("scanned", outcome.scanned);
    c.set("frames", static_cast<std::uint64_t>(outcome.frames));
    c.set("obligations", static_cast<std::uint64_t>(outcome.obligations));
    c.set("pass", outcome.pass);
    if (!outcome.pass) c.set("detail", outcome.detail);
    if (include_timing) c.set("seconds", outcome.seconds);
    clean_array.push_back(std::move(c));
  }
  doc.set("clean", std::move(clean_array));

  proof::Json variant_array = proof::Json::array();
  for (const auto& outcome : variants) {
    proof::Json v = outcome.spec.to_json();
    v.set("deep", outcome.deep);
    v.set("frames", static_cast<std::uint64_t>(outcome.frames));
    v.set("reachable", outcome.reachable);
    if (outcome.reachable) {
      v.set("fire_frame", static_cast<std::uint64_t>(outcome.fire_frame));
      v.set("payload_shown", outcome.payload_shown);
    }
    v.set("detected", outcome.detected);
    if (outcome.detected) {
      v.set("property", outcome.finding_property);
      v.set("witness_confirmed", outcome.witness_confirmed);
    }
    v.set("deterministic", outcome.deterministic);
    v.set("ok", outcome.ok());
    if (!outcome.ok()) v.set("failure", outcome.failure);
    variant_array.push_back(std::move(v));
  }
  doc.set("variants", std::move(variant_array));

  proof::Json summary = proof::Json::object();
  summary.set("reachable", static_cast<std::uint64_t>(reachable_count));
  summary.set("detected", static_cast<std::uint64_t>(detected_count));
  summary.set("missed", static_cast<std::uint64_t>(missed_count));
  summary.set("false_positives",
              static_cast<std::uint64_t>(false_positive_count));
  summary.set("harness_failures", static_cast<std::uint64_t>(failure_count));
  summary.set("detection_rate", detection_rate);
  doc.set("summary", std::move(summary));

  if (include_timing) {
    proof::Json timing = proof::Json::object();
    // Execution configuration lives with the timing block: detection
    // results are required to be invariant under the jobs count, so it
    // must not appear in the timing-stripped signature.
    timing.set("jobs", static_cast<std::uint64_t>(jobs));
    proof::Json quantiles = proof::Json::array();
    for (const auto& q : latency) {
      proof::Json entry = proof::Json::object();
      entry.set("engine", q.engine);
      entry.set("samples", static_cast<std::uint64_t>(q.samples));
      entry.set("p50_seconds", q.p50_seconds);
      entry.set("p90_seconds", q.p90_seconds);
      entry.set("p99_seconds", q.p99_seconds);
      entry.set("total_seconds", q.total_seconds);
      quantiles.push_back(std::move(entry));
    }
    timing.set("engine_quantiles", std::move(quantiles));
    timing.set("total_seconds", total_seconds);
    doc.set("timing", std::move(timing));
  }
  return doc;
}

std::string CorpusReport::signature() const { return to_json(false).dump(); }

std::string CorpusReport::summary() const {
  std::ostringstream os;
  os << variants.size() << " variants: " << reachable_count << " reachable, "
     << detected_count << " detected, " << missed_count << " missed, "
     << (reachable_count - detected_count - missed_count) << " inert, "
     << (variants.size() - reachable_count) << " unreachable; "
     << "detection rate "
     << static_cast<int>(detection_rate * 100.0 + 0.5) << "%; "
     << false_positive_count << " clean false positive(s); "
     << failure_count << " harness failure(s)";
  return os.str();
}

}  // namespace trojanscout::fuzz
