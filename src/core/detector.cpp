#include "core/detector.hpp"

#include <algorithm>
#include <sstream>

#include "properties/miter.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/bitvec.hpp"
#include "util/logging.hpp"

namespace trojanscout::core {

using designs::Design;
using netlist::Netlist;
using netlist::SignalId;

const char* finding_kind_name(FindingKind kind) {
  switch (kind) {
    case FindingKind::kCorruption:
      return "data-corruption";
    case FindingKind::kPseudoCritical:
      return "pseudo-critical-corruption";
    case FindingKind::kBypass:
      return "bypass";
  }
  return "?";
}

std::string DetectionReport::summary() const {
  std::ostringstream os;
  if (trojan_found) {
    os << "TROJAN FOUND: ";
    for (const auto& f : findings) {
      os << finding_kind_name(f.kind) << " on " << f.register_name;
      if (!f.candidate_register.empty()) {
        os << " (via " << f.candidate_register << ")";
      }
      os << " at cycle " << (f.check.witness ? f.check.witness->violation_frame
                                             : 0)
         << "; ";
    }
  } else {
    os << "No data-corruption Trojan found for " << trust_bound_frames
       << " clock cycles";
  }
  return os.str();
}

std::string Obligation::property_name() const {
  switch (kind) {
    case Kind::kPseudo:
      return "pseudo(" + reg + "," + candidate + ")";
    case Kind::kCorruption:
      return "corruption(" + reg + ")";
    case Kind::kBypass:
      return "bypass(" + reg + ")";
  }
  return "?";
}

std::string DetectionReport::signature() const {
  std::ostringstream os;
  os << "trojan_found=" << trojan_found
     << " trust_bound=" << trust_bound_frames << "\n";
  for (const auto& run : runs) {
    os << "run " << run.property << " status=" << run.check.status
       << " violated=" << run.check.violated
       << " bound_reached=" << run.check.bound_reached
       << " frames=" << run.check.frames_completed;
    if (run.check.witness) {
      const auto& w = *run.check.witness;
      os << " witness@" << w.violation_frame << ":";
      for (const auto& frame : w.frames) {
        os << " " << frame.bits.to_hex_string();
      }
    }
    os << "\n";
  }
  for (const auto& f : findings) {
    os << "finding " << finding_kind_name(f.kind) << " " << f.register_name;
    if (!f.candidate_register.empty()) os << " via " << f.candidate_register;
    os << "\n";
  }
  for (const auto& reg : certified_pseudo_critical) {
    os << "certified " << reg << "\n";
  }
  return os.str();
}

TrojanDetector::TrojanDetector(const Design& design, DetectorOptions options)
    : design_(design), options_(std::move(options)) {}

CheckResult TrojanDetector::check_corruption(const std::string& reg) const {
  return run_obligation({Obligation::Kind::kCorruption, reg, {}});
}

CheckResult TrojanDetector::check_pseudo_pair(
    const std::string& critical_reg, const std::string& candidate_reg) const {
  return run_obligation(
      {Obligation::Kind::kPseudo, critical_reg, candidate_reg});
}

CheckResult TrojanDetector::check_bypass(const std::string& reg) const {
  return run_obligation({Obligation::Kind::kBypass, reg, {}});
}

std::vector<std::string> TrojanDetector::pseudo_candidates(
    const std::string& reg) const {
  const auto& critical = design_.nl.find_register(reg);
  std::vector<std::string> out;
  for (const auto& r : design_.nl.registers()) {
    if (r.name == reg) continue;
    if (r.dffs.size() != critical.dffs.size()) continue;
    out.push_back(r.name);
  }
  return out;
}

std::vector<Obligation> TrojanDetector::enumerate_obligations() const {
  std::vector<Obligation> obligations;

  // Step 1 (Algorithm 1, inner loop): pseudo-critical scan pairs.
  if (options_.scan_pseudo_critical) {
    for (const std::string& reg : design_.critical_registers) {
      for (const std::string& candidate : pseudo_candidates(reg)) {
        obligations.push_back(
            {Obligation::Kind::kPseudo, reg, candidate});
      }
    }
  }

  // Step 2: no-data-corruption check per critical register with a spec.
  for (const std::string& reg : design_.critical_registers) {
    if (design_.spec.find(reg) == nullptr) continue;
    obligations.push_back({Obligation::Kind::kCorruption, reg, {}});
  }

  // Step 3: bypass check where the spec supports it.
  if (options_.check_bypass) {
    for (const std::string& reg : design_.critical_registers) {
      const auto* spec = design_.spec.find(reg);
      if (spec == nullptr || spec->obligations.empty()) continue;
      obligations.push_back({Obligation::Kind::kBypass, reg, {}});
    }
  }

  return obligations;
}

TrojanDetector::InstrumentedProperty TrojanDetector::instrument_obligation(
    const Obligation& obligation) const {
  switch (obligation.kind) {
    case Obligation::Kind::kPseudo: {
      Design scratch = design_;
      const SignalId bad = properties::build_pseudo_critical_monitor(
          scratch.nl, obligation.reg, obligation.candidate,
          properties::PseudoPolarity::kIdentity, /*candidate_leads=*/false);
      return {std::move(scratch.nl), bad};
    }
    case Obligation::Kind::kCorruption: {
      Design scratch = design_;
      const auto* spec = scratch.spec.find(obligation.reg);
      if (spec == nullptr) {
        throw std::invalid_argument(
            "instrument_obligation: no valid-ways spec for " + obligation.reg);
      }
      const SignalId bad = properties::build_corruption_monitor(
          scratch.nl, *spec, options_.monitor_kind);
      return {std::move(scratch.nl), bad};
    }
    case Obligation::Kind::kBypass: {
      const auto* spec = design_.spec.find(obligation.reg);
      if (spec == nullptr || spec->obligations.empty()) {
        throw std::invalid_argument(
            "instrument_obligation: register " + obligation.reg +
            " has no observability obligations in the spec");
      }
      properties::BypassMiter miter =
          properties::build_bypass_miter(design_.nl, *spec);
      return {std::move(miter.nl), miter.bad};
    }
  }
  throw std::logic_error("instrument_obligation: bad obligation kind");
}

CheckResult TrojanDetector::run_obligation(const Obligation& obligation,
                                           const EngineOptions& engine) const {
  const InstrumentedProperty property = instrument_obligation(obligation);
  return run_engine(property.nl, property.bad, engine);
}

CheckResult TrojanDetector::run_obligation(const Obligation& obligation) const {
  return run_obligation(obligation, options_.engine);
}

bool TrojanDetector::pseudo_violation_is_trojan(
    const Obligation& obligation, const CheckResult& check) const {
  // Deviation found: a Trojan if the candidate mirrored faithfully before
  // the violation (see header note). The monitor compares latched values,
  // so the corrupted value is already visible one frame before the
  // reported violation: the faithful-mirror window is t in
  // [1, violation_frame - 2].
  const auto& witness = *check.witness;
  if (witness.violation_frame < options_.min_pseudo_violation_depth) {
    return false;  // unrelated register pair (diverges trivially)
  }
  telemetry::Span span("witness:replay");
  TS_COUNTER_ADD("detector.witness_replays", 1);
  const auto cand_trace =
      sim::replay_register(design_.nl, witness, obligation.candidate);
  const auto crit_trace =
      sim::replay_register(design_.nl, witness, obligation.reg);
  std::size_t mirrored = 0;
  std::size_t window = 0;
  for (std::size_t t = 1; t + 1 < witness.violation_frame; ++t) {
    ++window;
    if (cand_trace[t] == crit_trace[t - 1]) ++mirrored;
  }
  double fraction = 0.0;
  if (window > 0) {
    fraction = static_cast<double>(mirrored) / static_cast<double>(window);
  } else {
    // Empty window (trigger fired immediately): fall back to the
    // reset-state relation.
    const auto& crit_dffs = design_.nl.find_register(obligation.reg).dffs;
    util::BitVec crit_init(crit_dffs.size());
    for (std::size_t i = 0; i < crit_dffs.size(); ++i) {
      crit_init.set(i, design_.nl.gate(crit_dffs[i]).init);
    }
    fraction = cand_trace[0] == crit_init ? 1.0 : 0.0;
  }
  return fraction >= options_.mirror_threshold;
}

bool TrojanDetector::is_finding(const Obligation& obligation,
                                const CheckResult& check) const {
  if (!check.violated) return false;
  if (obligation.kind == Obligation::Kind::kPseudo) {
    return pseudo_violation_is_trojan(obligation, check);
  }
  return true;
}

void TrojanDetector::merge_obligation(DetectionReport& report,
                                      const Obligation& obligation,
                                      const CheckResult& check) const {
  report.runs.push_back({obligation.property_name(), check});

  auto note_bound = [&report](const CheckResult& c) {
    // A cancelled run certifies nothing — it must not drag the trust bound
    // to its (arbitrary) abandonment frame.
    if (!c.violated && !c.cancelled) {
      report.trust_bound_frames =
          std::min(report.trust_bound_frames, c.frames_completed);
    }
  };

  if (obligation.kind == Obligation::Kind::kPseudo) {
    if (!check.violated) {
      if (!check.cancelled) {
        // Mirrors within the bound: certified pseudo-critical. Its Eq. (2)
        // check is exactly the mirror relation just certified.
        report.certified_pseudo_critical.push_back(obligation.candidate);
        TS_LOG_INFO("detector: %s certified pseudo-critical for %s",
                    obligation.candidate.c_str(), obligation.reg.c_str());
      }
      note_bound(check);
      return;
    }
    if (!pseudo_violation_is_trojan(obligation, check)) return;
    Finding finding;
    finding.kind = FindingKind::kPseudoCritical;
    finding.register_name = obligation.reg;
    finding.candidate_register = obligation.candidate;
    finding.check = check;
    report.findings.push_back(std::move(finding));
    report.trojan_found = true;
    return;
  }

  note_bound(check);
  if (!check.violated) return;
  Finding finding;
  finding.kind = obligation.kind == Obligation::Kind::kCorruption
                     ? FindingKind::kCorruption
                     : FindingKind::kBypass;
  finding.register_name = obligation.reg;
  finding.check = check;
  report.findings.push_back(std::move(finding));
  report.trojan_found = true;
}

DetectionReport TrojanDetector::merge_obligations(
    const std::vector<Obligation>& obligations,
    const std::vector<CheckResult>& results) const {
  DetectionReport report;
  report.trust_bound_frames = options_.engine.max_frames;
  for (std::size_t i = 0; i < obligations.size(); ++i) {
    merge_obligation(report, obligations[i], results[i]);
  }
  return report;
}

}  // namespace trojanscout::core
