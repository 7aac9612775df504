// TrojanDetector: the paper's Algorithm 1, as obligations. The detector
// enumerates them, instruments and runs each one, and merges the results;
// core::ParallelDetector is the loop that schedules them.
//
// Given a design, its valid-ways spec, and the list of critical registers,
// the detector:
//   1. scans all other registers for pseudo-critical relations to each
//      critical register (Eq. 3) and widens the critical set;
//   2. checks each critical register for data corruption (Eq. 2) with the
//      selected engine, reporting the witness (trigger sequence) on a hit;
//   3. checks each critical register for bypass behaviour (Eq. 4) when the
//      spec carries observability obligations.
//
// A subtlety the paper glosses over (Section 4.1): on a design carrying the
// pseudo-critical attack, the Eq. 3 relation itself is violated *by the
// Trojan trigger* — the shadow register mirrors the critical register in
// normal operation and deviates exactly when the payload fires. The
// detector therefore treats an Eq. 3 counterexample on a pair that mirrored
// faithfully up to the violation as a Trojan finding in its own right (the
// witness is the trigger), and an unviolated Eq. 3 bound as certification
// that the candidate is pseudo-critical (it is then checked with Eq. 2 via
// its mirror relation).
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "designs/design.hpp"
#include "properties/monitors.hpp"

namespace trojanscout::core {

enum class FindingKind {
  kCorruption,       // Eq. 2 violated: register corrupted outside valid ways
  kPseudoCritical,   // Eq. 3 violated after faithful mirroring: shadow corrupted
  kBypass,           // Eq. 4 violated: register bypassed
};

const char* finding_kind_name(FindingKind kind);

struct Finding {
  FindingKind kind = FindingKind::kCorruption;
  /// Critical register involved; for kPseudoCritical also the candidate.
  std::string register_name;
  std::string candidate_register;
  CheckResult check;
};

struct PropertyRun {
  std::string property;  // "corruption(R)", "pseudo(R,P)", "bypass(R)"
  CheckResult check;
};

struct DetectionReport {
  bool trojan_found = false;
  std::vector<Finding> findings;
  /// Every property run executed (for the experiment tables).
  std::vector<PropertyRun> runs;
  /// Registers certified pseudo-critical within the bound.
  std::vector<std::string> certified_pseudo_critical;
  /// The trustworthiness bound actually achieved (min frames over runs that
  /// completed without violation).
  std::size_t trust_bound_frames = 0;

  [[nodiscard]] std::string summary() const;

  /// Canonical text form of everything deterministic in the report: run
  /// order, statuses, witness input bits, findings, certifications, trust
  /// bound. Wall-clock and memory fields are excluded, so two runs of the
  /// same detection — serial or parallel, any jobs count — must produce
  /// byte-identical signatures. The equivalence tests and the scaling
  /// bench diff this string.
  [[nodiscard]] std::string signature() const;
};

struct DetectorOptions {
  EngineOptions engine;
  properties::CorruptionMonitorKind monitor_kind =
      properties::CorruptionMonitorKind::kExact;
  /// Scan for pseudo-critical registers among same-width registers
  /// (Algorithm 1 line 1). Disable to check only the given critical set.
  bool scan_pseudo_critical = true;
  /// Run the Eq. 4 bypass check for registers with obligations.
  bool check_bypass = true;
  /// Fraction of pre-violation cycles in which the candidate must have
  /// mirrored the critical register for an Eq. 3 counterexample to count as
  /// a pseudo-critical Trojan finding.
  double mirror_threshold = 0.8;
  /// Minimum depth of the earliest Eq. 3 violation for the pair to count as
  /// a Trojan finding: unrelated register pairs diverge within a cycle or
  /// two under adversarial inputs, while a corrupted shadow register only
  /// deviates once its trigger sequence completes.
  std::size_t min_pseudo_violation_depth = 4;
};

/// One property obligation of Algorithm 1: an independent engine run whose
/// outcome feeds the report. Obligations share nothing but the read-only
/// design, which is what makes them safe to execute on worker threads.
struct Obligation {
  enum class Kind { kPseudo, kCorruption, kBypass };
  Kind kind = Kind::kCorruption;
  std::string reg;        // critical register
  std::string candidate;  // kPseudo only: the scanned same-width register

  /// "corruption(R)" / "pseudo(R,P)" / "bypass(R)" — the PropertyRun label.
  [[nodiscard]] std::string property_name() const;
};

class TrojanDetector {
 public:
  TrojanDetector(const designs::Design& design, DetectorOptions options);

  // -- obligation API (core::ParallelDetector runs Algorithm 1 on these) ---

  /// All property obligations Algorithm 1 would check, in the canonical
  /// order: Eq. 3 pseudo-critical pairs per critical register, then Eq. 2
  /// corruption per critical register with a spec, then Eq. 4 bypass where
  /// the spec carries obligations. Deterministic for a given design.
  [[nodiscard]] std::vector<Obligation> enumerate_obligations() const;

  /// Executes one obligation's engine run. Thread-safe: works on a private
  /// copy of the design and touches no detector state.
  [[nodiscard]] CheckResult run_obligation(const Obligation& obligation) const;

  /// Same, but with caller-supplied engine options (the certificate layer
  /// attaches a per-obligation proof listener this way). Thread-safe.
  [[nodiscard]] CheckResult run_obligation(const Obligation& obligation,
                                           const EngineOptions& engine) const;

  /// The monitored netlist an obligation's engine run executes on: a copy
  /// of the design with the property monitor appended (for kBypass, the
  /// fork miter), plus its bad signal. Deterministic for a given design and
  /// obligation — the certificate checker rebuilds it independently to
  /// replay witnesses and re-derive CNF. Thread-safe.
  struct InstrumentedProperty {
    netlist::Netlist nl;
    netlist::SignalId bad = netlist::kNullSignal;
  };
  [[nodiscard]] InstrumentedProperty instrument_obligation(
      const Obligation& obligation) const;

  /// Folds one obligation's result into the report (run log, trust bound,
  /// certification, finding classification). Must be called in
  /// enumerate_obligations() order for a deterministic report; not
  /// thread-safe (merge on one thread).
  void merge_obligation(DetectionReport& report, const Obligation& obligation,
                        const CheckResult& check) const;

  /// Algorithm 1's fold: a report whose trust bound starts at the engine's
  /// max_frames, with results[i] merged for obligations[i] in order. Every
  /// audit that holds all its results at once (the scheduler, certify, the
  /// certificate checker) builds its report here. Not thread-safe.
  [[nodiscard]] DetectionReport merge_obligations(
      const std::vector<Obligation>& obligations,
      const std::vector<CheckResult>& results) const;

  /// Whether a completed obligation constitutes a Trojan finding (for
  /// kPseudo this applies the faithful-mirror classification). Thread-safe.
  [[nodiscard]] bool is_finding(const Obligation& obligation,
                                const CheckResult& check) const;

  // Individual obligations by name, usable à la carte (the bench harnesses
  // call these); each is run_obligation on the matching Obligation.
  CheckResult check_corruption(const std::string& reg) const;
  CheckResult check_pseudo_pair(const std::string& critical_reg,
                                const std::string& candidate_reg) const;
  CheckResult check_bypass(const std::string& reg) const;

  /// Candidate registers worth scanning for a pseudo-critical relation to
  /// `reg`: same width, not the register itself, not tiny control state.
  std::vector<std::string> pseudo_candidates(const std::string& reg) const;

  [[nodiscard]] const DetectorOptions& options() const { return options_; }

 private:
  /// The Section 4.1 classification: does this Eq. 3 counterexample show a
  /// faithfully-mirroring candidate deviating only at the trigger?
  [[nodiscard]] bool pseudo_violation_is_trojan(const Obligation& obligation,
                                                const CheckResult& check) const;

  const designs::Design& design_;
  DetectorOptions options_;
};

}  // namespace trojanscout::core
