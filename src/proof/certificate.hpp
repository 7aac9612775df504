// Self-contained, independently checkable audit certificates.
//
// `certify` runs Algorithm 1 exactly like the detector does (same
// obligations, same merge, same report signature, at any jobs count)
// while capturing *evidence* for every per-obligation answer:
//
//   * SAT answers (property violated): the witness input sequence. Checked
//     by replaying it on the cycle-accurate simulator against an
//     independently re-instrumented monitor netlist (sim::replay_confirms).
//   * BMC UNSAT answers (frame proven clean): a binary-DRAT clause proof
//     with one UnsatMark per clean frame. Checked by the independent
//     proof::DratChecker against a CNF re-derived from the netlist — the
//     unrolling is deterministic, so the verifier reconstructs the exact
//     formula each frame's solve was asked about without trusting the
//     solver. Frame t's formula includes the ~bad_j units of earlier
//     frames; since mark j certifies each of those, the chain composes
//     into "bad unreachable through frame t".
//   * ATPG clean frames: no proof object exists (search exhaustion is not
//     a certificate); these are recorded honestly as unchecked.
//   * PDR unbounded proofs: the inductive invariant (a clause set over the
//     monitor cone's state variables). Checked by pdr::check_invariant,
//     which re-proves initiation, consecution, and property containment
//     with a fresh SAT solver against the re-instrumented monitor.
//
// Under `--engine portfolio` every record carries the backend that won its
// race (engine_used); evidence requirements follow that per-record engine,
// so one certificate can mix replayed witnesses, DRAT chains, and
// inductive invariants.
//
// The certificate bundles the design identity (structural hash of the
// netlist + spec), the detector configuration, all per-obligation records,
// and the DetectionReport signature, serialized as deterministic JSON:
// certifying the same design twice — at any jobs count — yields identical
// bytes. `check_certificate` re-validates everything offline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/verdict_store.hpp"
#include "designs/design.hpp"
#include "pdr/invariant.hpp"
#include "proof/drat.hpp"
#include "proof/json.hpp"

namespace trojanscout::proof {

/// 64-bit FNV-1a over the netlist structure (gates, ports, registers,
/// debug-name-independent) — the certificate's design identity.
std::uint64_t design_hash(const netlist::Netlist& nl);

/// 64-bit FNV-1a over the design name, valid-ways spec, and critical
/// register list — the certificate's property-contract identity.
std::uint64_t spec_hash(const designs::Design& design);

/// The per-frame CNF of a BMC run, re-derived without solving: replays the
/// solver + unroller construction (which never consults assignment state)
/// and snapshots, for each of `n_frames` solve points, the input-clause
/// count and the frame's bad-signal assumption literal.
struct BmcFormula {
  /// Every input clause in emission order (incl. the ~bad_t units appended
  /// after each clean frame).
  std::vector<sat::Clause> formula;
  struct FramePoint {
    std::size_t formula_clauses = 0;  // clauses visible at this frame's solve
    sat::Lit bad;                     // the solve's single assumption
  };
  std::vector<FramePoint> frames;
};
BmcFormula derive_bmc_formula(const netlist::Netlist& nl,
                              netlist::SignalId bad, std::size_t n_frames);

/// UNSAT evidence for one BMC obligation run: the full DRAT stream plus one
/// mark per clean frame (prefix lengths into formula and proof).
struct DratEvidence {
  std::vector<std::uint8_t> drat;
  std::vector<ProofLog::UnsatMark> marks;
};

/// One obligation's outcome + evidence. Deterministic fields only (no
/// wall-clock, no memory), so certificates are byte-stable across runs.
struct ObligationRecord {
  core::Obligation obligation;
  /// Backend that produced this verdict. Equal to the certificate-level
  /// engine for single-engine audits; the winning leg under portfolio.
  core::EngineKind engine_used = core::EngineKind::kBmc;
  bool violated = false;
  bool bound_reached = false;
  /// True when PDR closed the property at every depth; the invariant below
  /// is the evidence and is mandatory for such records.
  bool proven_unbounded = false;
  bool cancelled = false;
  std::size_t frames_completed = 0;
  std::string status;
  std::optional<sim::Witness> witness;     // violated runs
  std::optional<DratEvidence> drat;        // BMC runs (clean-frame proofs)
  std::optional<pdr::Invariant> invariant; // PDR unbounded proofs
};

struct Certificate {
  static constexpr const char* kFormat = "trojanscout-certificate";
  // v2: per-record engine_used / proven_unbounded / invariant evidence
  // (the portfolio + IC3 additions). v1 files fail the version check.
  static constexpr int kVersion = 2;

  std::string design_name;
  std::uint64_t design_hash = 0;
  std::uint64_t spec_hash = 0;

  // Detector configuration the audit ran with (everything needed to
  // re-enumerate obligations and re-merge the report).
  core::EngineKind engine = core::EngineKind::kBmc;
  std::size_t max_frames = 0;
  properties::CorruptionMonitorKind monitor_kind =
      properties::CorruptionMonitorKind::kExact;
  bool scan_pseudo_critical = true;
  bool check_bypass = true;
  double mirror_threshold = 0.8;
  std::size_t min_pseudo_violation_depth = 4;

  std::vector<ObligationRecord> records;

  // The claim: the DetectionReport signature obtained by merging the
  // records in enumeration order (identical to a plain audit's).
  bool trojan_found = false;
  std::size_t trust_bound_frames = 0;
  std::string report_signature;
};

struct CertifyOptions {
  core::DetectorOptions detector;
  /// Worker threads for the obligation fan-out; 0 = one per hardware
  /// thread. The emitted certificate is byte-identical at every jobs count.
  std::size_t jobs = 1;
  /// Optional verdict store fed write-through as obligations complete.
  /// Certify never *reads* from it — a cached verdict carries no DRAT
  /// evidence, and certificates must be backed by a real engine run — but
  /// storing lets a later `audit --cache-dir` reuse the certified answers.
  core::VerdictStore* store = nullptr;
};

/// Runs the audit and gathers evidence. Throws on an internal invariant
/// break (e.g. a BMC run whose UNSAT marks disagree with frames_completed).
Certificate certify(const designs::Design& design,
                    const CertifyOptions& options);

struct CertificateCheckResult {
  bool ok = false;
  std::vector<std::string> errors;
  std::size_t witnesses_confirmed = 0;
  std::size_t drat_marks_checked = 0;
  /// PDR unbounded proofs whose invariant passed the independent
  /// initiation/consecution/property re-check.
  std::size_t invariants_checked = 0;
  /// Obligations whose clean answer has no checkable proof object (ATPG
  /// search exhaustion). Reported, not failed.
  std::size_t unchecked_obligations = 0;

  [[nodiscard]] std::string summary() const;
};

/// Re-validates a certificate against a design, sharing no state with the
/// run that produced it: recomputes both hashes, re-enumerates the
/// obligations, replays every witness on a re-instrumented monitor,
/// re-derives every BMC formula and DRAT-checks every clean-frame mark, and
/// re-merges the records into a report whose signature must match.
CertificateCheckResult check_certificate(const Certificate& cert,
                                         const designs::Design& design);

/// Deterministic JSON (de)serialization. `certificate_from_json` validates
/// structure, not evidence — run check_certificate for that.
Json certificate_to_json(const Certificate& cert);
bool certificate_from_json(const Json& json, Certificate& out,
                           std::string* error);

}  // namespace trojanscout::proof
