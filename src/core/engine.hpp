// Unified front end over the verification back ends, mirroring the paper's
// setup where the same property monitor is handed to either Cadence SMV
// (BMC) or TetraMAX (ATPG) — extended with an unbounded IC3/PDR engine and
// a portfolio mode that races all three on one obligation.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include <vector>

#include "atpg/atpg.hpp"
#include "bmc/bmc.hpp"
#include "netlist/netlist.hpp"
#include "pdr/invariant.hpp"
#include "sim/witness.hpp"

namespace trojanscout::core {

enum class EngineKind { kBmc, kAtpg, kPdr, kPortfolio };

/// Report-facing engine name ("BMC" / "ATPG" / "PDR" / "PORTFOLIO").
inline const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBmc:
      return "BMC";
    case EngineKind::kAtpg:
      return "ATPG";
    case EngineKind::kPdr:
      return "PDR";
    case EngineKind::kPortfolio:
      return "PORTFOLIO";
  }
  return "?";
}

/// CLI / wire-protocol engine name ("bmc" / "atpg" / "pdr" / "portfolio").
inline const char* engine_flag_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBmc:
      return "bmc";
    case EngineKind::kAtpg:
      return "atpg";
    case EngineKind::kPdr:
      return "pdr";
    case EngineKind::kPortfolio:
      return "portfolio";
  }
  return "?";
}

/// Parses a CLI / wire-protocol engine name; nullopt on anything unknown.
inline std::optional<EngineKind> engine_kind_from_string(
    const std::string& name) {
  if (name == "bmc") return EngineKind::kBmc;
  if (name == "atpg") return EngineKind::kAtpg;
  if (name == "pdr") return EngineKind::kPdr;
  if (name == "portfolio") return EngineKind::kPortfolio;
  return std::nullopt;
}

struct EngineOptions {
  EngineKind kind = EngineKind::kBmc;
  /// The paper's T bound: number of clock cycles to unroll.
  std::size_t max_frames = 1024;
  /// Wall-clock budget (paper: 100 s).
  double time_limit_seconds = 100.0;
  /// BMC back-end configuration (ablation hooks); PDR shares the solver.
  sat::SolverOptions solver;
  /// ATPG back-end configuration.
  std::uint64_t atpg_backtrack_limit = 4000;
  bool atpg_use_scoap = true;
  std::size_t atpg_random_sequences = 64;
  /// Functional stimulus hints forwarded to the ATPG simulation phase
  /// (ignored by BMC). See AtpgOptions::stimulus_sequences.
  std::vector<std::vector<util::BitVec>> atpg_stimulus;
  /// PDR inductive generalization (literal dropping). Part of the
  /// obligation cache key: it changes which invariant a proven run emits.
  bool pdr_generalize = true;
  /// Cooperative cancellation flag polled by all back ends; a set flag
  /// ends the run early with CheckResult::cancelled. Used by the parallel
  /// scheduler's fail-fast mode; leave null for standalone runs.
  const std::atomic<bool>* cancel = nullptr;
  /// Clause-proof stream for the BMC back end (forwarded to
  /// BmcOptions::proof; ATPG has no clause proofs and PDR's evidence is
  /// its invariant, so both ignore it). In portfolio mode the stream is
  /// attached to the BMC leg only, and its contents are meaningful only
  /// when BMC wins the race. Used by proof::certify.
  sat::ProofListener* proof = nullptr;
  /// Live-progress cells (telemetry::ObligationProgress) forwarded to the
  /// back end; the --progress heartbeat and stall watchdog read them from
  /// the reporter thread. Null (the default) costs nothing.
  telemetry::ObligationProgress* progress = nullptr;
};

/// Deterministic per-run work counters, copied off whichever back end ran.
/// Everything here is a function of (netlist, property, options) only —
/// never of wall-clock time or machine load — so the telemetry sink can
/// assert byte-identical reports across --jobs settings. The per-frame
/// breakdown of these counters is not kept here: each engine frame writes
/// its deltas as args on its trace span (`audit --trace-out`).
struct EngineCounters {
  // BMC back end (zero for ATPG runs); PDR also fills the SAT counters.
  sat::SolverStats sat;
  std::size_t cnf_vars = 0;
  std::vector<std::uint32_t> frame_clauses;
  // ATPG back end (zero for BMC runs).
  std::uint64_t atpg_decisions = 0;
  std::uint64_t atpg_backtracks = 0;
  std::uint64_t atpg_implications = 0;
  std::size_t atpg_frames_proven_clean = 0;
  std::size_t atpg_frames_aborted = 0;
  // PDR back end (zero for BMC/ATPG runs).
  std::uint64_t pdr_frames = 0;
  std::uint64_t pdr_pushed_clauses = 0;
  std::uint64_t pdr_ctis = 0;
  std::uint64_t pdr_obligations = 0;
};

/// Per-engine outcome of one portfolio race, in fixed priority order
/// (BMC, ATPG, PDR). TIMING CARVE-OUT: which losers got how far before
/// observing the cancel flag depends on machine load, so this vector is
/// excluded from the report signature and the cached-verdict codec — it
/// feeds the {"type":"portfolio"} run-report record (timing-flagged fields)
/// and the win/cancel tallies only.
struct PortfolioOutcome {
  EngineKind engine = EngineKind::kBmc;
  /// The engine's own status string ("violated", "cancelled", ...).
  std::string status;
  bool violated = false;
  bool proven_unbounded = false;
  bool cancelled = false;
  /// True for the engine whose result the race reported.
  bool won = false;
  double seconds = 0.0;
};

/// Engine-agnostic outcome of checking one bad signal.
struct CheckResult {
  bool violated = false;
  /// True when the engine processed every frame up to max_frames without a
  /// violation: BMC proved each frame UNSAT; PDR blocked each frontier or
  /// reached a fixpoint; ATPG ended each frame's search without a
  /// justification, counting frames that hit the backtrack abort limit
  /// (`atpg_frames_aborted`) as well as exhausted ones. What each engine's
  /// verdict proves is tabled in DESIGN §6.5.
  bool bound_reached = false;
  /// True when PDR converged to an inductive invariant: clean at *every*
  /// depth, not just up to the bound. Implies bound_reached; the status
  /// string is "proven-unbounded" (distinguishable in signatures).
  bool proven_unbounded = false;
  std::optional<sim::Witness> witness;
  /// Inductive-invariant evidence, present exactly when proven_unbounded;
  /// `certify` re-validates it with an independent solver.
  std::optional<pdr::Invariant> invariant;
  std::size_t frames_completed = 0;
  double seconds = 0.0;
  std::uint64_t memory_bytes = 0;
  std::string status;
  /// True when the run was cut short by EngineOptions::cancel (fail-fast).
  bool cancelled = false;
  /// The back end that produced this result: the engine itself for single
  /// runs, the race winner for portfolio runs. Deterministic (the race
  /// selects by verdict strength then fixed priority, never arrival
  /// order), but excluded from the report signature so single-engine
  /// golden signatures stay stable.
  EngineKind engine_used = EngineKind::kBmc;
  /// Deterministic work counters for the run report (see EngineCounters).
  EngineCounters counters;
  /// Portfolio race outcomes (empty for single-engine runs); see
  /// PortfolioOutcome for the timing carve-out contract.
  std::vector<PortfolioOutcome> portfolio;

  /// Table-1-style verdict text: "Yes" (witness found) or "N/A".
  [[nodiscard]] const char* detected_cell() const {
    return violated ? "Yes" : "N/A";
  }
};

/// Runs the selected engine on (netlist, bad signal). kPortfolio races
/// BMC, ATPG, and PDR concurrently (see portfolio/portfolio.hpp).
CheckResult run_engine(const netlist::Netlist& nl, netlist::SignalId bad,
                       const EngineOptions& options);

}  // namespace trojanscout::core
