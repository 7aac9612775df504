// Property-directed reachability (IC3) engine — the portfolio's unbounded
// back end.
//
// Where BMC unrolls the design frame by frame and can only ever certify
// "trustworthy for T clock cycles", IC3 maintains a sequence of stepwise
// over-approximations F_0 = Init, F_1, ..., F_k of the reachable states and
// strengthens them with relatively-inductive clauses until either a real
// counterexample trace is assembled from proof obligations, or two adjacent
// frames become equal — at which point that frame is a true inductive
// invariant and the design is clean at *every* depth, not just up to a
// bound. The invariant is returned as evidence (see invariant.hpp) and
// `certify` re-validates it with an independent solver.
//
// The implementation uses the existing CNF/SAT stack: one incremental
// solver holding a two-frame unrolling of the monitor cone (current state,
// transition relation, next state), monotone frames activated per query via
// assumption literals, and deterministic generalization / obligation
// ordering so runs are reproducible byte for byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "pdr/invariant.hpp"
#include "sat/solver.hpp"
#include "sim/witness.hpp"

namespace trojanscout::pdr {

struct PdrOptions {
  /// Frontier cap: mirrors the BMC bound so a non-converging run still
  /// certifies "trustworthy for max_frames cycles" (kBoundReached).
  std::size_t max_frames = 1024;
  /// Wall-clock budget in seconds (matches the paper's 100 s tool runs).
  double time_limit_seconds = 100.0;
  /// SAT solver configuration (shared with the BMC ablation benches).
  sat::SolverOptions solver;
  /// Inductive generalization (literal dropping). On by default; the knob
  /// exists for the bench suite and is part of the obligation cache key.
  bool generalize = true;
  /// Cooperative cancellation flag, polled at every obligation and inside
  /// the SAT search; a set flag ends the run with kResourceOut + cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Live-progress cells for the --progress heartbeat / stall watchdog.
  telemetry::ObligationProgress* progress = nullptr;
};

enum class PdrStatus {
  /// Counterexample trace found (same witness contract as BMC/ATPG).
  kViolated,
  /// Two adjacent frames converged: inductive invariant, clean forever.
  kProven,
  /// Frontier reached max_frames without converging: bounded-clean only.
  kBoundReached,
  /// Budget exhausted or cancelled.
  kResourceOut,
};

struct PdrCounters {
  /// Highest frontier level whose blocking phase completed.
  std::uint64_t frames = 0;
  /// Clauses moved forward one frame during propagation phases.
  std::uint64_t pushed_clauses = 0;
  /// Counterexamples-to-induction pulled from the frontier.
  std::uint64_t ctis = 0;
  /// Proof obligations handled (CTIs + predecessors + reschedules).
  std::uint64_t obligations = 0;
};

struct PdrResult {
  PdrStatus status = PdrStatus::kResourceOut;
  std::optional<sim::Witness> witness;
  /// Present exactly when status == kProven; already self-checked by the
  /// engine, and re-checked independently by `certify`.
  std::optional<Invariant> invariant;
  /// "Trustworthy for N cycles" semantics shared with BMC: the number of
  /// frontier levels fully blocked. A proven run reports max_frames (the
  /// invariant covers every depth; downstream trust-bound merging takes a
  /// min across obligations).
  std::size_t frames_completed = 0;
  double seconds = 0.0;
  std::uint64_t memory_bytes = 0;
  sat::SolverStats sat_stats;
  std::size_t vars = 0;
  PdrCounters counters;
  bool cancelled = false;

  [[nodiscard]] bool violated() const { return status == PdrStatus::kViolated; }
  [[nodiscard]] std::string status_name() const;
};

/// Runs IC3/PDR on `nl` for the given bad signal.
PdrResult check_bad_signal(const netlist::Netlist& nl,
                           netlist::SignalId bad_signal,
                           const PdrOptions& options);

}  // namespace trojanscout::pdr
