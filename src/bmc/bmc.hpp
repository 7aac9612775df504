// Bounded model checking engine (the paper's SMV role, Section 3.1).
//
// Given a netlist with a *bad signal* (a monitor output that is 1 exactly
// when the no-data-corruption property is violated at that cycle), the
// engine unrolls the design frame by frame, asking the SAT solver at each
// frame whether the bad signal can be 1. A SAT answer yields the witness
// (the Trojan trigger sequence); exhausting the bound or the resource budget
// yields "trustworthy for T clock cycles" semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sim/witness.hpp"

namespace trojanscout::bmc {

struct BmcOptions {
  /// Maximum number of frames to unroll (the paper's T bound).
  std::size_t max_frames = 1024;
  /// Wall-clock budget in seconds (the paper runs tools for 100 s).
  double time_limit_seconds = 100.0;
  /// Clause-database cap: the run stops with kResourceOut before the CNF
  /// copies exhaust the machine (the paper had 128 GB; containers do not).
  std::uint64_t memory_limit_bytes = 2ull << 30;
  /// SAT solver configuration (exposed for the ablation benches).
  sat::SolverOptions solver;
  /// Cooperative cancellation flag polled between frames and inside the
  /// SAT search; a set flag ends the run with kResourceOut + cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Clause-proof stream (see proof/drat.hpp). When non-null, attached to
  /// the solver before any clause is added: the listener sees the full
  /// input-clause sequence, every learned/deleted clause as binary DRAT,
  /// and one UNSAT mark per clean frame. Null (the default) costs nothing.
  sat::ProofListener* proof = nullptr;
  /// Live-progress cells for the --progress heartbeat / stall watchdog.
  /// When non-null, forwarded into every solve's Budget and the frame
  /// counter is stored after each frame. Null costs nothing.
  telemetry::ObligationProgress* progress = nullptr;
};

enum class BmcStatus {
  /// Property violated: a counterexample (Trojan trigger) was found.
  kViolated,
  /// Unrolled max_frames with no violation: trustworthy for that many cycles.
  kBoundReached,
  /// Budget exhausted: trustworthy for frames_completed cycles only.
  kResourceOut,
};

struct BmcResult {
  BmcStatus status = BmcStatus::kResourceOut;
  std::optional<sim::Witness> witness;
  /// Number of frames fully checked (UNSAT) before stopping / violating.
  std::size_t frames_completed = 0;
  double seconds = 0.0;
  /// RSS growth attributable to this run, in bytes.
  std::uint64_t memory_bytes = 0;
  sat::SolverStats sat_stats;
  /// CNF variables allocated by the unroller across all frames.
  std::size_t vars = 0;
  /// Clause-database size sampled after each frame's solve — the growth
  /// curve behind the paper's "BMC makes multiple copies of the design".
  std::vector<std::uint32_t> frame_clauses;
  /// True when the run stopped because BmcOptions::cancel was set.
  bool cancelled = false;

  [[nodiscard]] bool violated() const { return status == BmcStatus::kViolated; }
  [[nodiscard]] std::string status_name() const;
};

/// Runs BMC on `nl` for the given bad signal.
BmcResult check_bad_signal(const netlist::Netlist& nl,
                           netlist::SignalId bad_signal,
                           const BmcOptions& options);

}  // namespace trojanscout::bmc
