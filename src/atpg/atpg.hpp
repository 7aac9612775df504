// Sequential ATPG back end (Section 3.2 of the paper).
//
// The no-data-corruption property is compiled into a monitor circuit whose
// output ("bad signal") is 1 exactly when the property is violated; the
// paper then asks a full-sequential ATPG tool to generate a test for a
// stuck-at fault at that output, which forces the tool to produce an input
// sequence that violates the property.
//
// This engine implements that search directly: a PODEM-style branch-and-
// bound over primary-input assignments across lazily materialized time
// frames, with three-valued implication (event semantics: re-simulate from
// the earliest affected frame) and SCOAP-guided objective backtrace.
//
// Contrast with the BMC back end: no CNF, no clause learning, no copies of
// the design per frame — only one Ternary value array per frame. This is
// what reproduces the paper's observation that ATPG uses roughly an order
// of magnitude less memory and unrolls ~3x more frames per unit time.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include <vector>

#include "netlist/netlist.hpp"
#include "sim/witness.hpp"
#include "util/bitvec.hpp"

namespace trojanscout::telemetry {
struct ObligationProgress;
}  // namespace trojanscout::telemetry

namespace trojanscout::atpg {

struct AtpgOptions {
  /// Maximum number of frames to consider (the paper's T bound).
  std::size_t max_frames = 1024;
  /// First target frame (earlier frames are skipped, e.g. when a caller
  /// already knows the trigger cannot fire sooner).
  std::size_t start_frame = 0;
  /// Wall-clock budget in seconds.
  double time_limit_seconds = 100.0;
  /// Backtrack budget per target frame; past it the frame is "aborted"
  /// (inconclusive), mirroring industrial ATPG abort behavior.
  std::uint64_t backtrack_limit_per_frame = 4000;
  /// Random-simulation phase before the deterministic search, as industrial
  /// sequential ATPG does: this many random input sequences of max_frames
  /// cycles are simulated looking for an accidental violation. Cheap, and
  /// it rescues targets whose prerequisites are individually likely (e.g. a
  /// trigger counter fed by common instructions).
  std::size_t random_sequences = 64;
  std::uint64_t seed = 0x70a57;
  /// Optional functional stimulus sequences (one BitVec per cycle, in
  /// Netlist::inputs() order) simulated before the weighted-random phase —
  /// the analogue of the functional initialization sequences industrial
  /// sequential ATPG accepts. Typically produced by the family workload
  /// generator (baselines/workloads.hpp).
  std::vector<std::vector<util::BitVec>> stimulus_sequences;
  /// Use SCOAP controllability to pick backtrace branches.
  bool use_scoap_guidance = true;
  /// Cap on the per-frame value arrays (kResourceOut past it).
  std::uint64_t memory_limit_bytes = 2ull << 30;
  /// Cooperative cancellation flag polled between frames and inside the
  /// branch-and-bound; a set flag ends the run with kResourceOut + cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Live-progress cells for the --progress heartbeat / stall watchdog:
  /// frame depth per target frame, decisions/backtracks at coarse
  /// intervals inside the search. Null costs nothing.
  telemetry::ObligationProgress* progress = nullptr;
};

enum class AtpgStatus {
  kViolated,      // test found: property violated, witness available
  kBoundReached,  // all frames up to max_frames processed, no test
  kResourceOut,   // time budget exhausted
};

struct AtpgResult {
  AtpgStatus status = AtpgStatus::kResourceOut;
  std::optional<sim::Witness> witness;
  /// Frames processed (proven clean + aborted) before stopping.
  std::size_t frames_completed = 0;
  /// Frames for which the search space was exhausted (no test exists).
  std::size_t frames_proven_clean = 0;
  /// Frames abandoned at the backtrack limit (inconclusive).
  std::size_t frames_aborted = 0;
  double seconds = 0.0;
  std::uint64_t memory_bytes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t implications = 0;
  /// True when the run stopped because AtpgOptions::cancel was set.
  bool cancelled = false;

  [[nodiscard]] bool violated() const { return status == AtpgStatus::kViolated; }
  [[nodiscard]] std::string status_name() const;
};

/// Searches for an input sequence driving `bad_signal` to 1 at some frame
/// < max_frames (equivalently: a test for bad_signal stuck-at-0).
AtpgResult check_bad_signal(const netlist::Netlist& nl,
                            netlist::SignalId bad_signal,
                            const AtpgOptions& options);

}  // namespace trojanscout::atpg
