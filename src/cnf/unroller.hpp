// Tseitin encoding of a sequential netlist into CNF, one time frame at a
// time (the "unrolling" of bounded model checking, Section 2.2 of the paper).
//
// Frame semantics match the simulator: at frame 0 every DFF holds its reset
// value; at frame t > 0 a DFF holds the value its data input had at frame
// t-1. A gate's literal at frame t is created lazily when the frame is added.
//
// NOT/BUF/NAND/NOR/XNOR do not allocate variables: they map to (negated)
// literals of their operands, which keeps the CNF close to what a
// production encoder emits.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sim/witness.hpp"

namespace trojanscout::cnf {

class Unroller {
 public:
  /// `coi_roots`: when non-empty, only the sequential cone of influence of
  /// these signals is encoded (standard model-checking reduction); signals
  /// outside the cone have no literals.
  /// `free_initial_state`: frame 0 registers become fresh variables instead
  /// of their reset constants — the encoding PDR's relative-induction
  /// queries need (a frame-k state is any state, not the reset state).
  Unroller(const netlist::Netlist& nl, sat::Solver& solver,
           const std::vector<netlist::SignalId>& coi_roots = {},
           bool free_initial_state = false);

  /// Adds one more time frame; returns its index (0-based).
  std::size_t add_frame();

  [[nodiscard]] std::size_t frame_count() const { return frames_.size(); }

  /// Literal representing `signal` at `frame`. The frame must exist.
  [[nodiscard]] sat::Lit lit_of(netlist::SignalId signal,
                                std::size_t frame) const;

  /// After a SAT result, extracts the input assignment of frames
  /// [0, frames] into a witness with the given violation frame.
  [[nodiscard]] sim::Witness extract_witness(std::size_t violation_frame) const;

  /// Number of SAT variables allocated so far (for memory diagnostics).
  [[nodiscard]] std::size_t vars_allocated() const { return vars_allocated_; }

 private:
  sat::Lit encode_gate(netlist::SignalId id, std::size_t frame);

  const netlist::Netlist& nl_;
  sat::Solver& solver_;
  std::vector<netlist::SignalId> topo_;
  std::vector<bool> in_cone_;
  bool free_initial_state_ = false;
  // frames_[t][signal] = literal (kUndefLitIndex-marked before encoding).
  std::vector<std::vector<sat::Lit>> frames_;
  sat::Lit true_lit_;
  std::size_t vars_allocated_ = 0;
};

}  // namespace trojanscout::cnf
