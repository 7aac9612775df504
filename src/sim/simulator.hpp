// Cycle-accurate netlist simulators: two-valued (Simulator) and three-valued
// 0/1/X (TernarySimulator), one class template over the value domains of
// sim/eval.hpp.
//
// The two-valued simulator validates witnesses produced by BMC/ATPG
// (replaying the trigger sequence and observing the corrupted register),
// drives the VeriTrust functional-stimulus analysis, and unit-tests the
// design cores against software reference models. The ternary simulator
// models unknown inputs and uninitialized state; it sanity-checks
// X-propagation through the design cores.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/eval.hpp"
#include "sim/witness.hpp"
#include "util/bitvec.hpp"

namespace trojanscout::sim {

template <class V>
class BasicSimulator {
  using D = Domain<V>;

 public:
  /// What set_input takes and value returns: a bool for the two-valued
  /// simulator, a Ternary for the ternary one.
  using InputValue = std::conditional_t<std::is_same_v<V, Bool>, bool, V>;

  explicit BasicSimulator(const netlist::Netlist& nl)
      : nl_(nl), topo_(nl.topo_order()), values_(nl.size()) {
    reset();
  }

  /// Returns all DFFs to their reset values; inputs become undriven (0 for
  /// the two-valued simulator, X for the ternary one).
  void reset() {
    std::fill(values_.begin(), values_.end(), D::undriven());
    for (const netlist::SignalId dff : nl_.dffs()) {
      values_[dff] = D::from_bool(nl_.gate(dff).init);
    }
    eval();
  }

  /// Drives one primary-input bit (by signal id).
  void set_input(netlist::SignalId input, InputValue value) {
    if (nl_.gate(input).op != netlist::Op::kInput) {
      throw std::invalid_argument("set_input: signal is not a primary input");
    }
    values_[input] = static_cast<V>(value);
  }

  /// Drives a named input port with the low bits of `value`.
  void set_input_port(const std::string& name, std::uint64_t value) {
    const auto& bits = nl_.input_port(name).bits;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      values_[bits[i]] = D::from_bool(i < 64 && ((value >> i) & 1u));
    }
  }

  /// Drives a named input port from a BitVec.
  void set_input_port(const std::string& name, const util::BitVec& value) {
    const auto& bits = nl_.input_port(name).bits;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      values_[bits[i]] = D::from_bool(i < value.size() && value.get(i));
    }
  }

  /// Drives all inputs at once from a frame (Netlist::inputs() order).
  void set_inputs(const util::BitVec& frame) {
    const auto& ins = nl_.inputs();
    for (std::size_t i = 0; i < ins.size(); ++i) {
      values_[ins[i]] = D::from_bool(i < frame.size() && frame.get(i));
    }
  }

  /// Re-evaluates combinational logic with current inputs/state.
  void eval() { eval_comb(nl_, topo_, values_.data()); }

  /// eval() then advance all DFFs one clock edge.
  void step() {
    eval();
    // Latch every DFF from its data input simultaneously.
    const auto& dffs = nl_.dffs();
    std::vector<V> next(dffs.size());
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      const netlist::SignalId d = nl_.gate(dffs[i]).fanin[0];
      if (d == netlist::kNullSignal) {
        throw std::runtime_error("step: DFF with unconnected input");
      }
      next[i] = values_[d];
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) values_[dffs[i]] = next[i];
    eval();
  }

  /// Current value of any signal (valid after eval()/step()).
  [[nodiscard]] InputValue value(netlist::SignalId id) const {
    return static_cast<InputValue>(values_[id]);
  }

  [[nodiscard]] const netlist::Netlist& netlist() const { return nl_; }

  // ---- two-valued readers ------------------------------------------------

  /// Reads a word (e.g. an output port's bits or a register's DFFs).
  [[nodiscard]] std::uint64_t read_word(const netlist::Word& word) const
    requires std::same_as<V, Bool>
  {
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < word.size() && i < 64; ++i) {
      out |= static_cast<std::uint64_t>(values_[word[i]]) << i;
    }
    return out;
  }

  [[nodiscard]] util::BitVec read_bits(const netlist::Word& word) const
    requires std::same_as<V, Bool>
  {
    util::BitVec out(word.size());
    for (std::size_t i = 0; i < word.size(); ++i) {
      out.set(i, values_[word[i]] != 0);
    }
    return out;
  }

  /// Reads a named register / output port.
  [[nodiscard]] std::uint64_t read_register(const std::string& name) const
    requires std::same_as<V, Bool>
  {
    return read_word(nl_.find_register(name).dffs);
  }

  [[nodiscard]] util::BitVec read_register_bits(const std::string& name) const
    requires std::same_as<V, Bool>
  {
    return read_bits(nl_.find_register(name).dffs);
  }

  [[nodiscard]] std::uint64_t read_output(const std::string& name) const
    requires std::same_as<V, Bool>
  {
    return read_word(nl_.output_port(name).bits);
  }

  // ---- three-valued extras -----------------------------------------------

  /// All DFFs to X (power-up without reset), inputs to X.
  void reset_to_x()
    requires std::same_as<V, Ternary>
  {
    std::fill(values_.begin(), values_.end(), Ternary::kX);
    eval();
  }

  /// Drives every bit of a named input port to X.
  void set_input_port_x(const std::string& name)
    requires std::same_as<V, Ternary>
  {
    for (const netlist::SignalId bit : nl_.input_port(name).bits) {
      values_[bit] = Ternary::kX;
    }
  }

  /// Reads a word as a string of '0'/'1'/'x', MSB first.
  [[nodiscard]] std::string read_word_string(const netlist::Word& word) const
    requires std::same_as<V, Ternary>
  {
    std::string out(word.size(), 'x');
    for (std::size_t i = 0; i < word.size(); ++i) {
      out[word.size() - 1 - i] = t_char(values_[word[i]]);
    }
    return out;
  }

 private:
  const netlist::Netlist& nl_;
  std::vector<netlist::SignalId> topo_;
  std::vector<V> values_;
};

using Simulator = BasicSimulator<Bool>;
using TernarySimulator = BasicSimulator<Ternary>;

/// Replays a witness from reset and returns the value of `reg` *after* each
/// cycle (result[t] = register value after applying witness frame t).
std::vector<util::BitVec> replay_register(const netlist::Netlist& nl,
                                          const Witness& witness,
                                          const std::string& reg);

}  // namespace trojanscout::sim
