// The one definition of gate semantics.
//
// Every engine that computes gate values — the two- and three-valued cycle
// simulators that replay witnesses, the ATPG engine's frame simulation and
// random-pattern phase, and the FANCI baseline's bit-parallel cone sampling
// — evaluates gates through eval_gate. A value domain supplies seven
// primitives (const0, const1, not_, and_, or_, xor_, mux); eval_gate
// derives the remaining ops (BUF, NAND, NOR, XNOR) from them, so the
// semantics of every op are written once, for every domain.
//
// Domains are selected by value type:
//   Bool     std::uint8_t   0 / 1, one pattern per signal
//   Ternary  sim::Ternary   0 / 1 / X (see ternary.hpp)
//   Lanes64  std::uint64_t  64 independent patterns per word, one per bit
//
// The CNF encoder (cnf/unroller.cpp) is deliberately *not* built on this
// header: it is the independent second definition that BMC and PDR
// witnesses are replayed against.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/ternary.hpp"

namespace trojanscout::sim {

using Bool = std::uint8_t;
using Lanes64 = std::uint64_t;

/// Domain primitives, specialized per value type.
template <class V>
struct Domain;

template <>
struct Domain<Bool> {
  /// Value of an input nobody has driven yet.
  static constexpr Bool undriven() { return 0; }
  static constexpr Bool const0() { return 0; }
  static constexpr Bool const1() { return 1; }
  static Bool from_bool(bool b) { return b ? 1 : 0; }
  static Bool not_(Bool a) { return a ^ 1u; }
  static Bool and_(Bool a, Bool b) { return a & b; }
  static Bool or_(Bool a, Bool b) { return a | b; }
  static Bool xor_(Bool a, Bool b) { return a ^ b; }
  static Bool mux(Bool s, Bool t, Bool f) { return s != 0 ? t : f; }
};

template <>
struct Domain<Ternary> {
  static constexpr Ternary undriven() { return Ternary::kX; }
  static constexpr Ternary const0() { return Ternary::kZero; }
  static constexpr Ternary const1() { return Ternary::kOne; }
  static Ternary from_bool(bool b) { return t_from_bool(b); }
  static Ternary not_(Ternary a) { return t_not(a); }
  static Ternary and_(Ternary a, Ternary b) { return t_and(a, b); }
  static Ternary or_(Ternary a, Ternary b) { return t_or(a, b); }
  static Ternary xor_(Ternary a, Ternary b) { return t_xor(a, b); }
  static Ternary mux(Ternary s, Ternary t, Ternary f) { return t_mux(s, t, f); }
};

template <>
struct Domain<Lanes64> {
  static constexpr Lanes64 const0() { return 0; }
  static constexpr Lanes64 const1() { return ~0ull; }
  static Lanes64 not_(Lanes64 a) { return ~a; }
  static Lanes64 and_(Lanes64 a, Lanes64 b) { return a & b; }
  static Lanes64 or_(Lanes64 a, Lanes64 b) { return a | b; }
  static Lanes64 xor_(Lanes64 a, Lanes64 b) { return a ^ b; }
  static Lanes64 mux(Lanes64 s, Lanes64 t, Lanes64 f) {
    return (s & t) | (~s & f);
  }
};

/// Value of signal `id` (whose gate is `g`), computed from its fanins'
/// entries in `values` (indexed by SignalId). Sources — primary inputs and
/// DFF outputs — are driven from outside the combinational logic and keep
/// values[id].
template <class V>
inline V eval_gate(const netlist::Gate& g, const V* values,
                   netlist::SignalId id) {
  using D = Domain<V>;
  using netlist::Op;
  const auto in = [&](int k) { return values[g.fanin[k]]; };
  switch (g.op) {
    case Op::kConst0: return D::const0();
    case Op::kConst1: return D::const1();
    case Op::kInput:
    case Op::kDff: return values[id];
    case Op::kBuf: return in(0);
    case Op::kNot: return D::not_(in(0));
    case Op::kAnd: return D::and_(in(0), in(1));
    case Op::kOr: return D::or_(in(0), in(1));
    case Op::kXor: return D::xor_(in(0), in(1));
    case Op::kXnor: return D::not_(D::xor_(in(0), in(1)));
    case Op::kNand: return D::not_(D::and_(in(0), in(1)));
    case Op::kNor: return D::not_(D::or_(in(0), in(1)));
    case Op::kMux: return D::mux(in(0), in(1), in(2));
  }
  return values[id];
}

/// Evaluates the gates of `order` (a topological order, or any subset of
/// one closed under fanin) in place. Inputs and DFF outputs are left as
/// they are: callers write them first.
template <class V>
inline void eval_comb(const netlist::Netlist& nl,
                      const std::vector<netlist::SignalId>& order,
                      V* values) {
  for (const netlist::SignalId id : order) {
    values[id] = eval_gate(nl.gate(id), values, id);
  }
}

}  // namespace trojanscout::sim
