// Simulator tests: the shared gate evaluator's truth tables in every value
// domain, 2-valued and 3-valued simulation, witness replay, and the VCD
// dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "netlist/wordops.hpp"
#include "sim/eval.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"
#include "util/rng.hpp"

namespace trojanscout::sim {
namespace {

using netlist::Netlist;
using netlist::Op;
using netlist::SignalId;
using netlist::Word;

// ---- gate semantics ---------------------------------------------------------
//
// One truth table per combinational op, written out here independently of
// sim/eval.hpp, checked against eval_gate in every value domain.

struct TruthRow {
  Op op;
  int arity;
  /// Output per input combination; the combination's index reads the
  /// fanins as a binary number with fanin 0 as the most significant bit.
  const char* outputs;
};

constexpr TruthRow kTruthTable[] = {
    {Op::kConst0, 0, "0"},
    {Op::kConst1, 0, "1"},
    {Op::kBuf, 1, "01"},
    {Op::kNot, 1, "10"},
    {Op::kAnd, 2, "0001"},
    {Op::kOr, 2, "0111"},
    {Op::kXor, 2, "0110"},
    {Op::kXnor, 2, "1001"},
    {Op::kNand, 2, "1110"},
    {Op::kNor, 2, "1000"},
    {Op::kMux, 3, "01010011"},  // fanins (sel, t, f): sel ? t : f
};

/// The gate under test reads value slots 0..2; slot 3 is its own signal.
constexpr SignalId kSelf = 3;

template <class V>
V eval_op(Op op, std::array<V, 4> slots) {
  netlist::Gate g;
  g.op = op;
  g.fanin = {0, 1, 2};
  return eval_gate(g, slots.data(), kSelf);
}

bool fanin_bit(const TruthRow& row, unsigned index, int k) {
  return ((index >> (row.arity - 1 - k)) & 1u) != 0;
}

bool expected(const TruthRow& row, unsigned index) {
  return row.outputs[index] == '1';
}

TEST(Simulator, CombinationalGateSemantics) {
  // The table covers every op except the two sources.
  for (int raw = 0; raw <= static_cast<int>(Op::kDff); ++raw) {
    const Op op = static_cast<Op>(raw);
    if (op == Op::kInput || op == Op::kDff) continue;
    const bool covered = std::any_of(
        std::begin(kTruthTable), std::end(kTruthTable),
        [&](const TruthRow& row) {
          return row.op == op && row.arity == netlist::op_arity(op);
        });
    EXPECT_TRUE(covered) << netlist::op_name(op);
  }

  for (const TruthRow& row : kTruthTable) {
    SCOPED_TRACE(netlist::op_name(row.op));
    for (unsigned index = 0; index < (1u << row.arity); ++index) {
      std::array<Bool, 4> bools{};
      std::array<Ternary, 4> ternaries{};
      std::array<Lanes64, 4> lanes{};
      for (int k = 0; k < row.arity; ++k) {
        const bool bit = fanin_bit(row, index, k);
        bools[k] = bit ? 1 : 0;
        ternaries[k] = t_from_bool(bit);
        lanes[k] = bit ? ~0ull : 0;
      }
      const bool want = expected(row, index);
      EXPECT_EQ(eval_op(row.op, bools), want ? 1 : 0) << "inputs " << index;
      EXPECT_EQ(eval_op(row.op, ternaries), t_from_bool(want))
          << "inputs " << index;
      EXPECT_EQ(eval_op(row.op, lanes), want ? ~0ull : 0ull)
          << "inputs " << index;
    }
  }
}

TEST(GateSemantics, SourcesKeepTheirValueInEveryDomain) {
  for (const Op op : {Op::kInput, Op::kDff}) {
    EXPECT_EQ(eval_op<Bool>(op, {0, 0, 0, 1}), 1);
    EXPECT_EQ(eval_op<Ternary>(op, {Ternary::kOne, Ternary::kOne,
                                    Ternary::kOne, Ternary::kX}),
              Ternary::kX);
    EXPECT_EQ(eval_op<Lanes64>(op, {0, 0, 0, 0x1234}), 0x1234u);
  }
}

TEST(GateSemantics, TernaryIsTheExactXMonotoneAbstraction) {
  // For every 0/1/X input combination the ternary output is the value all
  // 0/1 completions of the X inputs agree on, and X when they disagree; and
  // refining one X input to 0 or 1 never flips a known output.
  for (const TruthRow& row : kTruthTable) {
    SCOPED_TRACE(netlist::op_name(row.op));
    int combos = 1;
    for (int k = 0; k < row.arity; ++k) combos *= 3;
    for (int combo = 0; combo < combos; ++combo) {
      std::array<Ternary, 4> in{};
      for (int k = 0, c = combo; k < row.arity; ++k, c /= 3) {
        in[k] = static_cast<Ternary>(c % 3);  // kZero, kOne, kX
      }
      bool seen[2] = {false, false};
      for (unsigned index = 0; index < (1u << row.arity); ++index) {
        bool consistent = true;
        for (int k = 0; k < row.arity; ++k) {
          if (in[k] != Ternary::kX &&
              (in[k] == Ternary::kOne) != fanin_bit(row, index, k)) {
            consistent = false;
          }
        }
        if (consistent) seen[expected(row, index) ? 1 : 0] = true;
      }
      const Ternary out = eval_op(row.op, in);
      EXPECT_EQ(out, seen[0] && seen[1] ? Ternary::kX : t_from_bool(seen[1]))
          << "combo " << combo;
      if (!t_is_known(out)) continue;
      for (int k = 0; k < row.arity; ++k) {
        if (in[k] != Ternary::kX) continue;
        for (const Ternary refined : {Ternary::kZero, Ternary::kOne}) {
          std::array<Ternary, 4> narrower = in;
          narrower[k] = refined;
          EXPECT_EQ(eval_op(row.op, narrower), out)
              << "combo " << combo << " refining fanin " << k;
        }
      }
    }
  }
}

TEST(GateSemantics, Lanes64LaneIEqualsBoolOnLaneI) {
  util::Xoshiro256 rng(0x1a7e5);
  for (const TruthRow& row : kTruthTable) {
    SCOPED_TRACE(netlist::op_name(row.op));
    for (int trial = 0; trial < 16; ++trial) {
      std::array<Lanes64, 4> words{};
      for (int k = 0; k < 3; ++k) words[k] = rng.next();
      // The low lanes enumerate every input combination exactly.
      for (unsigned lane = 0; lane < (1u << row.arity); ++lane) {
        for (int k = 0; k < row.arity; ++k) {
          words[k] &= ~(1ull << lane);
          if (fanin_bit(row, lane, k)) words[k] |= 1ull << lane;
        }
      }
      const Lanes64 out = eval_op(row.op, words);
      for (unsigned lane = 0; lane < 64; ++lane) {
        std::array<Bool, 4> bools{};
        for (int k = 0; k < 3; ++k) bools[k] = (words[k] >> lane) & 1u;
        EXPECT_EQ((out >> lane) & 1u, eval_op(row.op, bools))
            << "lane " << lane;
      }
    }
  }
}

TEST(GateSemantics, EvalCombLeavesInputsAndDffsAsTheyAre) {
  Netlist nl;
  const SignalId a = nl.add_input();
  const SignalId q = nl.add_dff(false);
  nl.connect_dff_input(q, nl.b_not(q));
  const SignalId g = nl.b_and(a, q);
  std::vector<Bool> values(nl.size(), 0);
  values[a] = 1;
  values[q] = 1;  // differs from both the reset value and the next state
  eval_comb(nl, nl.topo_order(), values.data());
  EXPECT_EQ(values[a], 1);
  EXPECT_EQ(values[q], 1);
  EXPECT_EQ(values[g], 1);
  EXPECT_EQ(values[nl.const1()], 1);
}

TEST(Simulator, DffLatchesOnStepAndResets) {
  Netlist nl;
  const SignalId d = nl.add_input();
  const SignalId q = nl.add_dff(true);
  nl.connect_dff_input(q, d);
  Simulator s(nl);
  EXPECT_TRUE(s.value(q)) << "reset value";
  s.set_input(d, false);
  s.step();
  EXPECT_FALSE(s.value(q));
  s.set_input(d, true);
  s.eval();
  EXPECT_FALSE(s.value(q)) << "eval must not latch";
  s.step();
  EXPECT_TRUE(s.value(q));
  s.reset();
  EXPECT_TRUE(s.value(q));
}

TEST(Simulator, SimultaneousDffUpdate) {
  // Swap network: a <-> b must exchange values atomically on step.
  Netlist nl;
  const SignalId a = nl.add_dff(true);
  const SignalId b = nl.add_dff(false);
  nl.connect_dff_input(a, b);
  nl.connect_dff_input(b, a);
  Simulator s(nl);
  s.step();
  EXPECT_FALSE(s.value(a));
  EXPECT_TRUE(s.value(b));
  s.step();
  EXPECT_TRUE(s.value(a));
  EXPECT_FALSE(s.value(b));
}

TEST(TernarySim, XPropagatesOnlyWhereItMatters) {
  Netlist nl;
  const SignalId a = nl.add_input();
  const SignalId b = nl.add_input();
  const SignalId g_and = nl.b_and(a, b);
  const SignalId g_or = nl.b_or(a, b);
  TernarySimulator s(nl);
  s.set_input(a, Ternary::kZero);
  s.set_input(b, Ternary::kX);
  s.eval();
  EXPECT_EQ(s.value(g_and), Ternary::kZero) << "0 controls AND";
  EXPECT_EQ(s.value(g_or), Ternary::kX);
  s.set_input(a, Ternary::kOne);
  s.eval();
  EXPECT_EQ(s.value(g_and), Ternary::kX);
  EXPECT_EQ(s.value(g_or), Ternary::kOne) << "1 controls OR";
}

TEST(TernarySim, MuxWithUnknownSelectAgreeingBranches) {
  Netlist nl;
  const SignalId sel = nl.add_input();
  const SignalId t = nl.add_input();
  const SignalId f = nl.add_input();
  const SignalId m = nl.b_mux(sel, t, f);
  TernarySimulator s(nl);
  s.set_input(sel, Ternary::kX);
  s.set_input(t, Ternary::kOne);
  s.set_input(f, Ternary::kOne);
  s.eval();
  EXPECT_EQ(s.value(m), Ternary::kOne) << "agreeing branches resolve X select";
  s.set_input(f, Ternary::kZero);
  s.eval();
  EXPECT_EQ(s.value(m), Ternary::kX);
}

TEST(TernarySim, ResetToXMakesStateUnknown) {
  Netlist nl;
  const SignalId d = nl.add_input();
  const SignalId q = nl.add_dff(false);
  nl.connect_dff_input(q, d);
  TernarySimulator s(nl);
  EXPECT_EQ(s.value(q), Ternary::kZero);
  s.reset_to_x();
  EXPECT_EQ(s.value(q), Ternary::kX);
}

TEST(Witness, PortValueDecodesByInputIndex) {
  Netlist nl;
  const Word a = nl.add_input_port("a", 8);
  const Word b = nl.add_input_port("b", 4);
  (void)a;
  (void)b;
  Witness w;
  InputFrame frame;
  frame.bits = util::BitVec(12);
  // a = 0xA5 (bits 0..7), b = 0x9 (bits 8..11).
  for (int i = 0; i < 8; ++i) frame.bits.set(i, (0xA5 >> i) & 1);
  for (int i = 0; i < 4; ++i) frame.bits.set(8 + i, (0x9 >> i) & 1);
  w.frames.push_back(frame);
  EXPECT_EQ(w.port_value(nl, "a", 0), 0xA5u);
  EXPECT_EQ(w.port_value(nl, "b", 0), 0x9u);
  const std::string text = w.to_string(nl);
  EXPECT_NE(text.find("a=0xa5"), std::string::npos);
}

TEST(Vcd, WritesAParsableHeaderAndValues) {
  Netlist nl;
  const SignalId en = nl.add_input_port("en", 1)[0];
  (void)en;
  const Word c = netlist::w_counter(nl, "c", 3, nl.input_port("en").bits[0]);
  nl.add_output_port("count", c);

  Witness w;
  for (int t = 0; t < 4; ++t) {
    InputFrame frame;
    frame.bits = util::BitVec(1);
    frame.bits.set(0, true);
    w.frames.push_back(frame);
  }
  const std::string path = "/tmp/trojanscout_test.vcd";
  ASSERT_TRUE(write_witness_vcd(nl, w, path));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(text.find("reg_c"), std::string::npos);
  EXPECT_NE(text.find("in_en"), std::string::npos);
  EXPECT_NE(text.find("#30"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReplayRegister, TracksACounter) {
  Netlist nl;
  const SignalId en = nl.add_input_port("en", 1)[0];
  (void)en;
  netlist::w_counter(nl, "c", 4, nl.input_port("en").bits[0]);
  Witness w;
  for (int t = 0; t < 5; ++t) {
    InputFrame frame;
    frame.bits = util::BitVec(1);
    frame.bits.set(0, t != 2);  // skip one enable
    w.frames.push_back(frame);
  }
  const auto trace = replay_register(nl, w, "c");
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[0].to_uint(), 1u);
  EXPECT_EQ(trace[1].to_uint(), 2u);
  EXPECT_EQ(trace[2].to_uint(), 2u);
  EXPECT_EQ(trace[4].to_uint(), 4u);
}

}  // namespace
}  // namespace trojanscout::sim
