#include "cnf/unroller.hpp"

#include <stdexcept>

#include "netlist/coi.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace trojanscout::cnf {

using netlist::Gate;
using netlist::Netlist;
using netlist::Op;
using netlist::SignalId;
using sat::Lit;
using sat::Var;

Unroller::Unroller(const Netlist& nl, sat::Solver& solver,
                   const std::vector<SignalId>& coi_roots,
                   bool free_initial_state)
    : nl_(nl),
      solver_(solver),
      topo_(nl.topo_order()),
      free_initial_state_(free_initial_state) {
  if (coi_roots.empty()) {
    in_cone_.assign(nl.size(), true);
  } else {
    in_cone_ = netlist::sequential_coi(nl, coi_roots);
  }
  // Keep only cone members in the evaluation order.
  std::vector<SignalId> filtered;
  filtered.reserve(topo_.size());
  for (const SignalId id : topo_) {
    if (in_cone_[id]) filtered.push_back(id);
  }
  topo_ = std::move(filtered);
  const Var t = solver_.new_var();
  true_lit_ = Lit(t, false);
  solver_.add_clause(true_lit_);
}

std::size_t Unroller::add_frame() {
  telemetry::Span span("cnf:unroll");
  const std::size_t vars_before = vars_allocated_;
  const std::size_t frame = frames_.size();
  frames_.emplace_back(nl_.size(), sat::undef_lit());
  auto& lits = frames_.back();

  // Primary inputs: fresh variables.
  for (const SignalId in : nl_.inputs()) {
    if (!in_cone_[in]) continue;
    const Var v = solver_.new_var();
    ++vars_allocated_;
    lits[in] = Lit(v, false);
  }
  // State: reset constants at frame 0, previous-frame data input afterwards.
  for (const SignalId dff : nl_.dffs()) {
    if (!in_cone_[dff]) continue;
    if (frame == 0) {
      if (free_initial_state_) {
        const Var v = solver_.new_var();
        ++vars_allocated_;
        lits[dff] = Lit(v, false);
      } else {
        lits[dff] = nl_.gate(dff).init ? true_lit_ : ~true_lit_;
      }
    } else {
      const SignalId d = nl_.gate(dff).fanin[0];
      if (d == netlist::kNullSignal) {
        throw std::runtime_error("Unroller: DFF with unconnected input");
      }
      lits[dff] = frames_[frame - 1][d];
    }
  }
  // Combinational logic in topological order.
  for (const SignalId id : topo_) {
    if (lits[id].index() != sat::kUndefLitIndex) continue;  // already mapped
    lits[id] = encode_gate(id, frame);
  }
  TS_COUNTER_ADD("cnf.frames", 1);
  TS_COUNTER_ADD("cnf.vars", vars_allocated_ - vars_before);
  return frame;
}

Lit Unroller::encode_gate(SignalId id, std::size_t frame) {
  auto& lits = frames_[frame];
  const Gate& g = nl_.gate(id);
  auto in = [&](int k) { return lits[g.fanin[k]]; };

  switch (g.op) {
    case Op::kConst0:
      return ~true_lit_;
    case Op::kConst1:
      return true_lit_;
    case Op::kInput:
    case Op::kDff:
      throw std::logic_error("encode_gate: source gate not pre-mapped");
    case Op::kBuf:
      return in(0);
    case Op::kNot:
      return ~in(0);
    case Op::kNand:
    case Op::kAnd: {
      const Lit a = in(0);
      const Lit b = in(1);
      const Lit c = Lit(solver_.new_var(), false);
      ++vars_allocated_;
      solver_.add_clause(~c, a);
      solver_.add_clause(~c, b);
      solver_.add_clause(c, ~a, ~b);
      return g.op == Op::kAnd ? c : ~c;
    }
    case Op::kNor:
    case Op::kOr: {
      const Lit a = in(0);
      const Lit b = in(1);
      const Lit c = Lit(solver_.new_var(), false);
      ++vars_allocated_;
      solver_.add_clause(c, ~a);
      solver_.add_clause(c, ~b);
      solver_.add_clause(~c, a, b);
      return g.op == Op::kOr ? c : ~c;
    }
    case Op::kXnor:
    case Op::kXor: {
      const Lit a = in(0);
      const Lit b = in(1);
      const Lit c = Lit(solver_.new_var(), false);
      ++vars_allocated_;
      solver_.add_clause(~c, a, b);
      solver_.add_clause(~c, ~a, ~b);
      solver_.add_clause(c, ~a, b);
      solver_.add_clause(c, a, ~b);
      return g.op == Op::kXor ? c : ~c;
    }
    case Op::kMux: {
      const Lit s = in(0);
      const Lit t = in(1);
      const Lit f = in(2);
      const Lit c = Lit(solver_.new_var(), false);
      ++vars_allocated_;
      solver_.add_clause(~s, ~t, c);
      solver_.add_clause(~s, t, ~c);
      solver_.add_clause(s, ~f, c);
      solver_.add_clause(s, f, ~c);
      // Redundant but propagation-strengthening clauses.
      solver_.add_clause(~t, ~f, c);
      solver_.add_clause(t, f, ~c);
      return c;
    }
  }
  throw std::logic_error("encode_gate: unhandled op");
}

Lit Unroller::lit_of(SignalId signal, std::size_t frame) const {
  const Lit lit = frames_.at(frame).at(signal);
  if (lit.index() == sat::kUndefLitIndex) {
    throw std::logic_error("lit_of: signal not encoded in frame");
  }
  return lit;
}

sim::Witness Unroller::extract_witness(std::size_t violation_frame) const {
  sim::Witness witness;
  witness.violation_frame = violation_frame;
  const auto& inputs = nl_.inputs();
  for (std::size_t t = 0; t <= violation_frame && t < frames_.size(); ++t) {
    sim::InputFrame frame;
    frame.bits = util::BitVec(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      // Inputs outside the cone of influence are irrelevant: fix them to 0.
      if (in_cone_[inputs[i]]) {
        frame.bits.set(i, solver_.model_value(frames_[t][inputs[i]]));
      }
    }
    witness.frames.push_back(std::move(frame));
  }
  return witness;
}

}  // namespace trojanscout::cnf
