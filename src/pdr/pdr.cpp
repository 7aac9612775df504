#include "pdr/pdr.hpp"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

#include "cnf/unroller.hpp"
#include "netlist/coi.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/bitvec.hpp"
#include "util/logging.hpp"
#include "util/resource.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout::pdr {

namespace {

/// A cube over state (DFF) variables: (signal, value) pairs sorted by
/// signal id. Cubes name *sets of states*; the engine blocks them by adding
/// their negation (a clause) to frames.
using Cube = std::vector<std::pair<netlist::SignalId, bool>>;

/// One node of the counterexample-in-progress: a state the engine must
/// prove unreachable, the input vector that steps it to `succ`'s state (for
/// the root CTI: the input that makes `bad` fire in this state), and the
/// successor link toward the bad state. Surviving chains become witnesses.
struct ObNode {
  Cube state;
  util::BitVec inputs;
  std::ptrdiff_t succ = -1;
};

/// Proof obligations ordered by (frame, insertion sequence): lowest frame
/// first, FIFO within a frame — a fixed order that keeps runs deterministic.
struct ObKey {
  std::size_t frame = 0;
  std::uint64_t seq = 0;
  std::size_t node = 0;
  bool operator<(const ObKey& other) const {
    if (frame != other.frame) return frame < other.frame;
    return seq < other.seq;
  }
};

class Ic3 {
 public:
  Ic3(const netlist::Netlist& nl, netlist::SignalId bad,
      const PdrOptions& options)
      : nl_(nl),
        bad_(bad),
        options_(options),
        solver_(options.solver),
        unroller_(nl, solver_, {bad}, /*free_initial_state=*/true),
        in_cone_(netlist::sequential_coi(nl, {bad})) {
    // Two frames give the whole query vocabulary: frame-0 DFF literals are
    // the (free) current-state variables S, frame-1 DFF literals are the
    // next-state functions over S and the frame-0 inputs, and the bad
    // signal at frame 0 asks "can this state raise bad under some input?".
    unroller_.add_frame();
    unroller_.add_frame();
    for (const netlist::SignalId dff : nl.dffs()) {
      if (in_cone_[dff]) state_vars_.push_back(dff);
    }
    for (const netlist::SignalId v : state_vars_) {
      init_cube_.emplace_back(v, nl.gate(v).init);
    }
    bad0_ = unroller_.lit_of(bad, 0);
    acts_.push_back(sat::undef_lit());  // level 0 is Init; no activation var
    frames_.emplace_back();
  }

  PdrResult run();

 private:
  // -- solver plumbing ------------------------------------------------------

  sat::SolveResult solve(const std::vector<sat::Lit>& assumptions) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_acquire)) {
      cancelled_ = true;
      return sat::SolveResult::kUnknown;
    }
    const double remaining =
        options_.time_limit_seconds - timer_.elapsed_seconds();
    if (remaining <= 0) return sat::SolveResult::kUnknown;
    sat::Budget budget;
    budget.time_limit_seconds = remaining;
    budget.cancel = options_.cancel;
    budget.progress = options_.progress;
    const sat::SolveResult r = solver_.solve(assumptions, budget);
    if (r == sat::SolveResult::kUnknown && sat::budget_cancelled(budget)) {
      cancelled_ = true;
    }
    return r;
  }

  /// Literal asserting "DFF `v` has value `b`" at frame 0 (current state)
  /// or frame 1 (next state).
  sat::Lit state_lit(netlist::SignalId v, bool b, std::size_t frame) const {
    const sat::Lit l = unroller_.lit_of(v, frame);
    return b ? l : ~l;
  }

  /// Assumptions activating frame `i`: the reset-state literals for F_0,
  /// the activation literals of every level >= i otherwise (frames are
  /// stored monotonically: a clause at level j belongs to F_1..F_j).
  std::vector<sat::Lit> frame_assumptions(std::size_t i) const {
    std::vector<sat::Lit> assumptions;
    if (i == 0) {
      for (const auto& [v, b] : init_cube_) {
        assumptions.push_back(state_lit(v, b, 0));
      }
      return assumptions;
    }
    for (std::size_t j = i; j < acts_.size(); ++j) {
      assumptions.push_back(acts_[j]);
    }
    return assumptions;
  }

  void open_frame() {
    acts_.push_back(sat::Lit(solver_.new_var(), false));
    frames_.emplace_back();
  }

  Cube model_state() const {
    Cube cube;
    cube.reserve(state_vars_.size());
    for (const netlist::SignalId v : state_vars_) {
      cube.emplace_back(v, solver_.model_value(unroller_.lit_of(v, 0)));
    }
    return cube;
  }

  util::BitVec model_inputs() const {
    const auto& inputs = nl_.inputs();
    util::BitVec bits(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      // Inputs outside the monitor cone are irrelevant: fix them to 0, the
      // same convention Unroller::extract_witness uses.
      if (in_cone_[inputs[i]]) {
        bits.set(i, solver_.model_value(unroller_.lit_of(inputs[i], 0)));
      }
    }
    return bits;
  }

  // -- IC3 queries ----------------------------------------------------------

  /// Relative-induction query for `cube` at level `j`:
  /// SAT?(F_{j-1} ∧ ¬cube ∧ T ∧ cube'). UNSAT means no F_{j-1} state
  /// outside the cube can step into it, so its negation may be blocked at
  /// level j. On SAT the predecessor model is parked in pending_*_. The
  /// ¬cube conjunct rides a throwaway activation variable retired with a
  /// unit clause right after the query.
  sat::SolveResult query_relative(const Cube& cube, std::size_t j) {
    const sat::Var t = solver_.new_var();
    sat::Clause guard;
    guard.reserve(cube.size() + 1);
    guard.push_back(sat::Lit(t, true));
    for (const auto& [v, b] : cube) guard.push_back(~state_lit(v, b, 0));
    solver_.add_clause(std::move(guard));

    std::vector<sat::Lit> assumptions = frame_assumptions(j - 1);
    assumptions.push_back(sat::Lit(t, false));
    for (const auto& [v, b] : cube) {
      assumptions.push_back(state_lit(v, b, 1));
    }
    const sat::SolveResult r = solve(assumptions);
    if (r == sat::SolveResult::kSat) {
      pending_state_ = model_state();
      pending_inputs_ = model_inputs();
    }
    solver_.add_clause(sat::Lit(t, true));
    return r;
  }

  /// True when some literal of the cube disagrees with the reset state —
  /// the initiation requirement for blocking it (Init must satisfy ¬cube).
  bool excludes_init(const Cube& cube) const {
    for (const auto& [v, b] : cube) {
      if (b != nl_.gate(v).init) return true;
    }
    return false;
  }

  /// Inductive generalization: drop literals in ascending signal-id order
  /// while the shrunk cube stays relatively inductive and init-excluded.
  /// Fewer literals = a stronger blocking clause covering more states.
  void generalize(Cube& cube, std::size_t j) {
    std::size_t i = 0;
    while (i < cube.size() && cube.size() > 1) {
      Cube candidate = cube;
      candidate.erase(candidate.begin() +
                      static_cast<std::ptrdiff_t>(i));
      if (!excludes_init(candidate)) {
        ++i;
        continue;
      }
      const sat::SolveResult r = query_relative(candidate, j);
      if (r == sat::SolveResult::kUnsat) {
        cube = std::move(candidate);
      } else if (r == sat::SolveResult::kSat) {
        ++i;
      } else {
        return;  // budget ran out: the current cube is already sound
      }
    }
  }

  /// Stores ¬cube at level j (holds in F_1..F_j) unless already present.
  void add_blocked(const Cube& cube, std::size_t j) {
    auto& level = frames_[j];
    if (std::find(level.begin(), level.end(), cube) != level.end()) return;
    level.push_back(cube);
    sat::Clause clause;
    clause.reserve(cube.size() + 1);
    clause.push_back(~acts_[j]);
    for (const auto& [v, b] : cube) clause.push_back(~state_lit(v, b, 0));
    solver_.add_clause(std::move(clause));
  }

  void enqueue(std::size_t frame, std::size_t node) {
    queue_.insert(ObKey{frame, next_seq_++, node});
  }

  sim::Witness build_witness(std::size_t node) const {
    sim::Witness witness;
    for (std::ptrdiff_t cur = static_cast<std::ptrdiff_t>(node); cur >= 0;
         cur = nodes_[static_cast<std::size_t>(cur)].succ) {
      sim::InputFrame frame;
      frame.bits = nodes_[static_cast<std::size_t>(cur)].inputs;
      witness.frames.push_back(std::move(frame));
    }
    witness.violation_frame = witness.frames.size() - 1;
    return witness;
  }

  // -- main phases ----------------------------------------------------------

  /// Pulls counterexamples-to-induction from the frontier F_k and blocks
  /// (or traces) them until F_k ∧ Bad goes UNSAT. Returns false with
  /// result.status set when the run ends here (violation / budget).
  bool block_all_ctis(std::size_t k, PdrResult& result) {
    while (true) {
      std::vector<sat::Lit> assumptions = frame_assumptions(k);
      assumptions.push_back(bad0_);
      const sat::SolveResult r = solve(assumptions);
      if (r == sat::SolveResult::kUnknown) {
        result.status = PdrStatus::kResourceOut;
        return false;
      }
      if (r == sat::SolveResult::kUnsat) return true;
      ++counters_.ctis;
      TS_COUNTER_ADD("pdr.ctis", 1);
      nodes_.push_back(ObNode{model_state(), model_inputs(), -1});
      enqueue(k, nodes_.size() - 1);
      if (!discharge_obligations(k, result)) return false;
    }
  }

  bool discharge_obligations(std::size_t k, PdrResult& result) {
    while (!queue_.empty()) {
      const ObKey ob = *queue_.begin();
      queue_.erase(queue_.begin());
      ++counters_.obligations;
      // Copy: nodes_ may reallocate when a predecessor is appended.
      const Cube state = nodes_[ob.node].state;
      if (ob.frame == 0 || state == init_cube_) {
        // The obligation chain starts in the reset state: a real trace.
        result.status = PdrStatus::kViolated;
        result.witness = build_witness(ob.node);
        return false;
      }
      const sat::SolveResult r = query_relative(state, ob.frame);
      if (r == sat::SolveResult::kUnknown) {
        result.status = PdrStatus::kResourceOut;
        return false;
      }
      if (r == sat::SolveResult::kUnsat) {
        Cube cube = state;
        if (options_.generalize) generalize(cube, ob.frame);
        add_blocked(cube, ob.frame);
        // Reschedule deeper: the same state must stay unreachable at every
        // later frame, and finding that out now speeds convergence.
        if (ob.frame < k) enqueue(ob.frame + 1, ob.node);
      } else {
        nodes_.push_back(ObNode{std::move(pending_state_),
                                std::move(pending_inputs_),
                                static_cast<std::ptrdiff_t>(ob.node)});
        enqueue(ob.frame - 1, nodes_.size() - 1);
        enqueue(ob.frame, ob.node);
      }
    }
    return true;
  }

  /// Pushes clauses forward: a clause still inductive one frame later
  /// migrates there. Returns false on budget exhaustion. Sets
  /// `fixpoint_level` to i+1 when some level i ends up empty — then
  /// F_i = F_{i+1} and the clauses at levels > i are an inductive invariant.
  bool propagate(std::size_t k, PdrResult& result,
                 std::size_t& fixpoint_level) {
    for (std::size_t i = 1; i <= k; ++i) {
      std::vector<Cube> kept;
      for (std::size_t c = 0; c < frames_[i].size(); ++c) {
        const Cube cube = frames_[i][c];
        std::vector<sat::Lit> assumptions = frame_assumptions(i);
        for (const auto& [v, b] : cube) {
          assumptions.push_back(state_lit(v, b, 1));
        }
        const sat::SolveResult r = solve(assumptions);
        if (r == sat::SolveResult::kUnknown) {
          for (std::size_t rest = c; rest < frames_[i].size(); ++rest) {
            kept.push_back(frames_[i][rest]);
          }
          frames_[i] = std::move(kept);
          result.status = PdrStatus::kResourceOut;
          return false;
        }
        if (r == sat::SolveResult::kUnsat) {
          add_blocked(cube, i + 1);
          ++counters_.pushed_clauses;
          TS_COUNTER_ADD("pdr.pushed_clauses", 1);
        } else {
          kept.push_back(cube);
        }
      }
      frames_[i] = std::move(kept);
    }
    for (std::size_t i = 1; i <= k; ++i) {
      if (frames_[i].empty()) {
        fixpoint_level = i + 1;
        return true;
      }
    }
    return true;
  }

  Invariant extract_invariant(std::size_t level) const {
    Invariant invariant;
    for (std::size_t i = level; i < frames_.size(); ++i) {
      for (const Cube& cube : frames_[i]) {
        std::vector<std::int32_t> clause;
        clause.reserve(cube.size());
        for (const auto& [v, b] : cube) {
          const auto dimacs = static_cast<std::int32_t>(v) + 1;
          clause.push_back(b ? -dimacs : dimacs);
        }
        invariant.clauses.push_back(std::move(clause));
      }
    }
    return invariant;
  }

  const netlist::Netlist& nl_;
  netlist::SignalId bad_;
  const PdrOptions& options_;
  sat::Solver solver_;
  cnf::Unroller unroller_;
  std::vector<bool> in_cone_;
  std::vector<netlist::SignalId> state_vars_;
  Cube init_cube_;
  sat::Lit bad0_;
  std::vector<sat::Lit> acts_;       // activation literal per level (1-based)
  std::vector<std::vector<Cube>> frames_;  // cubes blocked exactly at level
  std::vector<ObNode> nodes_;
  std::set<ObKey> queue_;
  std::uint64_t next_seq_ = 0;
  Cube pending_state_;
  util::BitVec pending_inputs_;
  PdrCounters counters_;
  bool cancelled_ = false;
  util::Stopwatch timer_;
};

PdrResult Ic3::run() {
  const std::uint64_t rss_before = util::current_rss_bytes();
  PdrResult result;

  const auto finalize = [&](PdrResult& r) {
    r.seconds = timer_.elapsed_seconds();
    const std::uint64_t rss_after = util::current_rss_bytes();
    const std::uint64_t rss_delta =
        rss_after > rss_before ? rss_after - rss_before : 0;
    r.memory_bytes = std::max(rss_delta, solver_.clause_bytes());
    r.sat_stats = solver_.stats();
    r.vars = unroller_.vars_allocated();
    r.counters = counters_;
    r.cancelled = cancelled_;
  };

  // Base case: can the reset state itself raise bad under some input? The
  // span's args carry all solver work up to here, so the spans' args sum
  // to the run's counters.
  {
    telemetry::Span reset_span("pdr:reset");
    std::vector<sat::Lit> assumptions = frame_assumptions(0);
    assumptions.push_back(bad0_);
    const sat::SolveResult r = solve(assumptions);
    sat::add_solver_args(reset_span, {}, solver_.stats());
    if (r == sat::SolveResult::kSat) {
      result.status = PdrStatus::kViolated;
      sim::Witness witness;
      witness.frames.push_back(sim::InputFrame{model_inputs()});
      witness.violation_frame = 0;
      result.witness = std::move(witness);
      finalize(result);
      return result;
    }
    if (r == sat::SolveResult::kUnknown) {
      result.status = PdrStatus::kResourceOut;
      finalize(result);
      return result;
    }
  }
  result.frames_completed = 1;
  if (options_.progress != nullptr) {
    options_.progress->frames.store(1, std::memory_order_relaxed);
  }

  if (state_vars_.empty()) {
    // No state in the monitor cone: the reset check covered every
    // reachable state, so the empty invariant already proves the property.
    result.status = PdrStatus::kProven;
    result.invariant = Invariant{};
    result.frames_completed = options_.max_frames;
    finalize(result);
    return result;
  }
  if (options_.max_frames <= 1) {
    result.status = PdrStatus::kBoundReached;
    finalize(result);
    return result;
  }

  open_frame();  // level 1
  for (std::size_t k = 1;; ++k) {
    telemetry::Span frontier_span("pdr:frontier");
    const sat::SolverStats stats_before = solver_.stats();

    const bool blocked = block_all_ctis(k, result);
    if (blocked) {
      // F_k overapproximates all states reachable in <= k steps, so a
      // blocked frontier certifies k+1 clean cycles (frames 0..k).
      result.frames_completed = k + 1;
      counters_.frames = k;
      TS_COUNTER_ADD("pdr.frames", 1);
      if (options_.progress != nullptr) {
        options_.progress->frames.store(result.frames_completed,
                                        std::memory_order_relaxed);
      }
    }

    bool done = !blocked;
    std::size_t fixpoint_level = 0;
    if (!done) {
      open_frame();  // level k+1 receives pushed clauses
      done = !propagate(k, result, fixpoint_level);
    }

    sat::add_frame_args(frontier_span, k, stats_before, solver_.stats());
    if (done) break;

    if (fixpoint_level != 0) {
      Invariant invariant = extract_invariant(fixpoint_level);
      // Self-check before claiming a proof; certify re-checks independently.
      const InvariantCheck check = check_invariant(nl_, bad_, invariant);
      if (!check.ok) {
        TS_LOG_ERROR("pdr: invariant self-check failed: %s",
                     check.detail.c_str());
        result.status = PdrStatus::kResourceOut;
        break;
      }
      result.status = PdrStatus::kProven;
      result.invariant = std::move(invariant);
      result.frames_completed = options_.max_frames;
      TS_LOG_DEBUG("pdr: fixpoint at level %zu (%zu clauses)",
                   fixpoint_level, result.invariant->clauses.size());
      break;
    }
    if (k + 1 >= options_.max_frames) {
      result.status = PdrStatus::kBoundReached;
      break;
    }
    TS_LOG_DEBUG("pdr: frontier %zu blocked (%.2fs elapsed)", k,
                 timer_.elapsed_seconds());
  }

  finalize(result);
  return result;
}

}  // namespace

std::string PdrResult::status_name() const {
  switch (status) {
    case PdrStatus::kViolated:
      return "violated";
    case PdrStatus::kProven:
      return "proven-unbounded";
    case PdrStatus::kBoundReached:
      return "bound-reached";
    case PdrStatus::kResourceOut:
      return "resource-out";
  }
  return "?";
}

PdrResult check_bad_signal(const netlist::Netlist& nl,
                           netlist::SignalId bad_signal,
                           const PdrOptions& options) {
  Ic3 engine(nl, bad_signal, options);
  return engine.run();
}

InvariantCheck check_invariant(const netlist::Netlist& nl,
                               netlist::SignalId bad,
                               const Invariant& invariant) {
  InvariantCheck verdict;
  const std::vector<bool> in_cone = netlist::sequential_coi(nl, {bad});

  // Structural validation + syntactic initiation (reset is a total
  // assignment, so "some literal agrees with reset" is a complete check).
  for (std::size_t ci = 0; ci < invariant.clauses.size(); ++ci) {
    const auto& clause = invariant.clauses[ci];
    if (clause.empty()) {
      verdict.detail = "clause " + std::to_string(ci) + " is empty";
      return verdict;
    }
    bool init_satisfied = false;
    for (const std::int32_t lit : clause) {
      if (lit == 0) {
        verdict.detail = "clause " + std::to_string(ci) + " has literal 0";
        return verdict;
      }
      const auto id = static_cast<std::uint64_t>(lit > 0 ? lit : -lit) - 1;
      if (id >= nl.size() ||
          nl.gate(static_cast<netlist::SignalId>(id)).op !=
              netlist::Op::kDff) {
        verdict.detail = "clause " + std::to_string(ci) +
                         " references a non-register signal";
        return verdict;
      }
      const auto v = static_cast<netlist::SignalId>(id);
      if (!in_cone[v]) {
        verdict.detail = "clause " + std::to_string(ci) +
                         " references a register outside the monitor cone";
        return verdict;
      }
      if (nl.gate(v).init == (lit > 0)) init_satisfied = true;
    }
    if (!init_satisfied) {
      verdict.detail =
          "initiation fails for clause " + std::to_string(ci) +
          " (the reset state falsifies it)";
      return verdict;
    }
  }

  sat::Solver solver;
  cnf::Unroller unroller(nl, solver, {bad}, /*free_initial_state=*/true);
  unroller.add_frame();
  unroller.add_frame();
  const auto lit_at = [&](std::int32_t lit, std::size_t frame) {
    const auto v = static_cast<netlist::SignalId>((lit > 0 ? lit : -lit) - 1);
    const sat::Lit l = unroller.lit_of(v, frame);
    return lit > 0 ? l : ~l;
  };
  for (const auto& clause : invariant.clauses) {
    sat::Clause cnf_clause;
    cnf_clause.reserve(clause.size());
    for (const std::int32_t lit : clause) {
      cnf_clause.push_back(lit_at(lit, 0));
    }
    solver.add_clause(std::move(cnf_clause));
  }

  util::Stopwatch timer;
  const double limit_seconds = 100.0;
  const auto solve = [&](const std::vector<sat::Lit>& assumptions) {
    sat::Budget budget;
    budget.time_limit_seconds = limit_seconds - timer.elapsed_seconds();
    return solver.solve(assumptions, budget);
  };

  // Property: no invariant state raises bad under any input.
  {
    const sat::SolveResult r = solve({unroller.lit_of(bad, 0)});
    if (r == sat::SolveResult::kSat) {
      verdict.detail =
          "property fails: an invariant state can raise the bad signal";
      return verdict;
    }
    if (r == sat::SolveResult::kUnknown) {
      verdict.detail = "resource limit while checking the property";
      return verdict;
    }
  }
  // Consecution: Inv ∧ T ∧ ¬c' is UNSAT for every clause c.
  for (std::size_t ci = 0; ci < invariant.clauses.size(); ++ci) {
    std::vector<sat::Lit> assumptions;
    assumptions.reserve(invariant.clauses[ci].size());
    for (const std::int32_t lit : invariant.clauses[ci]) {
      assumptions.push_back(~lit_at(lit, 1));
    }
    const sat::SolveResult r = solve(assumptions);
    if (r == sat::SolveResult::kSat) {
      verdict.detail = "consecution fails for clause " + std::to_string(ci);
      return verdict;
    }
    if (r == sat::SolveResult::kUnknown) {
      verdict.detail = "resource limit while checking consecution";
      return verdict;
    }
  }

  verdict.ok = true;
  return verdict;
}

}  // namespace trojanscout::pdr
