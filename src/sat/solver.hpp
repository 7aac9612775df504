// Conflict-driven clause-learning (CDCL) SAT solver, written from scratch.
//
// This is the engine behind the BMC back end (the paper's Cadence SMV role).
// Features: two-watched-literal propagation, first-UIP clause learning with
// non-chronological backjumping, VSIDS decision heuristic with phase saving,
// Luby-sequence restarts, learned-clause database reduction, and incremental
// solving under assumptions (used for the per-frame "bad state reachable?"
// queries of the unroller).
//
// The solver optionally supports *feature ablation* (disable learning /
// disable VSIDS) so the bench suite can quantify what each heuristic buys on
// the paper's workloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "sat/types.hpp"

namespace trojanscout::telemetry {
struct ObligationProgress;
class Span;
}  // namespace trojanscout::telemetry

namespace trojanscout::sat {

/// Resource budget for a solve() call. Exceeding any limit yields kUnknown.
struct Budget {
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  std::uint64_t conflict_limit = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t propagation_limit = std::numeric_limits<std::uint64_t>::max();
  /// Cooperative cancellation: when non-null and set, solve() returns
  /// kUnknown at the next conflict boundary (the parallel scheduler's
  /// fail-fast path sets it when another worker finds a witness).
  const std::atomic<bool>* cancel = nullptr;
  /// Live-progress publication cells (telemetry::ObligationProgress). When
  /// non-null the solver stores its cumulative conflict / propagation /
  /// learned-clause totals there at coarse conflict intervals and once per
  /// solve() return, with relaxed stores — the --progress heartbeat and the
  /// stall watchdog read them from another thread.
  telemetry::ObligationProgress* progress = nullptr;
};

/// True when the budget's cancellation flag is set.
inline bool budget_cancelled(const Budget& budget) {
  return budget.cancel != nullptr &&
         budget.cancel->load(std::memory_order_acquire);
}

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t minimized_literals = 0;
};

/// Puts one engine frame's solver work on its trace span as args: `frame`
/// plus the decisions/propagations/conflicts/restarts deltas between the
/// two snapshots. BMC frames and PDR frontier levels both record this way.
void add_frame_args(telemetry::Span& span, std::uint64_t frame,
                    const SolverStats& before, const SolverStats& after);

struct SolverOptions {
  bool enable_learning = true;   // ablation hook
  bool enable_vsids = true;      // ablation hook; falls back to lowest index
  bool enable_phase_saving = true;
  /// Learned-clause minimization: drop literals implied by the rest of the
  /// clause (local / self-subsuming check over direct reasons).
  bool enable_clause_minimization = true;
  double var_decay = 0.95;
  double clause_decay = 0.999;
  int restart_base = 100;        // Luby unit, in conflicts
  std::size_t learned_capacity_start = 20000;
};

enum class SolveResult { kSat, kUnsat, kUnknown };

class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  /// Allocates a fresh variable and returns it.
  Var new_var();

  [[nodiscard]] int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause. Returns false if the formula became trivially UNSAT
  /// (empty clause after simplification against top-level assignments).
  bool add_clause(Clause lits);

  /// Convenience overloads.
  bool add_clause(Lit a) { return add_clause(Clause{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(Clause{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(Clause{a, b, c}); }

  /// Solves under the given assumptions within the budget.
  SolveResult solve(const std::vector<Lit>& assumptions = {},
                    const Budget& budget = {});

  /// After kSat: value of a variable in the model.
  [[nodiscard]] bool model_value(Var v) const;
  [[nodiscard]] bool model_value(Lit p) const {
    return model_value(p.var()) != p.sign();
  }

  [[nodiscard]] const SolverStats& stats() const { return stats_; }
  [[nodiscard]] bool is_trivially_unsat() const { return unsat_; }

  /// Streams every input clause, learned clause, deletion, and UNSAT
  /// conclusion to `listener` (see sat::ProofListener for the contract).
  /// Off by default; when null the hooks cost one pointer test per learned
  /// clause. Attach before the first add_clause call or the proof will be
  /// missing input clauses.
  void set_proof_listener(ProofListener* listener) { proof_ = listener; }
  [[nodiscard]] ProofListener* proof_listener() const { return proof_; }

  /// Approximate heap footprint of the clause database in bytes; the BMC
  /// memory column uses RSS, this is for diagnostics.
  [[nodiscard]] std::size_t clause_bytes() const;

  /// Total clauses in the database (problem + learned, including deleted
  /// slots awaiting compaction). The BMC per-frame telemetry samples this
  /// after each frame's solve.
  [[nodiscard]] std::size_t num_clauses() const { return clauses_.size(); }

 private:
  SolveResult solve_inner(const std::vector<Lit>& assumptions,
                          const Budget& budget);

  using CRef = std::uint32_t;
  static constexpr CRef kNullCRef = 0xFFFFFFFFu;

  struct InternalClause {
    std::vector<Lit> lits;
    double activity = 0.0;
    bool learnt = false;
    bool deleted = false;
  };

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  // -- assignment / trail ---------------------------------------------------
  [[nodiscard]] LBool value(Var v) const { return assigns_[v]; }
  [[nodiscard]] LBool value(Lit p) const { return assigns_[p.var()] ^ p.sign(); }
  void unchecked_enqueue(Lit p, CRef from);
  CRef propagate();
  void cancel_until(int level);
  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim_.size());
  }

  // -- learning -------------------------------------------------------------
  void analyze(CRef conflict, Clause& out_learnt, int& out_btlevel);
  bool literal_is_redundant(Lit p);
  CRef attach_clause(InternalClause&& clause);
  void detach_clause(CRef cref);
  void reduce_db();

  // -- heuristics -----------------------------------------------------------
  Lit pick_branch_lit();
  void var_bump_activity(Var v);
  void var_decay_activity();
  void claus_bump_activity(InternalClause& c);
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  [[nodiscard]] bool heap_empty() const { return heap_.empty(); }
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  static std::uint64_t luby(std::uint64_t i);

  SolverOptions options_;
  SolverStats stats_;
  ProofListener* proof_ = nullptr;
  bool unsat_ = false;

  std::vector<InternalClause> clauses_;
  std::vector<CRef> learnt_refs_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal index

  std::vector<LBool> assigns_;
  std::vector<std::uint8_t> polarity_;  // saved phase (1 = last was true)
  std::vector<int> level_;
  std::vector<CRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<int> heap_pos_;  // -1 if not in heap
  std::vector<Var> heap_;

  std::vector<std::uint8_t> seen_;  // analyze() scratch
  std::vector<Lit> minimize_scratch_;
  std::vector<bool> model_;
};

}  // namespace trojanscout::sat
