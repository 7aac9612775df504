#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "telemetry/progress.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout::sat {

namespace {

/// Publishes the solver's cumulative totals into the live-progress cells.
/// One solver serves one obligation, so absolute stats are exactly the
/// obligation's SAT-side progress.
void publish_progress(telemetry::ObligationProgress* progress,
                      const SolverStats& stats) {
  if (progress == nullptr) return;
  progress->conflicts.store(stats.conflicts, std::memory_order_relaxed);
  progress->propagations.store(stats.propagations, std::memory_order_relaxed);
  progress->learned_clauses.store(stats.learned_clauses,
                                  std::memory_order_relaxed);
}

}  // namespace

Solver::Solver(SolverOptions options) : options_(options) {}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  polarity_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNullCRef);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::add_clause(Clause lits) {
  // The proof log records the clause exactly as given (pre-simplification):
  // that is the formula the caller believes it asked about, and the clause
  // the independent checker will re-derive from the same encoder.
  if (proof_ != nullptr) proof_->on_input(lits);
  if (unsat_) return false;
  assert(decision_level() == 0);

  // Simplify: sort, drop duplicates, detect tautologies, strip level-0
  // falsified literals, and return early on level-0 satisfied literals.
  std::sort(lits.begin(), lits.end());
  Clause out;
  Lit prev = undef_lit();
  for (const Lit p : lits) {
    if (p.var() >= num_vars()) {
      throw std::out_of_range("add_clause: literal references unknown var");
    }
    if (value(p) == LBool::kTrue || p == ~prev) return true;  // satisfied / taut
    if (value(p) != LBool::kFalse && p != prev) {
      out.push_back(p);
      prev = p;
    }
  }

  // A stripped literal was falsified by level-0 propagation, which the
  // checker reproduces, so the simplified clause is RUP with respect to the
  // clauses logged so far: record it as a derivation when it differs.
  if (proof_ != nullptr && out.size() != lits.size() && !out.empty()) {
    proof_->on_learn(out);
  }

  if (out.empty()) {
    unsat_ = true;
    return false;
  }
  if (out.size() == 1) {
    unchecked_enqueue(out[0], kNullCRef);
    if (propagate() != kNullCRef) {
      unsat_ = true;
      return false;
    }
    return true;
  }

  InternalClause clause;
  clause.lits = std::move(out);
  clause.learnt = false;
  attach_clause(std::move(clause));
  return true;
}

Solver::CRef Solver::attach_clause(InternalClause&& clause) {
  const CRef cref = static_cast<CRef>(clauses_.size());
  clauses_.push_back(std::move(clause));
  const auto& lits = clauses_[cref].lits;
  assert(lits.size() >= 2);
  watches_[(~lits[0]).index()].push_back(Watcher{cref, lits[1]});
  watches_[(~lits[1]).index()].push_back(Watcher{cref, lits[0]});
  return cref;
}

void Solver::detach_clause(CRef cref) {
  // Lazy detach: mark deleted; propagate() drops stale watchers as it walks.
  if (proof_ != nullptr) proof_->on_delete(clauses_[cref].lits);
  clauses_[cref].deleted = true;
  stats_.deleted_clauses++;
}

void Solver::unchecked_enqueue(Lit p, CRef from) {
  assert(value(p) == LBool::kUndef);
  assigns_[p.var()] = lbool_from(!p.sign());
  level_[p.var()] = decision_level();
  reason_[p.var()] = from;
  trail_.push_back(p);
}

Solver::CRef Solver::propagate() {
  CRef conflict = kNullCRef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    stats_.propagations++;
    auto& ws = watches_[p.index()];
    std::size_t i = 0;
    std::size_t j = 0;
    const std::size_t n = ws.size();
    while (i < n) {
      const Watcher w = ws[i++];
      if (clauses_[w.cref].deleted) continue;  // drop stale watcher
      if (value(w.blocker) == LBool::kTrue) {
        ws[j++] = w;
        continue;
      }
      InternalClause& c = clauses_[w.cref];
      auto& lits = c.lits;
      const Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_lit);

      const Lit first = lits[0];
      if (first != w.blocker && value(first) == LBool::kTrue) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }

      bool found_watch = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (value(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).index()].push_back(Watcher{w.cref, first});
          found_watch = true;
          break;
        }
      }
      if (found_watch) continue;

      // Clause is unit or conflicting; keep the watcher.
      ws[j++] = Watcher{w.cref, first};
      if (value(first) == LBool::kFalse) {
        conflict = w.cref;
        qhead_ = trail_.size();
        while (i < n) {
          const Watcher rest = ws[i++];
          if (!clauses_[rest.cref].deleted) ws[j++] = rest;
        }
        break;
      }
      unchecked_enqueue(first, w.cref);
    }
    ws.resize(j);
    if (conflict != kNullCRef) break;
  }
  return conflict;
}

void Solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t bound = static_cast<std::size_t>(trail_lim_[target_level]);
  for (std::size_t k = trail_.size(); k-- > bound;) {
    const Var v = trail_[k].var();
    if (options_.enable_phase_saving) {
      polarity_[v] = assigns_[v] == LBool::kTrue ? 1 : 0;
    }
    assigns_[v] = LBool::kUndef;
    reason_[v] = kNullCRef;
    if (heap_pos_[v] < 0) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

void Solver::analyze(CRef conflict, Clause& out_learnt, int& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(undef_lit());  // slot for the asserting literal

  int path_count = 0;
  Lit p = undef_lit();
  std::size_t index = trail_.size();
  CRef reason_cref = conflict;

  do {
    assert(reason_cref != kNullCRef);
    InternalClause& c = clauses_[reason_cref];
    if (c.learnt) claus_bump_activity(c);

    const std::size_t start = (p == undef_lit()) ? 0 : 1;
    for (std::size_t k = start; k < c.lits.size(); ++k) {
      const Lit q = c.lits[k];
      if (seen_[q.var()] == 0 && level_[q.var()] > 0) {
        seen_[q.var()] = 1;
        var_bump_activity(q.var());
        if (level_[q.var()] >= decision_level()) {
          path_count++;
        } else {
          out_learnt.push_back(q);
        }
      }
    }

    // Select next literal on the current decision level to resolve on.
    while (seen_[trail_[index - 1].var()] == 0) --index;
    --index;
    p = trail_[index];
    seen_[p.var()] = 0;
    path_count--;
    reason_cref = reason_[p.var()];
    // Only the first UIP (often the decision) may lack a reason, and the loop
    // terminates exactly there because path_count reaches zero.
    assert(path_count == 0 || reason_cref != kNullCRef);
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Minimization: a literal whose reason clause is entirely covered by the
  // learnt clause (or level-0 facts) is implied by the others and can be
  // dropped (local minimization a la MiniSat).
  if (options_.enable_clause_minimization && out_learnt.size() > 2) {
    // Snapshot before compaction: seen_ must be cleared for *every* original
    // literal, including ones the compaction overwrites.
    minimize_scratch_ = out_learnt;
    for (const Lit q : minimize_scratch_) seen_[q.var()] = 1;
    std::size_t kept = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i) {
      if (!literal_is_redundant(out_learnt[i])) {
        out_learnt[kept++] = out_learnt[i];
      } else {
        stats_.minimized_literals++;
      }
    }
    out_learnt.resize(kept);
    for (const Lit q : minimize_scratch_) seen_[q.var()] = 0;
  }

  // Compute backjump level = max level among lits[1..]; move it to slot 1.
  out_btlevel = 0;
  if (out_learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level_[out_learnt[i].var()] > level_[out_learnt[max_i].var()]) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[out_learnt[1].var()];
  }

  for (const Lit q : out_learnt) seen_[q.var()] = 0;
}

bool Solver::literal_is_redundant(Lit p) {
  const CRef reason_cref = reason_[p.var()];
  if (reason_cref == kNullCRef) return false;  // decision: required
  const InternalClause& c = clauses_[reason_cref];
  for (std::size_t k = 1; k < c.lits.size(); ++k) {
    const Lit q = c.lits[k];
    if (level_[q.var()] == 0) continue;      // implied fact
    if (seen_[q.var()] != 0) continue;        // already in the clause
    return false;
  }
  return true;
}

void Solver::reduce_db() {
  // Sort learnt refs by activity ascending and delete the weaker half,
  // keeping binary clauses and clauses locked as reasons.
  std::sort(learnt_refs_.begin(), learnt_refs_.end(),
            [this](CRef a, CRef b) {
              return clauses_[a].activity < clauses_[b].activity;
            });
  const std::size_t target = learnt_refs_.size() / 2;
  std::size_t removed = 0;
  std::vector<CRef> kept;
  kept.reserve(learnt_refs_.size());
  for (const CRef cref : learnt_refs_) {
    InternalClause& c = clauses_[cref];
    const bool locked =
        value(c.lits[0]) == LBool::kTrue && reason_[c.lits[0].var()] == cref;
    if (removed < target && !locked && c.lits.size() > 2 && !c.deleted) {
      detach_clause(cref);
      c.lits.clear();
      c.lits.shrink_to_fit();
      removed++;
    } else if (!c.deleted) {
      kept.push_back(cref);
    }
  }
  learnt_refs_ = std::move(kept);
}

Lit Solver::pick_branch_lit() {
  if (!options_.enable_vsids) {
    for (Var v = 0; v < num_vars(); ++v) {
      if (assigns_[v] == LBool::kUndef) {
        return Lit(v, polarity_[v] == 0);
      }
    }
    return undef_lit();
  }
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (assigns_[v] == LBool::kUndef) {
      return Lit(v, polarity_[v] == 0);
    }
  }
  return undef_lit();
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions,
                          const Budget& budget) {
  // Telemetry wrapper: solve_inner has many return paths, so the counter
  // deltas are taken once here around the whole call.
  const std::uint64_t conflicts_before = stats_.conflicts;
  const std::uint64_t decisions_before = stats_.decisions;
  const std::uint64_t propagations_before = stats_.propagations;
  telemetry::Span span("sat:solve");
  const SolveResult result = solve_inner(assumptions, budget);
  TS_COUNTER_ADD("sat.solves", 1);
  TS_COUNTER_ADD("sat.conflicts", stats_.conflicts - conflicts_before);
  TS_COUNTER_ADD("sat.decisions", stats_.decisions - decisions_before);
  TS_COUNTER_ADD("sat.propagations",
                 stats_.propagations - propagations_before);
  // Final publication so the cells agree with stats() once solve() returns
  // (the tests assert this consistency after the workers join).
  publish_progress(budget.progress, stats_);
  return result;
}

SolveResult Solver::solve_inner(const std::vector<Lit>& assumptions,
                                const Budget& budget) {
  // Every kUnsat return funnels through this so the proof log carries one
  // UNSAT mark per solve — the per-frame certificate boundary for BMC.
  const auto conclude_unsat = [&]() {
    if (proof_ != nullptr) proof_->on_solve_unsat(assumptions);
    return SolveResult::kUnsat;
  };
  if (unsat_) return conclude_unsat();
  cancel_until(0);
  if (propagate() != kNullCRef) {
    unsat_ = true;
    return conclude_unsat();
  }

  util::Stopwatch timer;
  std::size_t learned_capacity =
      options_.enable_learning ? options_.learned_capacity_start : 64;
  std::uint64_t restart_conflicts =
      luby(stats_.restarts + 1) * static_cast<std::uint64_t>(options_.restart_base);
  std::uint64_t conflicts_this_restart = 0;
  const std::uint64_t conflict_start = stats_.conflicts;
  const std::uint64_t propagation_start = stats_.propagations;

  Clause learnt;
  for (;;) {
    const CRef conflict = propagate();
    if (conflict != kNullCRef) {
      stats_.conflicts++;
      conflicts_this_restart++;
      if (decision_level() == 0) {
        cancel_until(0);
        return conclude_unsat();
      }
      int btlevel = 0;
      analyze(conflict, learnt, btlevel);
      cancel_until(btlevel);
      if (proof_ != nullptr) proof_->on_learn(learnt);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == LBool::kFalse) {
          cancel_until(0);
          return conclude_unsat();
        }
        if (value(learnt[0]) == LBool::kUndef) {
          unchecked_enqueue(learnt[0], kNullCRef);
        }
      } else {
        // The clause is attached even with learning disabled: it is needed as
        // the reason for the asserting literal. The "no learning" ablation is
        // realized by an aggressive retention capacity (see below).
        InternalClause c;
        c.lits = learnt;
        c.learnt = true;
        c.activity = clause_inc_;
        const CRef cref = attach_clause(std::move(c));
        learnt_refs_.push_back(cref);
        stats_.learned_clauses++;
        stats_.learned_literals += learnt.size();
        unchecked_enqueue(learnt[0], cref);
      }
      var_decay_activity();
      clause_inc_ /= options_.clause_decay;

      if ((stats_.conflicts & 0x3F) == 0) {
        publish_progress(budget.progress, stats_);
      }
      if (budget_cancelled(budget)) {
        cancel_until(0);
        return SolveResult::kUnknown;
      }
      if ((stats_.conflicts & 0xFF) == 0 &&
          timer.elapsed_seconds() > budget.time_limit_seconds) {
        cancel_until(0);
        return SolveResult::kUnknown;
      }
      if (stats_.conflicts - conflict_start >= budget.conflict_limit ||
          stats_.propagations - propagation_start >= budget.propagation_limit) {
        cancel_until(0);
        return SolveResult::kUnknown;
      }
      continue;
    }

    // No conflict: restart, reduce, or decide.
    if (conflicts_this_restart >= restart_conflicts) {
      stats_.restarts++;
      conflicts_this_restart = 0;
      restart_conflicts = luby(stats_.restarts + 1) *
                          static_cast<std::uint64_t>(options_.restart_base);
      cancel_until(0);
      continue;
    }
    if (learnt_refs_.size() >= learned_capacity) {
      reduce_db();
      if (options_.enable_learning) {
        learned_capacity = learned_capacity + learned_capacity / 2;
      }
    }

    Lit next = undef_lit();
    while (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
      const Lit p = assumptions[decision_level()];
      if (value(p) == LBool::kTrue) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
      } else if (value(p) == LBool::kFalse) {
        cancel_until(0);
        return conclude_unsat();
      } else {
        next = p;
        break;
      }
    }
    if (next == undef_lit()) {
      next = pick_branch_lit();
      if (next == undef_lit()) {
        // All variables assigned: SAT. Save the model.
        model_.assign(num_vars(), false);
        for (Var v = 0; v < num_vars(); ++v) {
          model_[v] = assigns_[v] == LBool::kTrue;
        }
        cancel_until(0);
        return SolveResult::kSat;
      }
      stats_.decisions++;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    unchecked_enqueue(next, kNullCRef);
  }
}

bool Solver::model_value(Var v) const {
  return static_cast<std::size_t>(v) < model_.size() && model_[v];
}

std::size_t Solver::clause_bytes() const {
  std::size_t bytes = clauses_.capacity() * sizeof(InternalClause);
  for (const auto& c : clauses_) bytes += c.lits.capacity() * sizeof(Lit);
  for (const auto& w : watches_) bytes += w.capacity() * sizeof(Watcher);
  return bytes;
}

void Solver::var_bump_activity(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) heap_update(v);
}

void Solver::var_decay_activity() { var_inc_ /= options_.var_decay; }

void Solver::claus_bump_activity(InternalClause& c) {
  c.activity += clause_inc_;
  if (c.activity > 1e20) {
    for (const CRef cref : learnt_refs_) clauses_[cref].activity *= 1e-20;
    clause_inc_ *= 1e-20;
  }
}

// ---- activity heap (binary max-heap) ---------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_pos_[v]);
}

void Solver::heap_update(Var v) { heap_sift_up(heap_pos_[v]); }

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_sift_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Find the finite subsequence that contains index i and its position.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    seq++;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    seq--;
    i = i % size;
  }
  return 1ull << seq;
}

void add_frame_args(telemetry::Span& span, std::uint64_t frame,
                    const SolverStats& before, const SolverStats& after) {
  span.arg("frame", frame);
  span.arg("decisions", after.decisions - before.decisions);
  span.arg("propagations", after.propagations - before.propagations);
  span.arg("conflicts", after.conflicts - before.conflicts);
  span.arg("restarts", after.restarts - before.restarts);
}

}  // namespace trojanscout::sat
