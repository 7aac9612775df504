#include "atpg/atpg.hpp"

#include <algorithm>

#include "netlist/coi.hpp"
#include "netlist/scoap.hpp"
#include "sim/eval.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/logging.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout::atpg {

using netlist::Gate;
using netlist::kNullSignal;
using netlist::Netlist;
using netlist::Op;
using netlist::Scoap;
using netlist::SignalId;
using sim::Ternary;

namespace {

/// A justification objective: drive `signal` at `frame` to `value`.
struct Objective {
  SignalId signal;
  std::size_t frame;
  bool value;
};

class Engine {
 public:
  Engine(const Netlist& nl, SignalId bad, const AtpgOptions& options)
      : nl_(nl),
        bad_(bad),
        options_(options),
        topo_(nl.topo_order()),
        scoap_(options.use_scoap_guidance ? netlist::compute_scoap(nl)
                                          : Scoap{}) {
    // Cone-of-influence reduction: only gates that can affect the bad
    // signal are simulated and searched. The cone's inputs and DFFs are
    // kept apart from its gates: each frame writes them, then evaluates
    // the gates.
    const std::vector<bool> cone = netlist::sequential_coi(nl, {bad});
    std::vector<SignalId> filtered;
    filtered.reserve(topo_.size());
    for (const SignalId id : topo_) {
      if (!cone[id]) continue;
      if (nl.gate(id).op == Op::kDff) {
        cone_dffs_.push_back(id);
      } else if (nl.gate(id).op != Op::kInput) {
        filtered.push_back(id);
      }
    }
    topo_ = std::move(filtered);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      if (cone[nl.inputs()[i]]) cone_inputs_.push_back(i);
    }
    if (!options.use_scoap_guidance) {
      scoap_.cc0.assign(nl.size(), 1);
      scoap_.cc1.assign(nl.size(), 1);
    }
    rng_ = util::Xoshiro256(options.seed);
  }

  AtpgResult run() {
    util::Stopwatch timer;
    const std::uint64_t rss_before = util::current_rss_bytes();
    AtpgResult result;

    {
      // The random phase's implications ride on its span as args, so the
      // spans' args sum to the run's counters.
      telemetry::Span random_span("atpg:random-sim");
      const bool found = random_phase(timer, result);
      random_span.arg("decisions", decisions_);
      random_span.arg("backtracks", backtracks_);
      random_span.arg("implications", implications_);
      if (found) {
        result.seconds = timer.elapsed_seconds();
        const std::uint64_t rss_now = util::current_rss_bytes();
        result.memory_bytes =
            rss_now > rss_before ? rss_now - rss_before : nl_.size();
        finish_counters(result);
        return result;
      }
    }

    for (std::size_t target = options_.start_frame;
         target < options_.max_frames; ++target) {
      if (cancel_requested()) {
        result.status = AtpgStatus::kResourceOut;
        result.cancelled = true;
        break;
      }
      if (timer.elapsed_seconds() > options_.time_limit_seconds ||
          (target + 1) * (nl_.size() + nl_.num_inputs()) *
                  sizeof(Ternary) * 2 >
              options_.memory_limit_bytes) {
        result.status = AtpgStatus::kResourceOut;
        break;
      }
      ensure_frames(target + 1);
      if (options_.progress != nullptr) {
        options_.progress->frames.store(target + 1,
                                        std::memory_order_relaxed);
      }
      // The frame's search-counter deltas ride on its span as args.
      telemetry::Span frame_span("atpg:frame");
      const std::uint64_t decisions_before = decisions_;
      const std::uint64_t backtracks_before = backtracks_;
      const std::uint64_t implications_before = implications_;
      const FrameSearch outcome = search_frame(target, timer);
      frame_span.arg("frame", target);
      frame_span.arg("decisions", decisions_ - decisions_before);
      frame_span.arg("backtracks", backtracks_ - backtracks_before);
      frame_span.arg("implications", implications_ - implications_before);
      TS_COUNTER_ADD("atpg.frames", 1);
      if (outcome == FrameSearch::kFound) {
        result.status = AtpgStatus::kViolated;
        result.witness = extract_witness(target);
        result.frames_completed = target;
        break;
      }
      if (outcome == FrameSearch::kTimeout) {
        result.status = AtpgStatus::kResourceOut;
        result.cancelled = cancel_requested();
        break;
      }
      if (outcome == FrameSearch::kClean) {
        result.frames_proven_clean++;
      } else {
        result.frames_aborted++;
      }
      result.frames_completed = target + 1;
      if (result.frames_completed == options_.max_frames) {
        result.status = AtpgStatus::kBoundReached;
      }
    }

    result.seconds = timer.elapsed_seconds();
    // Engine working set: one ternary value array and one PI assignment
    // array per materialized frame — no CNF copies, no learned clauses.
    // This is what reproduces the paper's ~10x memory advantage over BMC.
    std::uint64_t accounted = 0;
    for (const auto& frame : values_) accounted += frame.capacity();
    for (const auto& frame : pi_assign_) accounted += frame.capacity();
    const std::uint64_t rss_after = util::current_rss_bytes();
    const std::uint64_t rss_delta =
        rss_after > rss_before ? rss_after - rss_before : 0;
    (void)rss_delta;
    result.memory_bytes = accounted * sizeof(Ternary);
    finish_counters(result);
    return result;
  }

 private:
  enum class FrameSearch { kFound, kClean, kAborted, kTimeout };

  /// Copies the engine tallies into the result and publishes the run's
  /// deltas to the global telemetry registry.
  void finish_counters(AtpgResult& result) const {
    result.decisions = decisions_;
    result.backtracks = backtracks_;
    result.implications = implications_;
    TS_COUNTER_ADD("atpg.runs", 1);
    TS_COUNTER_ADD("atpg.decisions", decisions_);
    TS_COUNTER_ADD("atpg.backtracks", backtracks_);
    TS_COUNTER_ADD("atpg.implications", implications_);
    // Final publication so the cells agree with the result totals once the
    // run returns.
    if (options_.progress != nullptr) {
      options_.progress->backtracks.store(backtracks_,
                                          std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool cancel_requested() const {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_acquire);
  }

  /// Random-pattern phase: simulates random input sequences watching the
  /// bad signal. On a hit, fills the result (violated + witness) and
  /// returns true. Spends at most ~20% of the time budget.
  bool random_phase(const util::Stopwatch& timer, AtpgResult& result) {
    // Functional stimulus hints first, then weighted random sequences.
    const std::size_t total = options_.stimulus_sequences.size() +
                              options_.random_sequences;
    if (total == 0) return false;
    const std::size_t n_inputs = nl_.num_inputs();
    for (std::size_t s = 0; s < total; ++s) {
      if (timer.elapsed_seconds() > options_.time_limit_seconds * 0.2) break;
      ensure_frames(1);
      const std::vector<util::BitVec>* scripted =
          s < options_.stimulus_sequences.size()
              ? &options_.stimulus_sequences[s]
              : nullptr;
      // Reuse frame 0 storage as rolling state; keep the input history so a
      // hit can be converted into a witness.
      std::vector<std::vector<bool>> history;
      auto& vals = values_[0];
      std::vector<Ternary> regs(cone_dffs_.size());
      for (std::size_t i = 0; i < cone_dffs_.size(); ++i) {
        regs[i] = sim::t_from_bool(nl_.gate(cone_dffs_[i]).init);
      }
      // Weighted random patterns (industry standard): each input gets a
      // per-sequence bias so rare-but-necessary polarities (e.g. an
      // inactive reset) hold for long stretches.
      std::vector<std::uint8_t> bias(n_inputs);
      for (auto& b : bias) {
        const std::uint64_t r = rng_.next_below(4);
        b = r == 0 ? 1 : r == 1 ? 15 : 8;  // P(one) = 1/16, 15/16, or 1/2
      }
      const std::size_t run_frames =
          scripted ? std::min(options_.max_frames, scripted->size())
                   : options_.max_frames;
      for (std::size_t f = 0; f < run_frames; ++f) {
        if ((f & 0x3FF) == 0 &&
            (cancel_requested() ||
             timer.elapsed_seconds() > options_.time_limit_seconds * 0.2)) {
          break;
        }
        history.emplace_back(n_inputs);
        auto& frame_inputs = history.back();
        for (std::size_t i = 0; i < n_inputs; ++i) {
          frame_inputs[i] = scripted ? (i < (*scripted)[f].size() &&
                                        (*scripted)[f].get(i))
                                     : (rng_.next_below(16) < bias[i]);
        }
        // One combinational evaluation with concrete state and inputs.
        for (const std::size_t i : cone_inputs_) {
          vals[nl_.inputs()[i]] = sim::t_from_bool(frame_inputs[i]);
        }
        for (std::size_t i = 0; i < cone_dffs_.size(); ++i) {
          vals[cone_dffs_[i]] = regs[i];
        }
        sim::eval_comb(nl_, topo_, vals.data());
        implications_++;
        if (vals[bad_] == Ternary::kOne && f >= options_.start_frame) {
          result.status = AtpgStatus::kViolated;
          sim::Witness witness;
          witness.violation_frame = f;
          for (std::size_t k = 0; k <= f; ++k) {
            sim::InputFrame in_frame;
            in_frame.bits = util::BitVec(n_inputs);
            for (std::size_t i = 0; i < n_inputs; ++i) {
              in_frame.bits.set(i, history[k][i]);
            }
            witness.frames.push_back(std::move(in_frame));
          }
          result.witness = std::move(witness);
          result.frames_completed = f;
          TS_LOG_DEBUG("atpg: random phase hit at frame %zu (seq %zu)", f, s);
          return true;
        }
        for (std::size_t i = 0; i < cone_dffs_.size(); ++i) {
          regs[i] = vals[nl_.gate(cone_dffs_[i]).fanin[0]];
        }
      }
    }
    return false;
  }

  struct Decision {
    std::size_t frame;
    SignalId pi;
    bool value;
    bool flipped;
  };

  void ensure_frames(std::size_t count) {
    while (values_.size() < count) {
      values_.emplace_back(nl_.size(), Ternary::kX);
      pi_assign_.emplace_back(nl_.num_inputs(), Ternary::kX);
    }
  }

  /// Re-simulates frames [from, upto] with current PI assignments.
  void simulate(std::size_t from, std::size_t upto) {
    for (std::size_t f = from; f <= upto; ++f) {
      implications_++;
      auto& vals = values_[f];
      for (const std::size_t i : cone_inputs_) {
        vals[nl_.inputs()[i]] = pi_assign_[f][i];
      }
      for (const SignalId dff : cone_dffs_) {
        const Gate& g = nl_.gate(dff);
        vals[dff] = f == 0 ? sim::t_from_bool(g.init)
                           : values_[f - 1][g.fanin[0]];
      }
      sim::eval_comb(nl_, topo_, vals.data());
    }
  }

  [[nodiscard]] std::uint32_t cost(SignalId s, bool v) const {
    return v ? scoap_.cc1[s] : scoap_.cc0[s];
  }

  /// During randomized restart attempts, tie-breaking decisions in the
  /// backtrace are made randomly to diversify the search (the structural
  /// analogue of SAT restart + phase randomization).
  [[nodiscard]] bool coin() const { return rng_.next_bool(); }

  /// PODEM backtrace: walk from (signal, frame, desired) through X-valued
  /// gates toward an unassigned primary input. Returns nullopt when no
  /// X-path exists (the objective cannot be influenced: backtrack).
  std::optional<Objective> backtrace(SignalId signal, std::size_t frame,
                                     bool desired) const {
    const bool randomized = randomized_attempt_;
    for (;;) {
      const Gate& g = nl_.gate(signal);
      const auto& vals = values_[frame];
      switch (g.op) {
        case Op::kConst0:
        case Op::kConst1:
          return std::nullopt;
        case Op::kInput: {
          if (pi_assign_[frame][nl_.input_index(signal)] != Ternary::kX) {
            return std::nullopt;  // already assigned (to the wrong value)
          }
          return Objective{signal, frame, desired};
        }
        case Op::kDff: {
          if (frame == 0) return std::nullopt;  // reset value is fixed
          signal = g.fanin[0];
          --frame;
          continue;
        }
        case Op::kBuf:
          signal = g.fanin[0];
          continue;
        case Op::kNot:
          signal = g.fanin[0];
          desired = !desired;
          continue;
        case Op::kNand:
          desired = !desired;
          [[fallthrough]];
        case Op::kAnd: {
          if (!pick_binary(g, vals, desired, /*and_gate=*/true, randomized,
                           signal, desired)) {
            return std::nullopt;
          }
          continue;
        }
        case Op::kNor:
          desired = !desired;
          [[fallthrough]];
        case Op::kOr: {
          if (!pick_binary(g, vals, desired, /*and_gate=*/false, randomized,
                           signal, desired)) {
            return std::nullopt;
          }
          continue;
        }
        case Op::kXnor:
          desired = !desired;
          [[fallthrough]];
        case Op::kXor: {
          const SignalId a = g.fanin[0];
          const SignalId b = g.fanin[1];
          const Ternary va = vals[a];
          const Ternary vb = vals[b];
          if (va == Ternary::kX && vb == Ternary::kX) {
            // Pick the cheaper of the two consistent assignments for a.
            const std::uint32_t c_a0 = cost(a, false) + cost(b, desired);
            const std::uint32_t c_a1 = cost(a, true) + cost(b, !desired);
            desired = randomized ? coin() : (c_a1 < c_a0);
            signal = a;
          } else if (va == Ternary::kX) {
            desired = desired != (vb == Ternary::kOne);
            signal = a;
          } else if (vb == Ternary::kX) {
            desired = desired != (va == Ternary::kOne);
            signal = b;
          } else {
            return std::nullopt;
          }
          continue;
        }
        case Op::kMux: {
          const SignalId sel = g.fanin[0];
          const SignalId t = g.fanin[1];
          const SignalId f = g.fanin[2];
          if (vals[sel] == Ternary::kOne) {
            signal = t;
            continue;
          }
          if (vals[sel] == Ternary::kZero) {
            signal = f;
            continue;
          }
          // Select is X. If one branch already carries the desired value,
          // steer the select toward it. If one branch is known and *wrong*,
          // the select must be steered away from it before anything else —
          // otherwise the search justifies data down a branch the select
          // will never take (the classic PODEM mux rule; without it the
          // engine drowns in reset-branch decisions).
          const Ternary want = sim::t_from_bool(desired);
          if (vals[t] == want) {
            signal = sel;
            desired = true;
            continue;
          }
          if (vals[f] == want) {
            signal = sel;
            desired = false;
            continue;
          }
          if (vals[t] != Ternary::kX) {  // t known-wrong: need sel = 0
            signal = sel;
            desired = false;
            continue;
          }
          if (vals[f] != Ternary::kX) {  // f known-wrong: need sel = 1
            signal = sel;
            desired = true;
            continue;
          }
          // Both branches X: walk the cheaper data side.
          const std::uint32_t via_t = cost(sel, true) + cost(t, desired);
          const std::uint32_t via_f = cost(sel, false) + cost(f, desired);
          const bool prefer_t = randomized ? coin() : via_t <= via_f;
          signal = prefer_t ? t : f;
          continue;
        }
      }
    }
  }

  /// Chooses the next fanin for an AND/OR-style gate during backtrace.
  /// `all_inputs_needed` is true when every input must carry `desired`
  /// (AND wanting 1, OR wanting 0): pick the *hardest* X input to fail fast.
  /// Otherwise one controlling input suffices: pick the *easiest* X input.
  bool pick_binary(const Gate& g, const std::vector<Ternary>& vals,
                   bool desired, bool and_gate, bool randomized,
                   SignalId& out_signal, bool& out_desired) const {
    const bool all_inputs_needed = (and_gate && desired) || (!and_gate && !desired);
    SignalId best = kNullSignal;
    std::uint32_t best_cost = 0;
    int candidates = 0;
    for (int k = 0; k < 2; ++k) {
      const SignalId s = g.fanin[k];
      if (vals[s] != Ternary::kX) continue;
      ++candidates;
      const std::uint32_t c = cost(s, desired);
      if (best == kNullSignal ||
          (randomized ? coin()
                      : (all_inputs_needed ? c > best_cost : c < best_cost))) {
        best = s;
        best_cost = c;
      }
    }
    (void)candidates;
    if (best == kNullSignal) return false;
    out_signal = best;
    out_desired = desired;
    return true;
  }

  FrameSearch search_frame(std::size_t target, const util::Stopwatch& timer) {
    // Attempt 0 runs the deterministic SCOAP-guided search to completion or
    // its backtrack share; only it can prove a frame clean (exhaustion).
    // Later attempts restart with randomized backtrace tie-breaking, the
    // structural analogue of SAT restarts, which rescues searches that
    // committed to a bad prefix.
    const std::uint64_t limit = options_.backtrack_limit_per_frame;
    const std::uint64_t budgets[4] = {limit / 2, limit / 4, limit / 8,
                                      limit / 8};
    for (int attempt = 0; attempt < 4; ++attempt) {
      randomized_attempt_ = attempt > 0;
      const FrameSearch result = search_attempt(
          target, timer, std::max<std::uint64_t>(budgets[attempt], 1));
      if (result != FrameSearch::kAborted) {
        // Exhaustion is exhaustion regardless of tie-breaking order: any
        // attempt that empties its decision stack has covered the space.
        return result;
      }
    }
    return FrameSearch::kAborted;
  }

  FrameSearch search_attempt(std::size_t target, const util::Stopwatch& timer,
                             std::uint64_t backtrack_budget) {
    // Fresh search for each attempt.
    stack_.clear();
    for (std::size_t f = 0; f <= target; ++f) {
      std::fill(pi_assign_[f].begin(), pi_assign_[f].end(), Ternary::kX);
    }
    simulate(0, target);

    std::uint64_t backtracks_here = 0;
    for (;;) {
      const Ternary bad = values_[target][bad_];
      if (bad == Ternary::kOne) return FrameSearch::kFound;

      bool need_backtrack = (bad == Ternary::kZero);
      if (!need_backtrack) {
        const auto objective = backtrace(bad_, target, true);
        if (!objective) {
          need_backtrack = true;  // no X-path: bad can never become 1 here
        } else {
          decisions_++;
          TS_LOG_DEBUG("decide %s@%zu=%d (stack %zu)",
                       nl_.name_of(objective->signal).c_str(),
                       objective->frame, objective->value ? 1 : 0,
                       stack_.size());
          if (cancel_requested()) return FrameSearch::kTimeout;
          if ((decisions_ & 0x3F) == 0 &&
              timer.elapsed_seconds() > options_.time_limit_seconds) {
            return FrameSearch::kTimeout;
          }
          pi_assign_[objective->frame][nl_.input_index(objective->signal)] =
              sim::t_from_bool(objective->value);
          stack_.push_back(
              Decision{objective->frame, objective->signal, objective->value,
                       false});
          simulate(objective->frame, target);
          continue;
        }
      }

      // Backtrack: flip the deepest unflipped decision.
      TS_LOG_DEBUG("backtrack (bad=%c stack %zu)",
                   sim::t_char(values_[target][bad_]), stack_.size());
      backtracks_++;
      backtracks_here++;
      // Coarse live-progress publication; the watchdog only needs the key
      // to keep moving while the search is productive.
      if (options_.progress != nullptr && (backtracks_ & 0x3F) == 0) {
        options_.progress->backtracks.store(backtracks_,
                                            std::memory_order_relaxed);
      }
      if (backtracks_here > backtrack_budget) {
        return FrameSearch::kAborted;
      }
      std::size_t lowest_frame = target;
      while (!stack_.empty() && stack_.back().flipped) {
        const Decision& d = stack_.back();
        lowest_frame = std::min(lowest_frame, d.frame);
        pi_assign_[d.frame][nl_.input_index(d.pi)] = Ternary::kX;
        stack_.pop_back();
      }
      if (stack_.empty()) {
        simulate(0, target);  // restore the all-X baseline for reuse
        return FrameSearch::kClean;
      }
      Decision& d = stack_.back();
      d.value = !d.value;
      d.flipped = true;
      pi_assign_[d.frame][nl_.input_index(d.pi)] = sim::t_from_bool(d.value);
      lowest_frame = std::min(lowest_frame, d.frame);
      simulate(lowest_frame, target);
    }
  }

  sim::Witness extract_witness(std::size_t target) const {
    sim::Witness witness;
    witness.violation_frame = target;
    for (std::size_t f = 0; f <= target; ++f) {
      sim::InputFrame frame;
      frame.bits = util::BitVec(nl_.num_inputs());
      for (std::size_t i = 0; i < nl_.num_inputs(); ++i) {
        // X inputs are irrelevant to the violation; fix them to 0.
        frame.bits.set(i, pi_assign_[f][i] == Ternary::kOne);
      }
      witness.frames.push_back(std::move(frame));
    }
    return witness;
  }

  const Netlist& nl_;
  SignalId bad_;
  AtpgOptions options_;
  std::vector<SignalId> topo_;          // cone gates, sources excluded
  std::vector<SignalId> cone_dffs_;
  std::vector<std::size_t> cone_inputs_;  // input ordinals
  Scoap scoap_;
  std::vector<std::vector<Ternary>> values_;      // [frame][signal]
  std::vector<std::vector<Ternary>> pi_assign_;   // [frame][input ordinal]
  std::vector<Decision> stack_;
  mutable util::Xoshiro256 rng_{0xa7b6c5d4e3f21ull};  // reseeded in ctor
  bool randomized_attempt_ = false;
  std::uint64_t decisions_ = 0;
  std::uint64_t backtracks_ = 0;
  std::uint64_t implications_ = 0;
};

}  // namespace

std::string AtpgResult::status_name() const {
  switch (status) {
    case AtpgStatus::kViolated:
      return "violated";
    case AtpgStatus::kBoundReached:
      return "bound-reached";
    case AtpgStatus::kResourceOut:
      return "resource-out";
  }
  return "?";
}

AtpgResult check_bad_signal(const netlist::Netlist& nl,
                            netlist::SignalId bad_signal,
                            const AtpgOptions& options) {
  Engine engine(nl, bad_signal, options);
  return engine.run();
}

}  // namespace trojanscout::atpg
