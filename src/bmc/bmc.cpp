#include "bmc/bmc.hpp"

#include <algorithm>

#include "cnf/unroller.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/logging.hpp"
#include "util/resource.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout::bmc {

std::string BmcResult::status_name() const {
  switch (status) {
    case BmcStatus::kViolated:
      return "violated";
    case BmcStatus::kBoundReached:
      return "bound-reached";
    case BmcStatus::kResourceOut:
      return "resource-out";
  }
  return "?";
}

BmcResult check_bad_signal(const netlist::Netlist& nl,
                           netlist::SignalId bad_signal,
                           const BmcOptions& options) {
  util::Stopwatch timer;
  const std::uint64_t rss_before = util::current_rss_bytes();

  sat::Solver solver(options.solver);
  // Attach before the Unroller exists: its constructor already emits the
  // constant-true clause, which must be part of the recorded formula.
  if (options.proof != nullptr) solver.set_proof_listener(options.proof);
  cnf::Unroller unroller(nl, solver, {bad_signal});

  BmcResult result;
  for (std::size_t t = 0; t < options.max_frames; ++t) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_acquire)) {
      result.status = BmcStatus::kResourceOut;
      result.cancelled = true;
      break;
    }
    const double remaining =
        options.time_limit_seconds - timer.elapsed_seconds();
    if (remaining <= 0 ||
        solver.clause_bytes() > options.memory_limit_bytes) {
      result.status = BmcStatus::kResourceOut;
      break;
    }

    // One span per frame; the unroll and solve children nest inside it, and
    // the frame's solver-stat deltas ride on it as args.
    telemetry::Span frame_span("bmc:frame");
    const sat::SolverStats stats_before = solver.stats();
    unroller.add_frame();
    const sat::Lit bad = unroller.lit_of(bad_signal, t);
    if (options.progress != nullptr) {
      options.progress->frames.store(t + 1, std::memory_order_relaxed);
    }

    sat::Budget budget;
    budget.time_limit_seconds = remaining;
    budget.cancel = options.cancel;
    budget.progress = options.progress;
    const sat::SolveResult sat_result = solver.solve({bad}, budget);
    result.frame_clauses.push_back(
        static_cast<std::uint32_t>(solver.num_clauses()));
    sat::add_frame_args(frame_span, t, stats_before, solver.stats());
    TS_COUNTER_ADD("bmc.frames", 1);

    if (sat_result == sat::SolveResult::kSat) {
      result.status = BmcStatus::kViolated;
      result.witness = unroller.extract_witness(t);
      result.frames_completed = t;
      break;
    }
    if (sat_result == sat::SolveResult::kUnknown) {
      result.status = BmcStatus::kResourceOut;
      result.cancelled = sat::budget_cancelled(budget);
      break;
    }
    // Proven unreachable at this frame: pin it down as a unit fact, which
    // strengthens propagation in later frames.
    solver.add_clause(~bad);
    result.frames_completed = t + 1;
    if (result.frames_completed == options.max_frames) {
      result.status = BmcStatus::kBoundReached;
    }
    TS_LOG_DEBUG("bmc: frame %zu clean (%.2fs elapsed)", t,
                 timer.elapsed_seconds());
  }

  result.seconds = timer.elapsed_seconds();
  // Engine working set: the clause database + watcher lists dominate BMC
  // memory and grow with the unroll depth (the paper's "BMC makes multiple
  // copies of the design"). RSS deltas are unreliable within one process
  // (allocator reuse), so the accounted size is reported, floored by the
  // observed RSS growth.
  const std::uint64_t rss_after = util::current_rss_bytes();
  const std::uint64_t rss_delta =
      rss_after > rss_before ? rss_after - rss_before : 0;
  result.memory_bytes = std::max(rss_delta, solver.clause_bytes());
  result.sat_stats = solver.stats();
  result.vars = unroller.vars_allocated();
  return result;
}

}  // namespace trojanscout::bmc
