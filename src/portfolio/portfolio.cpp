#include "portfolio/portfolio.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "pdr/pdr.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout::portfolio {

using core::CheckResult;
using core::EngineKind;
using core::EngineOptions;

CheckResult run_single(const netlist::Netlist& nl, netlist::SignalId bad,
                       const EngineOptions& options, EngineKind backend) {
  CheckResult result;
  result.engine_used = backend;
  switch (backend) {
    case EngineKind::kBmc: {
      telemetry::Span span("engine:bmc");
      bmc::BmcOptions bo;
      bo.max_frames = options.max_frames;
      bo.time_limit_seconds = options.time_limit_seconds;
      bo.solver = options.solver;
      bo.cancel = options.cancel;
      bo.proof = options.proof;
      bo.progress = options.progress;
      bmc::BmcResult r = bmc::check_bad_signal(nl, bad, bo);
      result.violated = r.violated();
      result.bound_reached = r.status == bmc::BmcStatus::kBoundReached;
      result.witness = std::move(r.witness);
      result.frames_completed = r.frames_completed;
      result.seconds = r.seconds;
      result.memory_bytes = r.memory_bytes;
      result.cancelled = r.cancelled;
      result.status = r.cancelled ? "cancelled" : r.status_name();
      result.counters.sat = r.sat_stats;
      result.counters.cnf_vars = r.vars;
      result.counters.frame_clauses = std::move(r.frame_clauses);
      break;
    }
    case EngineKind::kAtpg: {
      telemetry::Span span("engine:atpg");
      atpg::AtpgOptions ao;
      ao.max_frames = options.max_frames;
      ao.time_limit_seconds = options.time_limit_seconds;
      ao.backtrack_limit_per_frame = options.atpg_backtrack_limit;
      ao.use_scoap_guidance = options.atpg_use_scoap;
      ao.stimulus_sequences = options.atpg_stimulus;
      ao.random_sequences = options.atpg_random_sequences;
      ao.cancel = options.cancel;
      ao.progress = options.progress;
      atpg::AtpgResult r = atpg::check_bad_signal(nl, bad, ao);
      result.violated = r.violated();
      result.bound_reached = r.status == atpg::AtpgStatus::kBoundReached;
      result.witness = std::move(r.witness);
      result.frames_completed = r.frames_completed;
      result.seconds = r.seconds;
      result.memory_bytes = r.memory_bytes;
      result.cancelled = r.cancelled;
      result.status = r.cancelled ? "cancelled" : r.status_name();
      result.counters.atpg_decisions = r.decisions;
      result.counters.atpg_backtracks = r.backtracks;
      result.counters.atpg_implications = r.implications;
      result.counters.atpg_frames_proven_clean = r.frames_proven_clean;
      result.counters.atpg_frames_aborted = r.frames_aborted;
      break;
    }
    case EngineKind::kPdr: {
      telemetry::Span span("engine:pdr");
      pdr::PdrOptions po;
      po.max_frames = options.max_frames;
      po.time_limit_seconds = options.time_limit_seconds;
      po.solver = options.solver;
      po.generalize = options.pdr_generalize;
      po.cancel = options.cancel;
      po.progress = options.progress;
      pdr::PdrResult r = pdr::check_bad_signal(nl, bad, po);
      result.violated = r.violated();
      result.proven_unbounded = r.status == pdr::PdrStatus::kProven;
      result.bound_reached =
          result.proven_unbounded || r.status == pdr::PdrStatus::kBoundReached;
      result.witness = std::move(r.witness);
      result.invariant = std::move(r.invariant);
      result.frames_completed = r.frames_completed;
      result.seconds = r.seconds;
      result.memory_bytes = r.memory_bytes;
      result.cancelled = r.cancelled;
      result.status = r.cancelled ? "cancelled" : r.status_name();
      result.counters.sat = r.sat_stats;
      result.counters.cnf_vars = r.vars;
      result.counters.pdr_frames = r.counters.frames;
      result.counters.pdr_pushed_clauses = r.counters.pushed_clauses;
      result.counters.pdr_ctis = r.counters.ctis;
      result.counters.pdr_obligations = r.counters.obligations;
      break;
    }
    case EngineKind::kPortfolio:
      // The caller dispatches kPortfolio to race(); reaching here is a bug,
      // but fail soft with a resource-out result rather than aborting.
      result.status = "resource-out";
      break;
  }
  return result;
}

namespace {

/// Verdict strength for the deterministic selection: a violation beats an
/// unbounded proof beats a full-bound clean beats everything else, and a
/// cancelled leg never outranks real work of the same strength.
int verdict_score(const CheckResult& r) {
  int strength = 0;
  if (r.violated) {
    strength = 3;
  } else if (r.proven_unbounded) {
    strength = 2;
  } else if (r.bound_reached) {
    strength = 1;
  }
  return strength * 2 + (r.cancelled ? 0 : 1);
}

}  // namespace

CheckResult race(const netlist::Netlist& nl, netlist::SignalId bad,
                 const EngineOptions& options) {
  telemetry::Span span("engine:portfolio");
  util::Stopwatch race_timer;
  // Materialize the netlist's lazy caches before sharing it across the
  // legs (copies do not carry the fanout cache; building it up front keeps
  // the const netlist genuinely read-only during the race).
  nl.fanouts();
  nl.topo_order();

  constexpr std::array<EngineKind, 3> kLegs = {
      EngineKind::kBmc, EngineKind::kAtpg, EngineKind::kPdr};

  struct Leg {
    std::atomic<bool> cancel{false};
    CheckResult result;
  };
  std::array<Leg, 3> legs;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t finished = 0;

  // Knowledge-based cancellation (called with the race lock held): stop an
  // opponent only when its best possible remaining outcome cannot change
  // the deterministic selection. See portfolio.hpp for the argument.
  const auto apply_knowledge = [&](std::size_t i) {
    const CheckResult& r = legs[i].result;
    if (r.cancelled) return;
    if (r.proven_unbounded) {
      for (std::size_t j = 0; j < legs.size(); ++j) {
        if (j != i) legs[j].cancel.store(true, std::memory_order_release);
      }
      return;
    }
    if (r.violated) {
      for (std::size_t j = i + 1; j < legs.size(); ++j) {
        legs[j].cancel.store(true, std::memory_order_release);
      }
      return;
    }
    if (r.bound_reached) {
      for (std::size_t j = i + 1; j < legs.size(); ++j) {
        if (kLegs[j] != EngineKind::kPdr) {
          legs[j].cancel.store(true, std::memory_order_release);
        }
      }
    }
  };

  const auto worker = [&](std::size_t i) {
    EngineOptions leg_options = options;
    leg_options.kind = kLegs[i];
    leg_options.cancel = &legs[i].cancel;
    // Clause proofs are only meaningful on the BMC leg, and only when it
    // wins (a cancelled leg leaves a truncated stream the caller ignores).
    leg_options.proof =
        kLegs[i] == EngineKind::kBmc ? options.proof : nullptr;
    CheckResult r = run_single(nl, bad, leg_options, kLegs[i]);
    {
      std::lock_guard<std::mutex> lock(mutex);
      legs[i].result = std::move(r);
      ++finished;
      apply_knowledge(i);
    }
    cv.notify_all();
  };

  // A caller cancel raised before the race starts must not let a fast leg
  // sneak a verdict in during the coordinator's first poll interval.
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_acquire)) {
    for (Leg& leg : legs) leg.cancel.store(true, std::memory_order_release);
  }

  std::array<std::thread, 3> threads = {
      std::thread(worker, 0), std::thread(worker, 1), std::thread(worker, 2)};
  {
    std::unique_lock<std::mutex> lock(mutex);
    while (finished < legs.size()) {
      cv.wait_for(lock, std::chrono::milliseconds(5));
      // Propagate the caller's fail-fast cancellation into every leg.
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_acquire)) {
        for (Leg& leg : legs) {
          leg.cancel.store(true, std::memory_order_release);
        }
      }
    }
  }
  for (std::thread& t : threads) t.join();

  std::size_t winner = 0;
  int best = -1;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const int score = verdict_score(legs[i].result);
    if (score > best) {  // strict: ties keep the lower (higher-priority) leg
      best = score;
      winner = i;
    }
  }

  const double race_seconds = race_timer.elapsed_seconds();
  auto& registry = telemetry::Registry::global();
  if (registry.enabled()) {
    registry.add(registry.counter(
        std::string("portfolio.win.") + core::engine_flag_name(kLegs[winner])));
    for (std::size_t i = 0; i < legs.size(); ++i) {
      if (legs[i].result.cancelled) {
        registry.add(registry.counter(std::string("portfolio.cancelled.") +
                                      core::engine_flag_name(kLegs[i])));
      }
    }
    registry.record_seconds(registry.histogram("portfolio.race_seconds"),
                            race_seconds);
  }

  CheckResult result = std::move(legs[winner].result);
  result.engine_used = kLegs[winner];
  result.portfolio.reserve(legs.size());
  for (std::size_t i = 0; i < legs.size(); ++i) {
    core::PortfolioOutcome outcome;
    outcome.engine = kLegs[i];
    outcome.won = i == winner;
    if (i == winner) {
      outcome.status = result.status;
      outcome.violated = result.violated;
      outcome.proven_unbounded = result.proven_unbounded;
      outcome.cancelled = result.cancelled;
      outcome.seconds = result.seconds;
    } else {
      outcome.status = legs[i].result.status;
      outcome.violated = legs[i].result.violated;
      outcome.proven_unbounded = legs[i].result.proven_unbounded;
      outcome.cancelled = legs[i].result.cancelled;
      outcome.seconds = legs[i].result.seconds;
    }
    result.portfolio.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace trojanscout::portfolio
