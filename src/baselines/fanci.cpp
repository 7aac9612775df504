#include "baselines/fanci.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "sim/eval.hpp"
#include "util/rng.hpp"

namespace trojanscout::baselines {

using netlist::Gate;
using netlist::Netlist;
using netlist::Op;
using netlist::SignalId;

namespace {

/// Truncated fan-in cone: `boundary` are treated as free inputs, `body` is
/// the internal gate list in topological (creation) order.
struct Cone {
  std::vector<SignalId> boundary;
  std::vector<SignalId> body;  // ascending ids => valid evaluation order
};

Cone carve_cone(const Netlist& nl, SignalId root, std::size_t max_inputs) {
  Cone cone;
  std::vector<SignalId> frontier = {root};
  std::vector<bool> seen(nl.size(), false);
  seen[root] = true;
  std::vector<SignalId> body;

  while (!frontier.empty()) {
    const SignalId id = frontier.back();
    frontier.pop_back();
    const Gate& g = nl.gate(id);
    const bool is_source = g.op == Op::kDff || g.op == Op::kInput ||
                           netlist::op_arity(g.op) == 0;
    // Stop expanding when the boundary budget is exhausted.
    if (is_source ||
        cone.boundary.size() + frontier.size() >= max_inputs) {
      if (id != root) {
        cone.boundary.push_back(id);
      } else if (is_source) {
        cone.boundary.push_back(id);
      } else {
        // Root must be evaluated; expand it regardless.
        body.push_back(id);
        for (int k = 0; k < netlist::op_arity(g.op); ++k) {
          const SignalId f = g.fanin[k];
          if (!seen[f]) {
            seen[f] = true;
            cone.boundary.push_back(f);
          }
        }
      }
      continue;
    }
    body.push_back(id);
    for (int k = 0; k < netlist::op_arity(g.op); ++k) {
      const SignalId f = g.fanin[k];
      if (!seen[f]) {
        seen[f] = true;
        frontier.push_back(f);
      }
    }
  }
  std::sort(body.begin(), body.end());
  cone.body = std::move(body);
  return cone;
}

/// 64-way bit-parallel evaluation of the cone body given boundary words.
std::uint64_t eval_cone(const Netlist& nl, const Cone& cone,
                        std::vector<std::uint64_t>& values, SignalId root) {
  sim::eval_comb(nl, cone.body, values.data());
  return values[root];
}

}  // namespace

FanciReport run_fanci(const Netlist& nl, const FanciOptions& options) {
  FanciReport report;
  util::Xoshiro256 rng(options.seed);
  const std::size_t passes = (options.samples + 63) / 64;
  // Indexed by SignalId and reused across roots: each cone writes its
  // boundary before evaluating its body, so stale entries are never read.
  std::vector<std::uint64_t> values(nl.size(), 0);

  for (SignalId root = 0; root < nl.size(); ++root) {
    const Gate& g = nl.gate(root);
    if (netlist::op_arity(g.op) == 0 || g.op == Op::kDff) continue;
    report.wires_analyzed++;

    const Cone cone = carve_cone(nl, root, options.max_cone_inputs);
    if (cone.boundary.empty()) continue;  // constant wire

    std::vector<std::uint64_t> flip_counts(cone.boundary.size(), 0);

    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (const SignalId b : cone.boundary) values[b] = rng.next();
      // Constants must keep their semantics even when they sit on the
      // boundary (possible for the root's direct constant fanins).
      values[nl.const0()] = 0;
      values[nl.const1()] = ~0ull;
      const std::uint64_t base = eval_cone(nl, cone, values, root);
      for (std::size_t i = 0; i < cone.boundary.size(); ++i) {
        const SignalId b = cone.boundary[i];
        if (b == nl.const0() || b == nl.const1()) continue;
        const std::uint64_t saved = values[b];
        values[b] = ~saved;
        const std::uint64_t flipped = eval_cone(nl, cone, values, root);
        values[b] = saved;
        flip_counts[i] += static_cast<std::uint64_t>(
            std::popcount(base ^ flipped));
      }
    }

    std::vector<double> cvs;
    cvs.reserve(cone.boundary.size());
    const double denom = static_cast<double>(passes * 64);
    for (std::size_t i = 0; i < cone.boundary.size(); ++i) {
      if (cone.boundary[i] == nl.const0() || cone.boundary[i] == nl.const1()) {
        continue;
      }
      cvs.push_back(static_cast<double>(flip_counts[i]) / denom);
    }
    if (cvs.empty()) continue;
    std::sort(cvs.begin(), cvs.end());
    double mean = 0;
    for (const double cv : cvs) mean += cv;
    mean /= static_cast<double>(cvs.size());
    const double median = cvs[cvs.size() / 2];

    // Flag on the mean only: with sampled truth tables the median of a
    // healthy-but-rare wire is often exactly zero (sampling noise), which
    // would flood the report. A wide stealthy comparator drags the *mean*
    // to zero as well, which is the published signature.
    if (mean < options.threshold) {
      report.suspects.push_back(FanciSuspect{root, mean, median});
    }
  }
  return report;
}

}  // namespace trojanscout::baselines
