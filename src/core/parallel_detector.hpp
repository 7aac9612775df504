// The obligation scheduler: the one loop that runs Algorithm 1.
//
// Algorithm 1's obligations — one Eq. 3 pseudo-critical check per candidate
// pair, one Eq. 2 corruption check per critical register, one Eq. 4 bypass
// check per observability spec — are independent: each engine run works on
// its own copy of the design and shares nothing but the read-only netlist.
// The scheduler enumerates every obligation up front, executes them on a
// work-stealing thread pool, and merges the results in enumeration order,
// so the DetectionReport is byte-identical (see DetectionReport::signature)
// to folding TrojanDetector::run_obligation over enumerate_obligations()
// one by one, regardless of the jobs count or completion order. jobs = 1 is
// the serial audit.
//
// fail_fast mode trades that determinism for latency: the first obligation
// classified as a Trojan finding cancels all outstanding engine runs
// cooperatively (cancelled runs appear in the report with status
// "cancelled" and do not contribute to the trust bound). The finding that
// triggered the cancellation is always retained.
#pragma once

#include <cstddef>

#include "core/detector.hpp"
#include "core/verdict_store.hpp"

namespace trojanscout::core {

struct ParallelDetectorOptions {
  DetectorOptions detector;
  /// Worker threads; 0 = one per hardware thread.
  std::size_t jobs = 0;
  /// Cancel outstanding obligations after the first Trojan finding.
  bool fail_fast = false;
  /// Optional verdict store consulted before each obligation's engine run
  /// and fed with every freshly computed (non-cancelled) result. A hit
  /// skips the engine entirely — same report, zero solves. Must outlive
  /// run(); null disables caching.
  VerdictStore* store = nullptr;
};

class ParallelDetector {
 public:
  ParallelDetector(const designs::Design& design,
                   ParallelDetectorOptions options);

  /// Runs Algorithm 1 with all obligations scheduled across the pool.
  DetectionReport run();

 private:
  const designs::Design& design_;
  ParallelDetectorOptions options_;
};

}  // namespace trojanscout::core
