// Differential detection harness over the mutation engine.
//
// For every generated mutant the harness cross-checks three oracles:
//
//  1. False-positive gate: the clean design of every family appearing in
//     the corpus is audited with the same engine configuration and must
//     stay all-pass.
//  2. Detection gate: a mutant whose activation sequence, replayed on the
//     cycle-accurate simulator within the frame bound, fires the trigger
//     ("simulator-reachable") *and* on a fired cycle changes the target
//     register's next state ("payload shown") must be flagged by at least
//     one Eq. 2/3/4 obligation. A reachable mutant whose payload changes
//     nothing on the replay (e.g. a rotation of an all-zero register) is
//     "inert": not a miss. Every finding's witness must be confirmed by
//     sim::replay_confirms on the same instrumented netlist the engine ran
//     on.
//  3. Determinism gate: a warm-cache re-run with a different --jobs count
//     must produce a byte-identical timing-stripped report signature
//     (cold-vs-warm and serial-vs-parallel in one pass).
//
// Any oracle violation is recorded on the variant; shrink() then walks a
// failing MutationSpec down a deterministic reduction order (simpler
// trigger, shorter sequence, narrower taps, plainer payload) while the
// failure reproduces, yielding a minimal repro spec.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "core/engine.hpp"
#include "fuzz/mutation.hpp"
#include "proof/json.hpp"

namespace trojanscout::fuzz {

struct HarnessOptions {
  core::EngineKind engine = core::EngineKind::kBmc;
  /// Worker threads for the cold detector pass (the warm differential pass
  /// flips to a different count on its own).
  std::size_t jobs = 2;
  /// Engine frame bound per variant: min(fire_depth + slack, frames_cap).
  /// The slack must cover the design's slowest data path after the trigger
  /// fires: on the RISC core a delayed-write on eeprom_address needs a
  /// movlw/movwf/load instruction chain (4-cycle machine cycles, boot
  /// stall, interrupt flushes), which lands ~14 cycles after firing.
  std::size_t frames_slack = 14;
  std::size_t frames_cap = 26;
  /// Per-obligation engine wall-clock budget.
  double budget_seconds = 30.0;
  /// Run oracle 3 (costs one extra all-cache-hits detector pass/variant).
  bool differential = true;
  /// Verdict-cache directory backing the differential leg; empty = fresh
  /// temporary directory, removed when the harness is destroyed.
  std::string cache_dir;
  /// Run oracle 1 over every family the corpus touches.
  bool check_clean = true;
  /// Test hook: a variant whose canonical spec satisfies this predicate is
  /// marked failed ("injected: ..."), exercising the shrink path without a
  /// real detector bug.
  std::function<bool(const MutationSpec&)> inject_failure;
};

struct VariantOutcome {
  MutationSpec spec;  // canonicalized by build_mutant
  /// Fire depth exceeds the frame bound: expected unreachable (the
  /// bound-evasion corner of the sweep).
  bool deep = false;
  std::size_t frames = 0;
  bool reachable = false;
  /// First cycle the simulator saw the trigger high (SIZE_MAX if never).
  std::size_t fire_frame = static_cast<std::size_t>(-1);
  /// On a replayed cycle with the trigger high, the payload changed the
  /// target register's next state: the Trojan is shown, not just armed.
  bool payload_shown = false;
  bool detected = false;
  std::string finding_property;  // first finding's obligation name
  bool witness_confirmed = true;
  bool deterministic = true;
  /// First oracle violation ("" = all oracles passed). The text before the
  /// first ':' is the failure category shrink() preserves.
  std::string failure;

  [[nodiscard]] bool ok() const { return failure.empty(); }

  /// Cold-run engine seconds per obligation, run order (timing only).
  std::vector<double> obligation_seconds;
};

struct CleanOutcome {
  std::string family;
  bool scanned = false;  // pseudo-critical scan was enabled
  std::size_t frames = 0;
  std::size_t obligations = 0;
  bool pass = false;
  std::string detail;  // finding summary when !pass
  double seconds = 0.0;  // timing only
};

struct LatencyQuantile {
  std::string engine;
  std::size_t samples = 0;
  double p50_seconds = 0.0;
  double p90_seconds = 0.0;
  double p99_seconds = 0.0;
  double total_seconds = 0.0;
};

struct CorpusReport {
  std::uint64_t seed = 0;
  core::EngineKind engine = core::EngineKind::kBmc;
  std::size_t jobs = 0;
  std::vector<CleanOutcome> clean;
  std::vector<VariantOutcome> variants;

  std::size_t reachable_count = 0;
  std::size_t detected_count = 0;   // reachable && detected
  std::size_t missed_count = 0;     // payload_shown && !detected
  std::size_t false_positive_count = 0;  // clean-audit findings
  std::size_t failure_count = 0;    // variants with an oracle violation
  /// detected / reachable (1.0 when nothing was reachable).
  double detection_rate = 1.0;

  std::vector<LatencyQuantile> latency;  // timing only
  double total_seconds = 0.0;            // timing only

  /// `trojanscout-corpus-v1` artifact. With include_timing=false the
  /// document is a pure function of (corpus, harness configuration) —
  /// byte-identical across runs, machines, and jobs counts.
  [[nodiscard]] proof::Json to_json(bool include_timing) const;

  /// Compact dump of to_json(false): the corpus signature the CI
  /// determinism check diffs.
  [[nodiscard]] std::string signature() const;

  [[nodiscard]] std::string summary() const;
};

class CorpusHarness {
 public:
  explicit CorpusHarness(HarnessOptions options);
  ~CorpusHarness();

  CorpusHarness(const CorpusHarness&) = delete;
  CorpusHarness& operator=(const CorpusHarness&) = delete;

  /// Builds + audits one mutant and evaluates oracles 2 and 3 on it.
  VariantOutcome run_variant(const MutationSpec& spec);

  /// Runs the whole corpus plus the clean legs (oracle 1).
  CorpusReport run(const std::vector<MutationSpec>& corpus,
                   std::uint64_t seed);

  /// Minimizes a failing spec while its failure category reproduces.
  /// Returns the (canonical) input spec unchanged if it does not fail.
  MutationSpec shrink(const MutationSpec& failing);

  [[nodiscard]] const HarnessOptions& options() const { return options_; }

 private:
  CleanOutcome audit_clean(const std::string& family, bool scan,
                           std::size_t frames);

  HarnessOptions options_;
  std::string cache_dir_;
  bool owns_cache_dir_ = false;
  std::unique_ptr<cache::VerdictCache> cache_;
};

}  // namespace trojanscout::fuzz
