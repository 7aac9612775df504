// Seeded Trojan mutation engine.
//
// The catalog's nine Table-1 rows and the two Section-4 transformers in
// designs/attacks.cpp are hand-built points in a much larger attack space.
// This module sweeps that space programmatically: a MutationSpec pins down
// one Trojan variant — trigger shape (combinational match, matched input
// sequence, or saturating match counter), trigger width, where the trigger
// taps the input space, which spec'd register the payload corrupts, and the
// payload style — and build_mutant() materializes it on a clean catalog
// design. The direct payload styles wrap a corruption mux around the
// register's golden next-state cone (Eq. 2 territory); the kPseudoCritical
// and kBypass styles reuse the Section-4 transformers with the generated
// trigger (Eq. 3 / Eq. 4 territory), generalizing attacks.cpp.
//
// Everything is deterministic: the same MutationSpec always produces the
// same netlist, and generate_corpus() with the same seed always produces
// the same spec sequence. Mutants carry their own activation input
// sequence, so a cycle-accurate simulation can confirm the trigger is
// reachable independently of the formal engines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "designs/design.hpp"
#include "proof/json.hpp"
#include "sim/witness.hpp"

namespace trojanscout::fuzz {

enum class TriggerKind {
  /// Pure combinational match over the tapped input bits; fires in the
  /// first cycle the pattern appears (MC8051-T300 style single-shot).
  kCombinational,
  /// Chain of per-cycle matches: the trigger fires only after
  /// sequence_length *consecutive* cycles matched their stage patterns,
  /// then latches (MC8051-T800 style sequence cheat code).
  kSequence,
  /// Saturating counter of matching cycles: fires once sequence_length
  /// matches accumulated, consecutive or not (RISC/AES count triggers; with
  /// a large count this models AES-T1200-style bound-evading Trojans).
  kCounter,
};

enum class PayloadStyle {
  kBitFlip,         // complement a nonzero bit mask of the next value
  kStuckAt,         // force a constant that differs from the reset value
  kSwap,            // rotate the next-value bits (data scramble)
  kDelayedWrite,    // freeze the register: next := current while triggered
  kPseudoCritical,  // Section 4.1 transformer on the generated trigger
  kBypass,          // Section 4.2 transformer on the generated trigger
};

const char* trigger_kind_name(TriggerKind kind);
const char* payload_style_name(PayloadStyle style);

/// One point in the mutation space. All fields are raw sweep coordinates;
/// build_mutant() canonicalizes them against the concrete design (widths
/// clamp to the available input/register bits, swap on a 1-bit register
/// degrades to bit-flip, ...), so any field value is valid.
struct MutationSpec {
  std::string family;  // "mc8051" | "risc" | "router" | "aes"
  TriggerKind trigger = TriggerKind::kCombinational;
  /// Number of input bits the trigger taps (clamped to [1, available]).
  std::size_t trigger_width = 1;
  /// Stages (kSequence) or match count (kCounter); kCombinational uses 1.
  std::size_t sequence_length = 1;
  /// Per-stage match patterns, trigger_width bits per stage, wrapping
  /// around the 64-bit word.
  std::uint64_t pattern = 0;
  /// Offset into the non-reset input bits where the taps start.
  std::size_t insertion_point = 0;
  /// Target register (must carry a valid-ways spec block).
  std::string target;
  PayloadStyle payload = PayloadStyle::kBitFlip;
  /// Style parameter: flip mask / stuck value / rotation (canonicalized).
  std::uint64_t payload_param = 1;

  /// Compact deterministic identifier, e.g.
  /// "mc8051/seq3w2@17/bitflip(acc,0x5)".
  [[nodiscard]] std::string name() const;

  /// JSON object mirroring every field (pattern/param as hex strings so
  /// the artifact never emits a negative 64-bit value).
  [[nodiscard]] proof::Json to_json() const;
};

/// A materialized mutant: the infected design (trojan_trigger set,
/// trojan_gate_ranges covering the inserted logic) plus the ground-truth
/// activation data the differential harness simulates.
struct Mutant {
  designs::Design design;
  MutationSpec spec;  // canonicalized against the design
  /// Cycle at which the trigger first fires under `activation` (0-based,
  /// sampled combinationally like a monitor's bad signal).
  std::size_t fire_depth = 0;
  /// Input sequence of fire_depth + 1 frames driving the trigger from
  /// reset: stage patterns on the tapped bits, zero elsewhere.
  std::vector<sim::InputFrame> activation;
  /// Direct payload styles: the target register's golden next-state
  /// signals (LSB first). Its DFFs read mux(trigger, corrupted, golden), so
  /// the payload shows on a triggered cycle exactly when some DFF input
  /// differs from its golden signal. Empty for kPseudoCritical / kBypass,
  /// which leave the register's own update intact.
  netlist::Word golden_next;
};

/// Builds the mutant for a spec. Throws std::invalid_argument on an
/// unknown family and std::runtime_error if the target register (after
/// canonicalization) carries no spec block.
Mutant build_mutant(const MutationSpec& spec);

struct CorpusOptions {
  std::uint64_t seed = 42;
  std::size_t count = 100;
  /// Families to draw from (each must have spec'd registers).
  std::vector<std::string> families = {"mc8051", "risc", "router"};
  std::size_t max_trigger_width = 4;
  std::size_t max_sequence_length = 6;
  /// Fraction of variants given a counter trigger too deep for the
  /// harness's frame bound (models trigger-depth bound evasion; such
  /// mutants are expected unreachable and exercise the all-clean path).
  double deep_fraction = 0.05;
  /// Match count assigned to deep variants (must exceed the harness cap).
  std::size_t deep_sequence_length = 200;
  /// Include the Section-4 kPseudoCritical / kBypass payload styles.
  bool include_attack_styles = true;
};

/// Deterministically expands (seed, count) into a spec list. Draws a fixed
/// number of PRNG words per variant, so corpora with the same seed share a
/// prefix regardless of count.
std::vector<MutationSpec> generate_corpus(const CorpusOptions& options);

}  // namespace trojanscout::fuzz
