// Unit tests for the Trojan mutation fuzzer (src/fuzz): deterministic
// corpus generation, spec canonicalization, mutant construction, the
// differential harness's oracles, and the shrinker. The heavier end-to-end
// sweep lives in the CI fuzz leg (`trojanscout_cli fuzz`); these tests keep
// the per-spec machinery honest at unit-test cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/harness.hpp"
#include "fuzz/mutation.hpp"
#include "sim/simulator.hpp"

namespace trojanscout::fuzz {
namespace {

std::vector<std::string> corpus_names(const CorpusOptions& options) {
  std::vector<std::string> names;
  for (const MutationSpec& spec : generate_corpus(options)) {
    names.push_back(spec.name());
  }
  return names;
}

TEST(Fuzz, GenerateCorpusIsDeterministic) {
  CorpusOptions options;
  options.seed = 42;
  options.count = 40;
  const auto first = corpus_names(options);
  const auto second = corpus_names(options);
  EXPECT_EQ(first, second);

  options.seed = 43;
  const auto other_seed = corpus_names(options);
  EXPECT_NE(first, other_seed);
}

TEST(Fuzz, CorpusWithSameSeedSharesAPrefixAcrossCounts) {
  CorpusOptions small;
  small.seed = 42;
  small.count = 12;
  CorpusOptions large = small;
  large.count = 48;

  const auto short_names = corpus_names(small);
  const auto long_names = corpus_names(large);
  ASSERT_EQ(short_names.size(), 12u);
  ASSERT_EQ(long_names.size(), 48u);
  EXPECT_TRUE(std::equal(short_names.begin(), short_names.end(),
                         long_names.begin()));
}

TEST(Fuzz, CorpusCoversFamiliesTriggersAndPayloadStyles) {
  CorpusOptions options;
  options.seed = 42;
  options.count = 100;
  const std::vector<MutationSpec> corpus = generate_corpus(options);

  std::vector<std::string> families;
  std::vector<TriggerKind> triggers;
  std::vector<PayloadStyle> payloads;
  for (const MutationSpec& spec : corpus) {
    families.push_back(spec.family);
    triggers.push_back(spec.trigger);
    payloads.push_back(spec.payload);
  }
  for (const char* family : {"mc8051", "risc", "router"}) {
    EXPECT_NE(std::find(families.begin(), families.end(), family),
              families.end())
        << "family " << family << " never drawn";
  }
  for (const TriggerKind kind :
       {TriggerKind::kCombinational, TriggerKind::kSequence,
        TriggerKind::kCounter}) {
    EXPECT_NE(std::find(triggers.begin(), triggers.end(), kind),
              triggers.end())
        << "trigger kind " << trigger_kind_name(kind) << " never drawn";
  }
  for (const PayloadStyle style :
       {PayloadStyle::kBitFlip, PayloadStyle::kStuckAt, PayloadStyle::kSwap,
        PayloadStyle::kDelayedWrite, PayloadStyle::kPseudoCritical,
        PayloadStyle::kBypass}) {
    EXPECT_NE(std::find(payloads.begin(), payloads.end(), style),
              payloads.end())
        << "payload style " << payload_style_name(style) << " never drawn";
  }
}

TEST(Fuzz, BuildMutantIsDeterministicAndCanonicalizationIsIdempotent) {
  MutationSpec spec;
  spec.family = "mc8051";
  spec.trigger = TriggerKind::kSequence;
  spec.trigger_width = 3;
  spec.sequence_length = 2;
  spec.pattern = 0x2b;
  spec.insertion_point = 5;
  spec.target = "acc";
  spec.payload = PayloadStyle::kBitFlip;
  spec.payload_param = 0x5;

  const Mutant a = build_mutant(spec);
  const Mutant b = build_mutant(spec);
  EXPECT_EQ(a.spec.name(), b.spec.name());
  EXPECT_EQ(a.fire_depth, b.fire_depth);
  EXPECT_EQ(a.design.nl.size(), b.design.nl.size());

  // Canonicalization must be a fixpoint: re-building from the canonical
  // spec reproduces the same mutant.
  const Mutant again = build_mutant(a.spec);
  EXPECT_EQ(again.spec.name(), a.spec.name());
  EXPECT_EQ(again.design.nl.size(), a.design.nl.size());
}

TEST(Fuzz, MutantMarksTrojanLogicAndCarriesActivation) {
  MutationSpec spec;
  spec.family = "router";
  spec.trigger = TriggerKind::kCounter;
  spec.trigger_width = 2;
  spec.sequence_length = 3;
  spec.pattern = 0x3;
  spec.target = "dest_reg";
  spec.payload = PayloadStyle::kStuckAt;
  spec.payload_param = 0xff;

  const Mutant mutant = build_mutant(spec);
  EXPECT_NE(mutant.design.trojan_trigger, netlist::kNullSignal);
  ASSERT_FALSE(mutant.design.trojan_gate_ranges.empty());
  EXPECT_TRUE(mutant.design.is_trojan_gate(mutant.design.trojan_trigger));
  ASSERT_EQ(mutant.activation.size(), mutant.fire_depth + 1);

  // The bundled activation sequence actually fires the sticky trigger at
  // the advertised depth — the harness's reachability oracle relies on it.
  sim::Simulator simulator(mutant.design.nl);
  simulator.reset();
  for (std::size_t frame = 0; frame < mutant.activation.size(); ++frame) {
    simulator.set_inputs(mutant.activation[frame].bits);
    simulator.eval();
    if (frame + 1 < mutant.activation.size()) {
      EXPECT_FALSE(simulator.value(mutant.design.trojan_trigger))
          << "trigger fired early at frame " << frame;
      simulator.step();
    }
  }
  EXPECT_TRUE(simulator.value(mutant.design.trojan_trigger))
      << "trigger did not fire at fire_depth " << mutant.fire_depth;
}

TEST(Fuzz, BuildMutantRejectsUnknownFamily) {
  MutationSpec spec;
  spec.family = "no-such-core";
  spec.target = "acc";
  EXPECT_THROW(build_mutant(spec), std::invalid_argument);
}

TEST(Fuzz, HarnessDetectsAReachableMutantWithConfirmedWitness) {
  MutationSpec spec;
  spec.family = "mc8051";
  spec.trigger = TriggerKind::kCombinational;
  spec.trigger_width = 2;
  spec.pattern = 0x3;
  spec.target = "acc";
  spec.payload = PayloadStyle::kBitFlip;
  spec.payload_param = 0x1;

  HarnessOptions options;
  options.jobs = 1;
  options.differential = false;  // keep the unit test to one detector pass
  options.check_clean = false;
  CorpusHarness harness(options);
  const VariantOutcome outcome = harness.run_variant(spec);
  EXPECT_TRUE(outcome.reachable);
  EXPECT_TRUE(outcome.payload_shown) << "a bit-flip always changes the bit";
  EXPECT_TRUE(outcome.detected);
  EXPECT_TRUE(outcome.witness_confirmed);
  EXPECT_FALSE(outcome.finding_property.empty());
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
}

TEST(Fuzz, InertPayloadIsNotAMissAndADeeperBoundDetectsIt) {
  // Variant 124 of the seed-42 corpus: a one-bit combinational trigger
  // fires in cycle 0 and rotates eeprom_address, which is still all-zero
  // then, so the replay shows no Trojan. At the default 14-frame bound BMC
  // exhausts the bound without an Eq. 2 violation; at 30 frames the core
  // has time to load a nonzero address for the rotation to corrupt.
  MutationSpec spec;
  spec.family = "risc";
  spec.trigger = TriggerKind::kCombinational;
  spec.trigger_width = 1;
  spec.pattern = 0xdfbaad167d9653e7ull;
  spec.insertion_point = 15;
  spec.target = "eeprom_address";
  spec.payload = PayloadStyle::kSwap;
  spec.payload_param = 0x1;
  CorpusOptions corpus_options;
  corpus_options.seed = 42;
  corpus_options.count = 128;
  const MutationSpec generated =
      build_mutant(generate_corpus(corpus_options)[124]).spec;
  ASSERT_EQ(generated.name(), spec.name());
  ASSERT_EQ(generated.pattern, spec.pattern);

  HarnessOptions options;
  options.jobs = 1;
  options.differential = false;
  options.check_clean = false;
  {
    CorpusHarness harness(options);
    const VariantOutcome outcome = harness.run_variant(spec);
    EXPECT_EQ(outcome.frames, 14u);
    EXPECT_TRUE(outcome.reachable);
    EXPECT_EQ(outcome.fire_frame, 0u);
    EXPECT_FALSE(outcome.payload_shown);
    EXPECT_FALSE(outcome.detected);
    EXPECT_TRUE(outcome.ok()) << outcome.failure;
  }
  options.frames_slack = 30;
  options.frames_cap = 40;
  CorpusHarness harness(options);
  const VariantOutcome outcome = harness.run_variant(spec);
  EXPECT_EQ(outcome.frames, 30u);
  EXPECT_TRUE(outcome.detected);
  EXPECT_TRUE(outcome.witness_confirmed);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
}

TEST(Fuzz, DeepCounterTriggerIsUnreachableAndNotAFailure) {
  MutationSpec spec;
  spec.family = "mc8051";
  spec.trigger = TriggerKind::kCounter;
  spec.trigger_width = 2;
  spec.sequence_length = 200;  // far past the harness frame cap
  spec.pattern = 0x3;
  spec.target = "acc";
  spec.payload = PayloadStyle::kBitFlip;

  HarnessOptions options;
  options.jobs = 1;
  options.differential = false;
  options.check_clean = false;
  CorpusHarness harness(options);
  const VariantOutcome outcome = harness.run_variant(spec);
  EXPECT_TRUE(outcome.deep);
  EXPECT_FALSE(outcome.reachable);
  EXPECT_FALSE(outcome.detected);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
}

TEST(Fuzz, ShrinkReducesAnInjectedFailureToAMinimalSpec) {
  MutationSpec spec;
  spec.family = "mc8051";
  spec.trigger = TriggerKind::kSequence;
  spec.trigger_width = 4;
  spec.sequence_length = 3;
  spec.pattern = 0xabc;
  spec.insertion_point = 21;
  spec.target = "sp";
  spec.payload = PayloadStyle::kStuckAt;
  spec.payload_param = 0xde;

  HarnessOptions options;
  options.jobs = 1;
  options.differential = false;
  options.check_clean = false;
  options.inject_failure = [](const MutationSpec& candidate) {
    return candidate.payload == PayloadStyle::kStuckAt;
  };
  CorpusHarness harness(options);

  const VariantOutcome outcome = harness.run_variant(spec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.failure.rfind("injected", 0), 0u) << outcome.failure;

  const MutationSpec shrunk = harness.shrink(spec);
  // The shrinker walks toward the simplest coordinates that still fail:
  // the injected predicate only pins the payload style, so everything else
  // collapses.
  EXPECT_EQ(shrunk.payload, PayloadStyle::kStuckAt);
  EXPECT_EQ(shrunk.trigger, TriggerKind::kCombinational);
  EXPECT_EQ(shrunk.trigger_width, 1u);
  EXPECT_EQ(shrunk.sequence_length, 1u);
  EXPECT_EQ(shrunk.insertion_point, 0u);
  // And the minimal spec still reproduces the failure.
  const VariantOutcome replay = harness.run_variant(shrunk);
  EXPECT_FALSE(replay.ok());
}

TEST(Fuzz, ShrinkReturnsPassingSpecUnchangedUpToCanonicalization) {
  MutationSpec spec;
  spec.family = "mc8051";
  spec.trigger = TriggerKind::kCombinational;
  spec.trigger_width = 2;
  spec.pattern = 0x3;
  spec.target = "acc";
  spec.payload = PayloadStyle::kBitFlip;
  spec.payload_param = 0x1;

  HarnessOptions options;
  options.jobs = 1;
  options.differential = false;
  options.check_clean = false;
  CorpusHarness harness(options);
  const MutationSpec unchanged = harness.shrink(spec);
  EXPECT_EQ(unchanged.name(), build_mutant(spec).spec.name());
}

}  // namespace
}  // namespace trojanscout::fuzz
