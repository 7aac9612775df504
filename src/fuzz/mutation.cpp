#include "fuzz/mutation.hpp"

#include <algorithm>
#include <stdexcept>

#include "designs/attacks.hpp"
#include "designs/catalog.hpp"
#include "util/rng.hpp"

namespace trojanscout::fuzz {

using netlist::Netlist;
using netlist::SignalId;
using netlist::Word;

const char* trigger_kind_name(TriggerKind kind) {
  switch (kind) {
    case TriggerKind::kCombinational: return "comb";
    case TriggerKind::kSequence: return "seq";
    case TriggerKind::kCounter: return "count";
  }
  return "?";
}

const char* payload_style_name(PayloadStyle style) {
  switch (style) {
    case PayloadStyle::kBitFlip: return "bitflip";
    case PayloadStyle::kStuckAt: return "stuckat";
    case PayloadStyle::kSwap: return "swap";
    case PayloadStyle::kDelayedWrite: return "delayed";
    case PayloadStyle::kPseudoCritical: return "pseudo";
    case PayloadStyle::kBypass: return "bypass";
  }
  return "?";
}

namespace {

/// True when plant_bypass on `reg_name` would redirect at least one reader:
/// some gate outside the register's own update cone (or an output pad)
/// reads the register. Registers whose only readers sit inside their
/// next-state cone — which the transformer must keep on the real register —
/// yield a behaviorally vacuous bypass that no sound detector can flag.
bool bypass_is_effective(const designs::Design& design,
                         const std::string& reg_name) {
  const Netlist& nl = design.nl;
  const auto& reg = nl.find_register(reg_name);
  Word roots;
  for (const SignalId dff : reg.dffs) {
    const SignalId d = nl.gate(dff).fanin[0];
    if (d == netlist::kNullSignal) return false;
    roots.push_back(d);
  }
  std::vector<bool> cone(nl.size(), false);
  for (const SignalId id : nl.fanin_cone(roots)) cone[id] = true;
  std::vector<bool> is_reg_dff(nl.size(), false);
  for (const SignalId dff : reg.dffs) {
    cone[dff] = true;
    is_reg_dff[dff] = true;
  }
  for (SignalId id = 0; id < nl.size(); ++id) {
    if (cone[id]) continue;
    for (const SignalId f : nl.gate(id).fanin) {
      if (f != netlist::kNullSignal && is_reg_dff[f]) return true;
    }
  }
  for (const auto& port : nl.output_ports()) {
    for (const SignalId bit : port.bits) {
      if (is_reg_dff[bit]) return true;
    }
  }
  return false;
}

std::string hex_u64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  if (value == 0) return "0x0";
  std::string out;
  while (value != 0) {
    out.insert(out.begin(), digits[value & 0xF]);
    value >>= 4;
  }
  return "0x" + out;
}

/// Primary-input bits a trigger may tap: everything except the reset port
/// (asserting reset while the trigger counts would make the activation
/// sequence fight the design's own initialization).
std::vector<SignalId> eligible_taps(const Netlist& nl) {
  std::vector<SignalId> taps;
  for (const auto& port : nl.input_ports()) {
    if (port.name == "reset") continue;
    taps.insert(taps.end(), port.bits.begin(), port.bits.end());
  }
  if (taps.empty()) {
    // Degenerate designs without named non-reset ports: fall back to all.
    taps = nl.inputs();
  }
  return taps;
}

/// Bit j of stage k's match pattern (trigger_width bits per stage, wrapping
/// around the 64-bit pattern word).
bool stage_pattern_bit(const MutationSpec& spec, std::size_t stage,
                       std::size_t j) {
  const std::size_t index = (stage * spec.trigger_width + j) % 64;
  return ((spec.pattern >> index) & 1u) != 0;
}

std::size_t bit_width(std::size_t value) {
  std::size_t n = 0;
  while (value != 0) {
    ++n;
    value >>= 1;
  }
  return n == 0 ? 1 : n;
}

/// Canonicalizes a raw sweep point against the concrete design so that any
/// field value becomes a well-defined mutant (and two specs that
/// canonicalize identically build identical netlists).
MutationSpec canonicalize(const MutationSpec& raw,
                          const designs::Design& design,
                          std::size_t eligible_count) {
  MutationSpec spec = raw;
  spec.trigger_width =
      std::clamp<std::size_t>(spec.trigger_width, 1,
                              std::min<std::size_t>(eligible_count, 16));
  spec.insertion_point %= eligible_count;
  if (spec.trigger == TriggerKind::kCombinational) spec.sequence_length = 1;
  spec.sequence_length = std::max<std::size_t>(spec.sequence_length, 1);

  // Target must carry a valid-ways spec block (the Eq. 2 obligation set).
  if (design.spec.find(spec.target) == nullptr) {
    if (design.spec.registers.empty()) {
      throw std::runtime_error("build_mutant: design '" + design.name +
                               "' has no spec'd registers");
    }
    spec.target = design.spec.registers.front().reg;
  }
  const std::size_t width = design.nl.find_register(spec.target).dffs.size();

  if (spec.payload == PayloadStyle::kBypass) {
    // Eq. 4 only runs for registers with observability obligations, and the
    // planted bypass must redirect at least one reader to change behavior.
    const auto* reg_spec = design.spec.find(spec.target);
    if (reg_spec->obligations.empty() ||
        !bypass_is_effective(design, spec.target)) {
      std::string fallback;
      for (const auto& rs : design.spec.registers) {
        if (!rs.obligations.empty() && bypass_is_effective(design, rs.reg)) {
          fallback = rs.reg;
          break;
        }
      }
      if (fallback.empty()) {
        spec.payload = PayloadStyle::kBitFlip;
      } else {
        spec.target = fallback;
      }
    }
  }
  if (spec.payload == PayloadStyle::kPseudoCritical) {
    // The Eq. 3 Trojan classification requires the violation deeper than
    // min_pseudo_violation_depth; a shallow trigger would be dismissed as
    // ordinary register divergence.
    if (spec.trigger == TriggerKind::kCombinational) {
      spec.trigger = TriggerKind::kSequence;
    }
    spec.sequence_length = std::max<std::size_t>(spec.sequence_length, 5);
  }
  if (spec.payload == PayloadStyle::kSwap && width < 2) {
    spec.payload = PayloadStyle::kBitFlip;
  }

  // Style parameter canonical forms (all nonzero so the payload is never a
  // no-op): flip mask / stuck-difference mask in [1, 2^w - 1], rotation in
  // [1, w - 1].
  switch (spec.payload) {
    case PayloadStyle::kBitFlip:
    case PayloadStyle::kStuckAt: {
      // Mask to the register width, then bump 0 to 1. Values already in
      // canonical form map to themselves (canonicalize is a fixpoint).
      if (width < 64) spec.payload_param &= (1ull << width) - 1;
      if (spec.payload_param == 0) spec.payload_param = 1;
      break;
    }
    case PayloadStyle::kSwap:
      spec.payload_param %= width;
      if (spec.payload_param == 0) spec.payload_param = 1;
      break;
    case PayloadStyle::kDelayedWrite:
    case PayloadStyle::kPseudoCritical:
    case PayloadStyle::kBypass:
      spec.payload_param = 0;
      break;
  }
  return spec;
}

/// Builds the trigger machinery; returns the trigger signal and sets
/// fire_depth to the first cycle it can fire under the activation pattern.
SignalId build_trigger(Netlist& nl, const MutationSpec& spec,
                       const std::vector<SignalId>& taps,
                       std::size_t& fire_depth) {
  auto match = [&](std::size_t stage) {
    SignalId m = nl.const1();
    for (std::size_t j = 0; j < taps.size(); ++j) {
      const SignalId bit = stage_pattern_bit(spec, stage, j)
                               ? taps[j]
                               : nl.b_not(taps[j]);
      m = nl.b_and(m, bit);
    }
    return m;
  };

  switch (spec.trigger) {
    case TriggerKind::kCombinational: {
      fire_depth = 0;
      return match(0);
    }
    case TriggerKind::kSequence: {
      // armed_{k+1} <= armed_k && match_k; fires combinationally in the
      // cycle the last stage matches, then latches.
      SignalId armed = nl.const1();
      SignalId fire_now = nl.const0();
      for (std::size_t k = 0; k < spec.sequence_length; ++k) {
        const SignalId step = nl.b_and(armed, match(k));
        if (k + 1 == spec.sequence_length) {
          fire_now = step;
          break;
        }
        const SignalId next = nl.add_dff(false);
        nl.connect_dff_input(next, step);
        armed = next;
      }
      const SignalId sticky = nl.add_dff(false);
      const SignalId trigger = nl.b_or(sticky, fire_now);
      nl.connect_dff_input(sticky, trigger);
      fire_depth = spec.sequence_length - 1;
      return trigger;
    }
    case TriggerKind::kCounter: {
      // Saturating counter of matched cycles; done == (count == N) holds
      // the count, so the trigger is sticky by construction.
      const std::size_t n = bit_width(spec.sequence_length);
      Word count(n);
      for (std::size_t i = 0; i < n; ++i) count[i] = nl.add_dff(false);
      SignalId done = nl.const1();
      for (std::size_t i = 0; i < n; ++i) {
        const bool bit = ((spec.sequence_length >> i) & 1u) != 0;
        done = nl.b_and(done, bit ? count[i] : nl.b_not(count[i]));
      }
      SignalId carry = nl.b_and(match(0), nl.b_not(done));
      for (std::size_t i = 0; i < n; ++i) {
        nl.connect_dff_input(count[i], nl.b_xor(count[i], carry));
        carry = nl.b_and(count[i], carry);
      }
      fire_depth = spec.sequence_length;
      return done;
    }
  }
  throw std::logic_error("build_trigger: unhandled trigger kind");
}

/// Wraps a corruption mux around the target register's golden next-state
/// cone for the four direct payload styles; returns the golden next-state
/// signals the muxes' untriggered side reads.
Word insert_direct_payload(Netlist& nl, const MutationSpec& spec,
                           SignalId trigger) {
  const netlist::Register reg = nl.find_register(spec.target);  // copy
  const std::size_t w = reg.dffs.size();
  Word old_d(w);
  for (std::size_t i = 0; i < w; ++i) old_d[i] = nl.gate(reg.dffs[i]).fanin[0];

  Word corrupted(w);
  for (std::size_t i = 0; i < w; ++i) {
    const bool param_bit = ((spec.payload_param >> (i % 64)) & 1u) != 0;
    switch (spec.payload) {
      case PayloadStyle::kBitFlip:
        corrupted[i] = param_bit ? nl.b_not(old_d[i]) : old_d[i];
        break;
      case PayloadStyle::kStuckAt:
        // Stuck value = reset value XOR the (nonzero) difference mask, so
        // the forced constant always differs from the reset/hold state.
        corrupted[i] = nl.b_const(nl.gate(reg.dffs[i]).init != param_bit);
        break;
      case PayloadStyle::kSwap:
        corrupted[i] = old_d[(i + spec.payload_param) % w];
        break;
      case PayloadStyle::kDelayedWrite:
        corrupted[i] = reg.dffs[i];  // hold: drop the incoming write
        break;
      default:
        throw std::logic_error("insert_direct_payload: not a direct style");
    }
  }
  for (std::size_t i = 0; i < w; ++i) {
    nl.rewire_dff_input(reg.dffs[i],
                        nl.b_mux(trigger, corrupted[i], old_d[i]));
  }
  return old_d;
}

}  // namespace

std::string MutationSpec::name() const {
  std::string out = family;
  out += '/';
  out += trigger_kind_name(trigger);
  out += std::to_string(sequence_length);
  out += 'w';
  out += std::to_string(trigger_width);
  out += '@';
  out += std::to_string(insertion_point);
  out += '/';
  out += payload_style_name(payload);
  out += '(';
  out += target;
  out += ',';
  out += hex_u64(payload_param);
  out += ')';
  return out;
}

proof::Json MutationSpec::to_json() const {
  proof::Json j = proof::Json::object();
  j.set("name", name());
  j.set("family", family);
  proof::Json trig = proof::Json::object();
  trig.set("kind", trigger_kind_name(trigger));
  trig.set("width", static_cast<std::uint64_t>(trigger_width));
  trig.set("sequence_length", static_cast<std::uint64_t>(sequence_length));
  trig.set("pattern", hex_u64(pattern));
  trig.set("insertion_point", static_cast<std::uint64_t>(insertion_point));
  j.set("trigger", std::move(trig));
  proof::Json pay = proof::Json::object();
  pay.set("style", payload_style_name(payload));
  pay.set("target", target);
  pay.set("param", hex_u64(payload_param));
  j.set("payload", std::move(pay));
  return j;
}

Mutant build_mutant(const MutationSpec& raw) {
  Mutant mutant;
  mutant.design = designs::build_clean(raw.family);
  designs::Design& design = mutant.design;
  Netlist& nl = design.nl;

  const std::vector<SignalId> eligible = eligible_taps(nl);
  const MutationSpec spec = canonicalize(raw, design, eligible.size());
  mutant.spec = spec;

  std::vector<SignalId> taps(spec.trigger_width);
  for (std::size_t j = 0; j < spec.trigger_width; ++j) {
    taps[j] = eligible[(spec.insertion_point + j) % eligible.size()];
  }

  const SignalId first_trojan_gate = static_cast<SignalId>(nl.size());
  const SignalId trigger = build_trigger(nl, spec, taps, mutant.fire_depth);
  design.trojan_trigger = trigger;
  design.name = spec.name();

  switch (spec.payload) {
    case PayloadStyle::kPseudoCritical:
      designs::plant_pseudo_critical(design, spec.target);
      break;
    case PayloadStyle::kBypass:
      designs::plant_bypass(design, spec.target);
      break;
    default:
      mutant.golden_next = insert_direct_payload(nl, spec, trigger);
      break;
  }
  design.name = spec.name();
  design.trojan_gate_ranges.push_back(
      {first_trojan_gate, static_cast<SignalId>(nl.size())});
  design.critical_registers = {spec.target};
  nl.validate();

  // Ground-truth activation: stage patterns on the tapped bits, everything
  // else zero, one frame past the fire depth so the fire cycle is covered.
  mutant.activation.resize(mutant.fire_depth + 1);
  for (std::size_t t = 0; t < mutant.activation.size(); ++t) {
    util::BitVec bits(nl.num_inputs());
    const bool in_pattern = t < spec.sequence_length;
    if (in_pattern) {
      const std::size_t stage =
          spec.trigger == TriggerKind::kCounter ? 0 : t;
      for (std::size_t j = 0; j < taps.size(); ++j) {
        if (stage_pattern_bit(spec, stage, j)) {
          bits.set(nl.input_index(taps[j]), true);
        }
      }
    }
    mutant.activation[t].bits = std::move(bits);
  }
  return mutant;
}

std::vector<MutationSpec> generate_corpus(const CorpusOptions& options) {
  if (options.families.empty()) {
    throw std::invalid_argument("generate_corpus: no families");
  }
  struct TargetInfo {
    std::string reg;
    std::size_t width = 0;
    bool bypassable = false;  // has obligations and a non-vacuous bypass
  };
  struct FamilyInfo {
    std::string family;
    std::vector<TargetInfo> targets;
  };
  std::vector<FamilyInfo> families;
  for (const std::string& family : options.families) {
    const designs::Design clean = designs::build_clean(family);
    FamilyInfo info{family, {}};
    for (const auto& reg_spec : clean.spec.registers) {
      info.targets.push_back(
          {reg_spec.reg, clean.nl.find_register(reg_spec.reg).dffs.size(),
           !reg_spec.obligations.empty() &&
               bypass_is_effective(clean, reg_spec.reg)});
    }
    if (info.targets.empty()) {
      throw std::invalid_argument("generate_corpus: family '" + family +
                                  "' has no spec'd registers");
    }
    families.push_back(std::move(info));
  }

  util::Xoshiro256 rng(options.seed);
  std::vector<MutationSpec> corpus;
  corpus.reserve(options.count);
  for (std::size_t i = 0; i < options.count; ++i) {
    // Fixed draw count per variant keeps same-seed corpora prefix-stable.
    const std::uint64_t d_family = rng.next();
    const std::uint64_t d_target = rng.next();
    const std::uint64_t d_kind = rng.next();
    const std::uint64_t d_width = rng.next();
    const std::uint64_t d_len = rng.next();
    const std::uint64_t d_pattern = rng.next();
    const std::uint64_t d_insert = rng.next();
    const std::uint64_t d_style = rng.next();
    const std::uint64_t d_param = rng.next();
    const double d_deep = rng.next_double();

    const FamilyInfo& fam = families[d_family % families.size()];
    const TargetInfo& target = fam.targets[d_target % fam.targets.size()];

    MutationSpec spec;
    spec.family = fam.family;
    spec.target = target.reg;
    spec.trigger = static_cast<TriggerKind>(d_kind % 3);
    spec.trigger_width = d_width % options.max_trigger_width + 1;
    spec.sequence_length = d_len % options.max_sequence_length + 1;
    spec.pattern = d_pattern;
    spec.insertion_point = d_insert % 4096;
    spec.payload_param = d_param;

    // Style distribution: the four direct styles dominate; the Section-4
    // attack styles appear where their detection preconditions hold
    // (pseudo needs width >= 4 for a meaningful mirror, bypass needs an
    // observability obligation).
    const std::size_t style_slots = options.include_attack_styles ? 6 : 4;
    PayloadStyle style = static_cast<PayloadStyle>(d_style % style_slots);
    if (style == PayloadStyle::kPseudoCritical && target.width < 4) {
      style = PayloadStyle::kBitFlip;
    }
    if (style == PayloadStyle::kBypass && !target.bypassable) {
      style = PayloadStyle::kStuckAt;
    }
    spec.payload = style;

    if (d_deep < options.deep_fraction) {
      spec.trigger = TriggerKind::kCounter;
      spec.sequence_length = options.deep_sequence_length;
      // Deep variants exist to exercise the all-clean path; keep their
      // payload direct so no Eq. 3/4 machinery is wasted on them.
      if (spec.payload == PayloadStyle::kPseudoCritical ||
          spec.payload == PayloadStyle::kBypass) {
        spec.payload = PayloadStyle::kBitFlip;
      }
    }
    corpus.push_back(std::move(spec));
  }
  return corpus;
}

}  // namespace trojanscout::fuzz
