// Golden-signature regression test: pins the FNV-1a hash of
// DetectionReport::signature() for every catalog design under a fixed
// detector configuration. The signature is the canonical text of every
// deterministic field of the audit (run order, statuses, witness bits,
// findings, trust bound), so any behavioural drift in the monitors, the
// engines, the solver, or the merge logic shows up here as a hash change.
// A second table pins the same audits under the ATPG engine.
//
// If a pin fails after an *intentional* behaviour change, rerun with
// --gtest_also_run_disabled_tests --gtest_filter='*PrintCurrent*' to
// harvest the new values, and update the table with the change that
// justified it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "designs/catalog.hpp"

namespace trojanscout::core {
namespace {

DetectorOptions pinned_configuration(std::size_t frames,
                                     EngineKind kind = EngineKind::kBmc) {
  DetectorOptions options;
  options.engine.kind = kind;
  options.engine.max_frames = frames;
  options.engine.time_limit_seconds = 120.0;
  options.scan_pseudo_critical = true;
  options.check_bypass = true;
  return options;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenEntry {
  const char* name;        // catalog name, or "clean:<family>"
  std::uint64_t signature_hash;
};

// Harvested from the pinned configuration (frames: aes=4, others=8;
// risc_trigger_count=4). Do not update without understanding *why* the
// audit behaviour changed.
//
// The three RISC Trojans share clean:risc's hash on purpose: their
// 4-instruction trigger needs ~40 frames to complete (see
// test_witness_replay's RISC-T100 BMC/40 case), so at the pinned 8-frame
// bound the payload never fires and the audit transcript is identical to
// the clean core's — which is exactly the bounded-trust story the paper
// tells, and worth pinning.
constexpr GoldenEntry kGolden[] = {
    {"MC8051-T400", 0x32b36df706499599ull},
    {"MC8051-T700", 0x5063322226d26250ull},
    {"MC8051-T800", 0xe297e258d552b376ull},
    {"RISC-T100", 0x8f86abcbf90b85d8ull},
    {"RISC-T300", 0x8f86abcbf90b85d8ull},
    {"RISC-T400", 0x8f86abcbf90b85d8ull},
    {"AES-T700", 0x9f74caee7bab5523ull},
    {"AES-T800", 0x75e356d64727d2ceull},
    {"AES-T1200", 0xcd79d5461f21c3e0ull},
    {"clean:mc8051", 0xf701dc0707343562ull},
    {"clean:risc", 0x8f86abcbf90b85d8ull},
    {"clean:aes", 0xd35f792f2ad2792full},
    {"clean:router", 0x49a46b5b5f08e6d4ull},
};

std::size_t frames_for(const std::string& family) {
  return family == "aes" ? 4 : 8;
}

std::string run_signature(const designs::Design& design, std::size_t frames) {
  TrojanDetector detector(design, pinned_configuration(frames));
  return detector.run().signature();
}

template <std::size_t N>
const GoldenEntry* find_entry(const GoldenEntry (&table)[N],
                              const std::string& name) {
  for (const auto& entry : table) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

TEST(GoldenSignatures, EveryCatalogTrojanMatchesItsPin) {
  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = 4;
  std::size_t covered = 0;
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    SCOPED_TRACE(info.name);
    const GoldenEntry* entry = find_entry(kGolden, info.name);
    ASSERT_NE(entry, nullptr)
        << info.name << " was added to the catalog but has no golden pin";
    const designs::Design design = info.build(/*payload_enabled=*/true);
    const std::uint64_t actual =
        fnv1a(run_signature(design, frames_for(info.family)));
    EXPECT_EQ(actual, entry->signature_hash)
        << info.name << ": signature hash is 0x" << std::hex << actual;
    ++covered;
  }
  EXPECT_EQ(covered, 9u) << "catalog size changed; extend the golden table";
}

TEST(GoldenSignatures, EveryCleanFamilyMatchesItsPin) {
  for (const char* family : {"mc8051", "risc", "aes", "router"}) {
    SCOPED_TRACE(family);
    const GoldenEntry* entry =
        find_entry(kGolden, std::string("clean:") + family);
    ASSERT_NE(entry, nullptr);
    const designs::Design design = designs::build_clean(family);
    const std::uint64_t actual =
        fnv1a(run_signature(design, frames_for(family)));
    EXPECT_EQ(actual, entry->signature_hash)
        << family << ": signature hash is 0x" << std::hex << actual;
  }
}

// ATPG pins: the same audits with the PODEM back end, whose three-valued
// frame simulation and random-pattern phase share the simulator's gate
// evaluator. The hashed text is the report signature plus every run's
// decision / backtrack / implication counters, so a change in how a single
// frame is simulated (not only in the verdict) moves the pin. The bounds
// (aes=2, others=8) keep every obligation far inside the time budget, so
// the search stops on the frame bound or the backtrack limit, never on the
// clock. AES-T700 and AES-T800 share a pin: at 2 frames neither trigger
// can fire and the two searches run identically. Harvested before the gate
// evaluator was shared.
constexpr GoldenEntry kAtpgGolden[] = {
    {"MC8051-T400", 0x88b51517c7e54763ull},
    {"MC8051-T700", 0xcca97338125235a6ull},
    {"MC8051-T800", 0x3062bc0193aaf798ull},
    {"RISC-T100", 0x7f762c2711127153ull},
    {"RISC-T300", 0xf3cf32a5c4d3eac7ull},
    {"RISC-T400", 0x8a2b1cc794dc09efull},
    {"AES-T700", 0x5565af2bf9c6d283ull},
    {"AES-T800", 0x5565af2bf9c6d283ull},
    {"AES-T1200", 0x560488811c662e07ull},
    {"clean:mc8051", 0xc42efa1321c3061full},
    {"clean:risc", 0xa6555a95d84b8614ull},
    {"clean:aes", 0x396fad52bd1ba892ull},
    {"clean:router", 0xe3dd0f0886325bc4ull},
};

std::size_t atpg_frames_for(const std::string& family) {
  return family == "aes" ? 2 : 8;
}

std::string run_atpg_transcript(const designs::Design& design,
                                std::size_t frames) {
  const DetectionReport report =
      TrojanDetector(design, pinned_configuration(frames, EngineKind::kAtpg))
          .run();
  std::string text = report.signature();
  for (const auto& run : report.runs) {
    const EngineCounters& c = run.check.counters;
    text += run.property + " decisions=" + std::to_string(c.atpg_decisions) +
            " backtracks=" + std::to_string(c.atpg_backtracks) +
            " implications=" + std::to_string(c.atpg_implications) + "\n";
  }
  return text;
}

/// Every pinned design, catalog Trojans first, as (name, design, frames).
struct PinnedDesign {
  std::string name;
  designs::Design design;
  std::size_t frames;
};

std::vector<PinnedDesign> atpg_pinned_designs() {
  std::vector<PinnedDesign> out;
  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = 4;
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    out.push_back({info.name, info.build(/*payload_enabled=*/true),
                   atpg_frames_for(info.family)});
  }
  for (const char* family : {"mc8051", "risc", "aes", "router"}) {
    out.push_back({std::string("clean:") + family,
                   designs::build_clean(family), atpg_frames_for(family)});
  }
  return out;
}

TEST(GoldenSignatures, EveryDesignMatchesItsAtpgPin) {
  std::size_t covered = 0;
  for (const PinnedDesign& pinned : atpg_pinned_designs()) {
    SCOPED_TRACE(pinned.name);
    const GoldenEntry* entry = find_entry(kAtpgGolden, pinned.name);
    ASSERT_NE(entry, nullptr) << pinned.name << " has no ATPG golden pin";
    const std::string first = run_atpg_transcript(pinned.design, pinned.frames);
    EXPECT_EQ(run_atpg_transcript(pinned.design, pinned.frames), first)
        << "ATPG audit is not deterministic";
    const std::uint64_t actual = fnv1a(first);
    EXPECT_EQ(actual, entry->signature_hash)
        << pinned.name << ": ATPG transcript hash is 0x" << std::hex << actual;
    ++covered;
  }
  EXPECT_EQ(covered, std::size(kAtpgGolden));
}

// Harvest helper: prints the full golden tables for the current build.
TEST(GoldenSignatures, DISABLED_PrintCurrentTable) {
  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = 4;
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    const designs::Design design = info.build(true);
    std::printf("    {\"%s\", 0x%016llxull},\n", info.name.c_str(),
                static_cast<unsigned long long>(
                    fnv1a(run_signature(design, frames_for(info.family)))));
  }
  for (const char* family : {"mc8051", "risc", "aes", "router"}) {
    const designs::Design design = designs::build_clean(family);
    std::printf("    {\"clean:%s\", 0x%016llxull},\n", family,
                static_cast<unsigned long long>(
                    fnv1a(run_signature(design, frames_for(family)))));
  }
  std::printf("ATPG:\n");
  for (const PinnedDesign& pinned : atpg_pinned_designs()) {
    std::printf("    {\"%s\", 0x%016llxull},\n", pinned.name.c_str(),
                static_cast<unsigned long long>(fnv1a(
                    run_atpg_transcript(pinned.design, pinned.frames))));
  }
}

}  // namespace
}  // namespace trojanscout::core
