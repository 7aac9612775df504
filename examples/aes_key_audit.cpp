// Auditing a third-party AES-128 core for key-corrupting Trojans.
//
// An SoC integrator receives three versions of an AES IP and checks the key
// register against its two valid ways (reset, load) with both back ends:
//   * the clean core — certified for the unrolled bound;
//   * AES-T700 — the key is corrupted when a specific plaintext (which
//     happens to be the FIPS-197 example vector!) is encrypted;
//   * AES-T1200 — a 2^128-cycle time bomb, undetectable within any bound:
//     the detector reports exactly how many cycles it *can* vouch for.
//
// Run: ./aes_key_audit [--budget=seconds]
#include <iostream>

#include "core/detector.hpp"
#include "designs/aes.hpp"
#include "util/cli.hpp"

using namespace trojanscout;

namespace {

void audit(const char* label, const designs::Design& design, double budget,
           std::size_t max_frames) {
  core::DetectorOptions options;
  options.engine.kind = core::EngineKind::kBmc;
  options.engine.max_frames = max_frames;
  options.engine.time_limit_seconds = budget;
  core::TrojanDetector detector(design, options);
  const core::CheckResult result = detector.check_corruption("key_reg");

  std::cout << label << ": ";
  if (result.violated) {
    const auto& witness = *result.witness;
    std::cout << "KEY CORRUPTION at cycle " << witness.violation_frame
              << " (in " << result.seconds << " s)\n";
    // Find the plaintext of the encryption that triggered it.
    for (std::size_t t = 0; t < witness.frames.size(); ++t) {
      if (witness.port_value(design.nl, "start", t) != 0) {
        std::cout << "    start at cycle " << t << " with plaintext 0x"
                  << witness.port_bits(design.nl, "plaintext", t)
                         .to_hex_string()
                  << "\n";
      }
    }
  } else {
    std::cout << "no corruption — key register certified for "
              << result.frames_completed << " clock cycles ("
              << result.seconds << " s spent)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliParser cli(argc, argv);
  if (!cli.check_flags({"budget"})) return 1;
  const double budget = cli.get_double("budget", 60.0);

  std::cout << "Key-register contract: Reset=1 -> 0, Load=1 -> key input, "
               "otherwise hold.\n\n";

  audit("clean AES-128   ", designs::build_aes({}), budget, 64);

  designs::AesOptions t700;
  t700.trojan = designs::AesTrojan::kT700;
  audit("AES-T700 variant", designs::build_aes(t700), budget, 64);

  designs::AesOptions t1200;
  t1200.trojan = designs::AesTrojan::kT1200;
  audit("AES-T1200 bomb  ", designs::build_aes(t1200), budget, 64);

  std::cout << "\nAES-T1200's trigger needs ~2^128 clock cycles: no bounded "
               "check can reach it. The honest verdict is the paper's: "
               "\"trustworthy for the unrolled bound\" — reset the core "
               "before that many cycles elapse (Section 3.2).\n";
  return 0;
}
