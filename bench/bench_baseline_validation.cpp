// Validation of the FANCI / VeriTrust baselines (the paper's premise).
//
// Each baseline must catch a naive Trojan (wide one-shot comparator against
// a secret pattern) and miss the same Trojan after DeTrust hardening — the
// reason the paper's formal approach exists. Also reports false-positive
// counts on clean logic, a known weakness of both techniques.
#include <iostream>

#include "baselines/fanci.hpp"
#include "baselines/veritrust.hpp"
#include "bench_common.hpp"
#include "designs/aes.hpp"
#include "designs/mc8051.hpp"

int main(int argc, char** argv) {
  using namespace trojanscout;
  const util::CliParser cli(argc, argv);
  if (!cli.check_flags({})) return 1;

  std::cout << "=== Baseline validation: naive vs DeTrust-hardened Trojans "
               "===\n\n";
  util::Table table({"Design", "Trojan variant", "FANCI", "FANCI suspects",
                     "VeriTrust", "VT suspects"});

  struct Case {
    std::string label;
    std::string variant;
    designs::Design design;
    std::string family;
    std::size_t workload_cycles;
  };
  std::vector<Case> cases;

  {
    designs::Mc8051Options o;
    o.trojan = designs::Mc8051Trojan::kT700;
    o.detrust_hardened = false;
    cases.push_back({"mc8051-T700", "naive comparator", designs::build_mc8051(o),
                     "mc8051", 20000});
  }
  {
    designs::Mc8051Options o;
    o.trojan = designs::Mc8051Trojan::kT700;
    cases.push_back({"mc8051-T700", "DeTrust-hardened",
                     designs::build_mc8051(o), "mc8051", 20000});
  }
  {
    designs::AesOptions o;
    o.trojan = designs::AesTrojan::kT700;
    o.detrust_hardened = false;
    cases.push_back({"aes-T700", "naive comparator", designs::build_aes(o),
                     "aes", 6000});
  }
  {
    designs::AesOptions o;
    o.trojan = designs::AesTrojan::kT700;
    cases.push_back(
        {"aes-T700", "DeTrust-hardened", designs::build_aes(o), "aes", 6000});
  }

  for (const auto& c : cases) {
    const auto fanci = baselines::run_fanci(c.design.nl);
    bool fanci_hit = false;
    for (const auto& s : fanci.suspects) {
      fanci_hit = fanci_hit || c.design.is_trojan_gate(s.signal);
    }
    const auto workload = baselines::generate_workload(
        c.design.nl, c.family, c.workload_cycles, 42);
    const auto veritrust = baselines::run_veritrust(c.design.nl, workload);
    bool veritrust_hit = false;
    for (const auto& s : veritrust.suspects) {
      veritrust_hit = veritrust_hit || c.design.is_trojan_gate(s.signal);
    }
    table.add_row({c.label, c.variant, fanci_hit ? "DETECTED" : "missed",
                   std::to_string(fanci.suspects.size()),
                   veritrust_hit ? "DETECTED" : "missed",
                   std::to_string(veritrust.suspects.size())});
    std::cerr << "[baseline] " << c.label << " " << c.variant << " done\n";
  }
  table.print(std::cout);
  std::cout << "\n(Suspect counts include the techniques' false positives "
               "on clean logic — rare decodes for FANCI, rarely exercised "
               "paths for VeriTrust.)\n";
  return 0;
}
