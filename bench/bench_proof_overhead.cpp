// Proof-emission overhead study for the certificate subsystem.
//
// For each Table 1-3 workload (the catalog Trojan cores plus the clean
// variants of every family), the harness runs the full Algorithm 1 audit
// three ways and diffs them:
//
//   * detect:  plain audit, core::ParallelDetector at one job (proof
//     logging off) — the baseline the <2%-when-disabled budget is measured
//     against (the listener hook is compiled in either way; "off" is a
//     null pointer check in the solver hot loop).
//   * certify: proof::certify with DRAT logging on, at 1/2/4/8 worker
//     threads — the overhead of recording the formula, streaming learned
//     and deleted clauses, and snapshotting per-frame UNSAT marks.
//   * check:   proof::check_certificate on the emitted certificate — the
//     independent verifier's cost (witness replay + backward DRAT check on
//     re-derived formulas), which should undercut certify time since lazy
//     backward checking skips every lemma outside the dependency core.
//
// The harness exits 1 if any certificate fails its own check, the 1-job
// and 8-job certificates are not byte-identical, or a certificate's report
// signature differs from the plain audit's.
//
//   --frames=N        unroll bound per obligation (default 8)
//   --budget=S        per-obligation engine budget (default 600)
//   --risc-trigger=N  RISC trigger count (default 4: tractable full audits)
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel_detector.hpp"
#include "proof/certificate.hpp"
#include "util/stopwatch.hpp"

namespace trojanscout {
namespace {

struct Workload {
  std::string name;
  designs::Design design;
};

core::DetectorOptions audit_options(const util::CliParser& cli) {
  core::DetectorOptions options;
  options.engine.kind = core::EngineKind::kBmc;
  options.engine.max_frames =
      static_cast<std::size_t>(cli.get_int("frames", 8));
  options.engine.time_limit_seconds = cli.get_double("budget", 600.0);
  options.scan_pseudo_critical = true;
  options.check_bypass = true;
  return options;
}

std::string percent(double baseline, double measured) {
  if (baseline <= 0.0) return "-";
  return util::cell_double(100.0 * (measured - baseline) / baseline, 1) + "%";
}

}  // namespace

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  if (!cli.check_flags({"risc-trigger", "frames", "budget"})) return 1;
  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count =
      static_cast<unsigned>(cli.get_int("risc-trigger", 4));

  std::vector<Workload> workloads;
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    workloads.push_back({info.name, info.build(/*payload_enabled=*/true)});
  }
  for (const char* family : {"mc8051", "risc", "aes", "router"}) {
    workloads.push_back(
        {std::string("clean-") + family, designs::build_clean(family)});
  }

  std::cout << "=== DRAT proof emission + certificate overhead "
               "(Algorithm 1, BMC) ===\n\n";

  util::Table table({"Workload", "Oblig.", "Detect t(s)", "Certify 1j",
                     "Overhead", "2j", "4j", "8j", "Proof KiB", "Check t(s)",
                     "Checked"});

  bool all_ok = true;
  for (auto& workload : workloads) {
    const core::DetectorOptions options = audit_options(cli);
    core::ParallelDetectorOptions detect_options;
    detect_options.detector = options;
    detect_options.jobs = 1;
    util::Stopwatch detect_timer;
    const core::DetectionReport report =
        core::ParallelDetector(workload.design, detect_options).run();
    const double detect_seconds = detect_timer.elapsed_seconds();

    proof::CertifyOptions certify_options;
    certify_options.detector = options;

    std::vector<std::string> cells = {workload.name,
                                      std::to_string(report.runs.size()),
                                      util::cell_double(detect_seconds, 2)};
    proof::Certificate certificate;
    std::string serial_dump;
    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
      certify_options.jobs = jobs;
      util::Stopwatch timer;
      proof::Certificate cert = proof::certify(workload.design, certify_options);
      const double seconds = timer.elapsed_seconds();
      const std::string dump = proof::certificate_to_json(cert).dump();
      if (jobs == 1) {
        certificate = std::move(cert);
        serial_dump = dump;
        cells.push_back(util::cell_double(seconds, 2));
        cells.push_back(percent(detect_seconds, seconds));
      } else {
        cells.push_back(util::cell_double(seconds, 2));
        if (dump != serial_dump) {
          std::cerr << "FAIL: " << workload.name << " certificate at jobs="
                    << jobs << " is not byte-identical to jobs=1\n";
          all_ok = false;
        }
      }
      std::cerr << "[proof] " << workload.name << " jobs=" << jobs << " done ("
                << util::cell_double(seconds, 2) << " s)\n";
    }
    if (certificate.report_signature != report.signature()) {
      std::cerr << "FAIL: " << workload.name
                << " certificate signature diverged from the plain audit\n";
      all_ok = false;
    }

    std::size_t proof_bytes = 0;
    for (const auto& record : certificate.records) {
      if (record.drat.has_value()) proof_bytes += record.drat->drat.size();
    }
    cells.push_back(util::cell_double(
        static_cast<double>(proof_bytes) / 1024.0, 1));

    util::Stopwatch check_timer;
    const proof::CertificateCheckResult check =
        proof::check_certificate(certificate, workload.design);
    cells.push_back(util::cell_double(check_timer.elapsed_seconds(), 2));
    cells.push_back(check.ok ? std::to_string(check.drat_marks_checked) +
                                   " marks"
                             : "REJECTED");
    if (!check.ok) {
      std::cerr << "FAIL: " << workload.name << " certificate rejected: "
                << (check.errors.empty() ? "?" : check.errors[0]) << "\n";
      all_ok = false;
    }
    table.add_row(cells);
  }

  table.print(std::cout);
  std::cout << "\nDetect = plain 1-job audit (proof listener null). "
               "Certify = same audit with binary-DRAT logging and witness "
               "capture; the Overhead column is the 1-job certify time "
               "against the detect baseline. Check = independent offline "
               "verification (witness replay + backward DRAT on re-derived "
               "formulas).\n";
  if (!all_ok) {
    std::cerr << "FAIL: at least one certificate check or determinism "
                 "invariant failed\n";
    return 1;
  }
  return 0;
}

}  // namespace trojanscout

int main(int argc, char** argv) { return trojanscout::run(argc, argv); }
