// An SoC integrator's acceptance audit: run the paper's full Algorithm 1 —
// pseudo-critical scan, Eq. 2 corruption check, Eq. 4 bypass check — on a
// set of delivered 3PIPs, including one carrying a Section 4 evasion attack.
//
// The per-delivery property checks are scheduled across worker threads
// (--jobs, default: all hardware threads); the verdicts are identical to a
// serial run. --fail-fast stops a delivery's audit at its first finding.
//
// Observability taps: --trace-out writes the spans of every obligation
// (unroll → CNF → SAT frames → witness replay) as Chrome trace_event JSON —
// load it in Perfetto to see the worker threads chew through the audit.
// --metrics-out writes a JSON-lines run report (one "obligation" record per
// property run, one "summary" per delivery, one "counters" snapshot);
// every non-timing field is byte-identical for any --jobs value.
//
// --profile-out folds the span tree into a per-phase/per-obligation time
// attribution (deterministic JSON + a top-phases table on stderr);
// --progress[=SECS] renders a live heartbeat (aggregate over all deliveries'
// obligations) and arms the stall watchdog (--stall-window=SECS).
//
// Run: ./soc_audit [--budget=seconds] [--jobs=N] [--fail-fast]
//                  [--trace-out=trace.json] [--metrics-out=audit.jsonl]
//                  [--profile-out=profile.json] [--progress[=SECS]]
#include <iostream>
#include <memory>

#include "core/parallel_detector.hpp"
#include "core/telemetry_sink.hpp"
#include "designs/attacks.hpp"
#include "designs/catalog.hpp"
#include "designs/mc8051.hpp"
#include "designs/router.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/span.hpp"
#include "util/cli.hpp"
#include "util/resource.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace trojanscout;

int main(int argc, char** argv) {
  const util::CliParser cli(argc, argv);
  if (!cli.check_flags({"budget", "jobs", "fail-fast", "trace-out",
                        "metrics-out", "profile-out", "progress",
                        "stall-window"})) {
    return 1;
  }
  const double budget = cli.get_double("budget", 30.0);
  const std::size_t jobs = static_cast<std::size_t>(cli.get_int("jobs", 0));
  const bool fail_fast = cli.get_bool("fail-fast", false);
  const std::string trace_out = cli.get_string("trace-out", "");
  const std::string metrics_out = cli.get_string("metrics-out", "");
  const std::string profile_out = cli.get_string("profile-out", "");

  std::unique_ptr<telemetry::TraceRecorder> recorder;
  if (!trace_out.empty() || !profile_out.empty()) {
    recorder = std::make_unique<telemetry::TraceRecorder>();
    telemetry::TraceRecorder::set_global(recorder.get());
  }
  if (!metrics_out.empty() || !profile_out.empty()) {
    telemetry::Registry::global().set_enabled(true);
  }
  std::unique_ptr<telemetry::ProgressReporter> progress;
  if (cli.has("progress")) {
    telemetry::ProgressOptions po;
    po.interval_seconds = cli.get_double("progress", 1.0);
    po.stall_window_seconds = cli.get_double("stall-window", 30.0);
    progress = std::make_unique<telemetry::ProgressReporter>(po);
    telemetry::ProgressReporter::set_global(progress.get());
  }
  telemetry::RunReport metrics;

  struct Delivery {
    std::string vendor_claim;
    designs::Design design;
  };
  std::vector<Delivery> deliveries;

  deliveries.push_back({"clean microcontroller", designs::build_clean("mc8051")});

  {
    designs::Mc8051Options options;
    options.trojan = designs::Mc8051Trojan::kT800;
    deliveries.push_back(
        {"microcontroller (UART Trojan inside)", designs::build_mc8051(options)});
  }
  {
    // A vendor using the Section 4.1 evasion: the stack pointer is mirrored
    // into a shadow register that feeds its fanout, and the shadow is what
    // the (sequence-triggered) Trojan corrupts (Figure 2).
    designs::Mc8051Options options;
    options.trojan = designs::Mc8051Trojan::kT400;
    options.payload_enabled = false;
    designs::Design design = designs::build_mc8051(options);
    designs::plant_pseudo_critical(design, "sp");
    deliveries.push_back({"microcontroller (pseudo-critical attack inside)",
                          std::move(design)});
  }
  {
    // The sneaky vendor: the stack pointer itself is never corrupted; a
    // bypass register takes over its fanout when triggered (Figure 3).
    designs::Mc8051Options options;
    options.trojan = designs::Mc8051Trojan::kT800;
    options.payload_enabled = false;
    designs::Design design = designs::build_mc8051(options);
    designs::plant_bypass(design, "sp");
    deliveries.push_back({"microcontroller (bypass attack inside)",
                          std::move(design)});
  }

  {
    // A NoC router whose destination register is misrouted to the
    // attacker's port after a 3-flit magic sequence (the paper's third
    // motivating example).
    designs::RouterOptions options;
    options.trojan = designs::RouterTrojan::kMisroute;
    deliveries.push_back(
        {"packet router (misroute Trojan inside)", designs::build_router(options)});
  }

  util::Table table({"Delivery", "Verdict", "Findings",
                     "Trust bound (cycles)"});
  for (auto& delivery : deliveries) {
    core::ParallelDetectorOptions options;
    options.detector.engine.kind = core::EngineKind::kBmc;
    options.detector.engine.max_frames = 24;
    options.detector.engine.time_limit_seconds = budget;
    options.jobs = jobs;
    options.fail_fast = fail_fast;
    util::Stopwatch delivery_timer;
    core::ParallelDetector detector(delivery.design, options);
    const core::DetectionReport report = detector.run();
    if (!metrics_out.empty()) {
      core::append_detection_report(metrics, delivery.design.name, "BMC",
                                    report, delivery_timer.elapsed_seconds());
    }

    std::string findings;
    for (const auto& finding : report.findings) {
      findings += std::string(core::finding_kind_name(finding.kind)) + "(" +
                  finding.register_name + ") ";
    }
    table.add_row({delivery.vendor_claim,
                   report.trojan_found ? "REJECT" : "accept",
                   findings.empty() ? "-" : findings,
                   std::to_string(report.trust_bound_frames)});
    std::cerr << "[audit] " << delivery.vendor_claim << ": "
              << report.summary() << "\n";
  }

  if (progress != nullptr) {
    telemetry::ProgressReporter::set_global(nullptr);
    progress->stop();
    if (progress->stall_count() > 0) {
      std::cerr << "[audit] watchdog: " << progress->stall_count()
                << " stall(s) detected\n";
    }
  }
  if (recorder != nullptr) {
    telemetry::TraceRecorder::set_global(nullptr);
    if (!trace_out.empty()) {
      if (recorder->write_file(trace_out)) {
        std::cerr << "[audit] trace written to " << trace_out << " ("
                  << recorder->event_count() << " events)\n";
      } else {
        std::cerr << "[audit] cannot write " << trace_out << "\n";
      }
    }
  }
  if (!metrics_out.empty()) {
    core::append_registry_snapshot(metrics, telemetry::Registry::global());
    if (progress != nullptr) {
      telemetry::append_stall_records(metrics, *progress);
    }
    if (metrics.write_file(metrics_out)) {
      std::cerr << "[audit] metrics written to " << metrics_out << " ("
                << metrics.size() << " records)\n";
    } else {
      std::cerr << "[audit] cannot write " << metrics_out << "\n";
    }
  }
  if (!profile_out.empty() && recorder != nullptr) {
    const telemetry::Profile profile = telemetry::build_profile(
        *recorder, telemetry::Registry::global().snapshot());
    if (profile.write_file(profile_out)) {
      std::cerr << "[audit] profile written to " << profile_out << " ("
                << profile.phases.size() << " phases, "
                << profile.obligations.size() << " obligations)\n";
      std::cerr << "[audit] top phases by exclusive time:\n"
                << profile.top_table(10);
    } else {
      std::cerr << "[audit] cannot write " << profile_out << "\n";
    }
  }

  std::cout << "\n=== SoC integration audit ===\n\n";
  table.print(std::cout);
  std::cout << "\nPeak RSS: " << util::peak_rss_summary();
  std::cout << "\nProperty runs per delivery cover: Eq. 3 pseudo-critical "
               "scan over same-width register pairs, Eq. 2 corruption per "
               "critical register, Eq. 4 bypass miter where the spec "
               "declares observability obligations (Algorithm 1).\n";
  return 0;
}
