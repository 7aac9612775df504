#include "core/parallel_detector.hpp"

#include <utility>
#include <vector>

#include "telemetry/progress.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace trojanscout::core {

ParallelDetector::ParallelDetector(const designs::Design& design,
                                   ParallelDetectorOptions options)
    : design_(design), options_(std::move(options)) {}

DetectionReport ParallelDetector::run() {
  // Root span for the whole audit; obligation spans running on pool workers
  // attach to it by explicit id (the thread-local span stack does not cross
  // threads).
  telemetry::Span audit_span("audit");
  const std::uint64_t audit_id = audit_span.id();
  // The merge detector sees the caller's options verbatim; the worker
  // detector additionally carries the shared cancellation flag (only armed
  // in fail_fast mode so a plain run cannot depend on it).
  TrojanDetector merger(design_, options_.detector);
  const std::vector<Obligation> obligations = merger.enumerate_obligations();

  util::CancellationToken cancel;
  DetectorOptions worker_options = options_.detector;
  if (options_.fail_fast) {
    worker_options.engine.cancel = cancel.flag();
  }
  const TrojanDetector worker(design_, worker_options);

  // The shared netlist's fanout cache is materialized before workers start
  // copying the design concurrently (every engine run begins with a copy).
  (void)design_.nl.fanouts();

  telemetry::ProgressReporter* reporter = telemetry::ProgressReporter::global();
  if (reporter != nullptr) reporter->add_planned(obligations.size());

  std::vector<CheckResult> results(obligations.size());
  {
    util::ThreadPool pool(options_.jobs);
    for (std::size_t i = 0; i < obligations.size(); ++i) {
      pool.submit([this, &worker, &obligations, &results, &cancel, audit_id,
                   reporter, i] {
        if (options_.fail_fast && cancel.cancelled()) {
          results[i].status = "cancelled";
          results[i].cancelled = true;
          return;
        }
        telemetry::Span span("obligation:" + obligations[i].property_name(),
                             audit_id);
        TS_COUNTER_ADD("detector.obligations", 1);
        // A store hit serves the verdict without any engine run; a miss
        // computes and feeds the store. Either way the result still flows
        // through the fail-fast classification below, so a cached finding
        // cancels outstanding obligations exactly like a fresh one.
        const bool hit = options_.store != nullptr &&
                         options_.store->lookup(obligations[i], results[i]);
        if (hit) {
          if (reporter != nullptr) {
            // Keep the heartbeat's done/planned tally honest.
            reporter->begin(obligations[i].property_name())->finish();
          }
        } else {
          std::shared_ptr<telemetry::ProgressReporter::Task> task;
          EngineOptions engine = worker.options().engine;
          if (reporter != nullptr) {
            task = reporter->begin(obligations[i].property_name());
            engine.progress = &task->cells;
          }
          results[i] = worker.run_obligation(obligations[i], engine);
          if (task != nullptr) task->finish();
          if (options_.store != nullptr) {
            options_.store->store(obligations[i], results[i]);
          }
        }
        if (options_.fail_fast &&
            worker.is_finding(obligations[i], results[i])) {
          TS_LOG_INFO("parallel-detector: fail-fast cancel after %s",
                      obligations[i].property_name().c_str());
          cancel.cancel();
        }
      });
    }
    pool.wait_idle();
  }

  return merger.merge_obligations(obligations, results);
}

}  // namespace trojanscout::core
