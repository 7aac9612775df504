// Regenerates Table 2: the valid ways to update the RISC's registers, as
// registered in the machine-readable spec the monitors are generated from.
// The rows are printed straight from the DesignSpec — this is the defender's
// "datasheet contract" the Eq. 2 monitors enforce.
#include <iostream>

#include "bench_common.hpp"
#include "designs/risc.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace trojanscout;
  const util::CliParser cli(argc, argv);
  if (!bench::check_flags(cli, bench::kConfigFlags | bench::kSinkFlags, {})) {
    return 1;
  }
  const bench::BenchConfig config = bench::BenchConfig::from_cli(cli);
  bench::MetricsSink sink(cli, "table2");

  // This bench runs no engines; the only measurable work is building the
  // RISC design + spec, so that is what the --bench-out artifact tracks.
  for (std::size_t rep = 1; rep < config.repeats; ++rep) {
    util::Stopwatch timer;
    (void)designs::build_risc({});
    sink.bench().add_sample("build:risc", timer.elapsed_seconds());
  }
  util::Stopwatch build_timer;
  const designs::Design design = designs::build_risc({});
  sink.bench().add_sample("build:risc", build_timer.elapsed_seconds());
  // The machine-readable twin of the table: one "spec" record per register
  // (this bench runs no engines, so there are no timing fields at all).
  for (const auto& spec : design.spec.registers) {
    if (!sink.enabled()) break;
    sink.report()
        .add("spec")
        .set("design", design.name)
        .set("register", spec.reg)
        .set("ways", spec.ways.size())
        .set("obligations", spec.obligations.size());
  }
  std::cout << "=== Table 2: Valid ways to update registers in RISC ===\n\n";

  util::Table table({"Register", "Cycle", "Valid way", "Value"});
  for (const auto& spec : design.spec.registers) {
    bool first = true;
    for (const auto& way : spec.ways) {
      table.add_row({first ? spec.reg : "", way.cycle_label, way.description,
                     way.value_description});
      first = false;
    }
  }
  table.print(std::cout);

  std::cout << "\nObservability obligations (used by the Eq. 4 bypass "
               "check):\n\n";
  util::Table obligations({"Register", "Obligation", "Latency"});
  for (const auto& spec : design.spec.registers) {
    for (const auto& o : spec.obligations) {
      obligations.add_row(
          {spec.reg, o.description, std::to_string(o.latency)});
    }
  }
  obligations.print(std::cout);
  return sink.flush() ? 0 : 1;
}
