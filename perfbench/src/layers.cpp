// Per-layer probes of the traced run, and the DIMACS recorder.
//
// Each probe calls one module's public functions on the workload's own
// designs (the fuzz probe takes the fuzz-corpus inputs and the sat probe the
// checked-in DIMACS files instead), inside spans, and reads the module's
// work counts off the results it returns. Probes run serially, after the
// workload's passes, so one module's numbers are not disturbed by another's
// threads.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "cache/verdict_codec.hpp"
#include "cnf/unroller.hpp"
#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "fuzz/mutation.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace core = ts::core;
namespace designs = ts::designs;

namespace {

/// Counts the clauses an encoder hands the solver.
class ClauseCounter final : public ts::sat::ProofListener {
 public:
  void on_input(const ts::sat::Clause& /*clause*/) override { ++inputs; }
  void on_learn(const ts::sat::Clause& /*clause*/) override {}
  void on_delete(const ts::sat::Clause& /*clause*/) override {}
  void on_solve_unsat(const std::vector<ts::sat::Lit>& /*a*/) override {}
  std::uint64_t inputs = 0;
};

/// Times every lookup and store of the wrapped verdict store. Not
/// thread-safe: the cache probe audits at jobs=1, so one worker calls it.
class TimedStore final : public core::VerdictStore {
 public:
  explicit TimedStore(core::VerdictStore& inner) : inner_(inner) {}
  bool lookup(const core::Obligation& obligation,
              core::CheckResult& out) override {
    const double start = wall_seconds();
    const bool hit = inner_.lookup(obligation, out);
    lookup_seconds += wall_seconds() - start;
    ++lookups;
    if (hit) ++hits;
    return hit;
  }
  void store(const core::Obligation& obligation,
             const core::CheckResult& result) override {
    const double start = wall_seconds();
    inner_.store(obligation, result);
    store_seconds += wall_seconds() - start;
    ++stores;
  }
  double lookup_seconds = 0.0;
  double store_seconds = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t stores = 0;

 private:
  core::VerdictStore& inner_;
};

/// One Eq. 2 obligation of a probe design, instrumented.
struct ProbeObligation {
  std::size_t design = 0;
  std::size_t frames = 0;
  core::Obligation obligation;
  core::TrojanDetector::InstrumentedProperty property;
};

/// Engines other than the workload's own run at most this many frames in
/// the probes, so a probe of an idle engine stays short.
constexpr std::size_t kIdleEngineFrames = 12;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

core::EngineOptions engine_options(core::EngineKind kind, std::size_t frames) {
  return audit_options(kind, frames).engine;
}

void probe_fuzz(const Args& args, Tracer& tracer, Metrics& metrics) {
  std::vector<ts::fuzz::MutationSpec> corpus;
  {
    Span span(&tracer, "fuzz.generate");
    corpus = fuzz_corpus(args.seed);
  }
  for (const auto& spec : corpus) {
    ts::fuzz::Mutant mutant;
    {
      Span span(&tracer, "fuzz.build_mutant");
      mutant = ts::fuzz::build_mutant(spec);
    }
    // The harness's reachability check: replay the activation sequence.
    Span span(&tracer, "sim.replay");
    ts::sim::Simulator simulator(mutant.design.nl);
    simulator.reset();
    for (const auto& frame : mutant.activation) {
      simulator.set_inputs(frame.bits);
      simulator.eval();
      if (simulator.value(mutant.design.trojan_trigger)) break;
      simulator.step();
    }
  }
  metrics.set("fuzz.generate_ms", tracer.total("fuzz.generate") * 1e3, "ms");
  metrics.set("fuzz.build_mutant_ms", tracer.total("fuzz.build_mutant") * 1e3,
              "ms");
  metrics.set("sim.replay_ms", tracer.total("sim.replay") * 1e3, "ms");
}

void probe_sim(const ProbeInputs& inputs, std::uint64_t seed, Tracer& tracer,
               Metrics& metrics) {
  constexpr std::size_t kCycles = 2000;
  std::mt19937_64 rng(seed);
  double gate_evals = 0.0;
  for (const auto& design : inputs.designs) {
    const auto& nl = design.nl;
    std::vector<ts::util::BitVec> frames;
    for (std::size_t t = 0; t < kCycles; ++t) {
      ts::util::BitVec bits(nl.num_inputs());
      for (std::size_t b = 0; b < nl.num_inputs(); ++b) bits.set(b, rng() & 1);
      frames.push_back(std::move(bits));
    }
    Span span(&tracer, "sim.run");
    ts::sim::Simulator simulator(nl);
    simulator.reset();
    for (const auto& bits : frames) {
      simulator.set_inputs(bits);
      simulator.step();
    }
    gate_evals += static_cast<double>(nl.size()) * kCycles;
  }
  metrics.set("sim.gate_evals_per_s",
              ratio(gate_evals, tracer.total("sim.run")), "1/s");
}

std::vector<ProbeObligation> probe_obligations(const ProbeInputs& inputs,
                                               Tracer& tracer,
                                               Metrics& metrics) {
  // Every obligation is instrumented (properties layer); the Eq. 2 ones
  // feed the encoder and engine probes.
  std::vector<ProbeObligation> out;
  double monitor_gates = 0.0;
  for (std::size_t d = 0; d < inputs.designs.size(); ++d) {
    const auto& design = inputs.designs[d];
    const core::TrojanDetector detector(
        design, audit_options(inputs.engine, inputs.frames[d]));
    for (const auto& obligation : detector.enumerate_obligations()) {
      core::TrojanDetector::InstrumentedProperty property;
      {
        Span span(&tracer, "properties.instrument");
        property = detector.instrument_obligation(obligation);
      }
      monitor_gates += static_cast<double>(property.nl.size()) -
                       static_cast<double>(design.nl.size());
      if (obligation.kind == core::Obligation::Kind::kCorruption) {
        out.push_back({d, inputs.frames[d], obligation, std::move(property)});
      }
    }
  }
  metrics.set("properties.instrument_ms",
              tracer.total("properties.instrument") * 1e3, "ms");
  metrics.set("properties.monitor_gates", monitor_gates, "count");
  return out;
}

void probe_cnf(const std::vector<ProbeObligation>& probes, Tracer& tracer,
               Metrics& metrics) {
  double clauses = 0.0;
  double vars = 0.0;
  double frames = 0.0;
  for (const auto& probe : probes) {
    ts::sat::Solver solver;
    ClauseCounter counter;
    solver.set_proof_listener(&counter);
    ts::cnf::Unroller unroller(probe.property.nl, solver, {probe.property.bad});
    for (std::size_t f = 0; f < probe.frames; ++f) {
      Span span(&tracer, "cnf.add_frame");
      unroller.add_frame();
    }
    clauses += static_cast<double>(counter.inputs);
    vars += static_cast<double>(unroller.vars_allocated());
    frames += static_cast<double>(probe.frames);
  }
  metrics.set("cnf.frame_us",
              ratio(tracer.total("cnf.add_frame") * 1e6, frames), "us");
  metrics.set("cnf.clauses_per_frame", ratio(clauses, frames), "count");
  metrics.set("cnf.vars_per_frame", ratio(vars, frames), "count");
}

void probe_sat(const Args& args, Tracer& tracer, Metrics& metrics) {
  std::vector<std::filesystem::path> files;
  if (std::filesystem::is_directory(args.dimacs_dir)) {
    for (const auto& entry :
         std::filesystem::directory_iterator(args.dimacs_dir)) {
      if (entry.path().extension() == ".cnf") files.push_back(entry.path());
    }
  }
  if (files.empty()) {
    throw std::runtime_error("no DIMACS files in " + args.dimacs_dir);
  }
  std::sort(files.begin(), files.end());
  ts::sat::SolverStats total;
  for (const auto& file : files) {
    std::ifstream in(file);
    const ts::sat::CnfFormula formula = ts::sat::parse_dimacs(in);
    Span span(&tracer, "sat.solve");
    ts::sat::Solver solver;
    while (solver.num_vars() < formula.num_vars) solver.new_var();
    for (const auto& clause : formula.clauses) solver.add_clause(clause);
    // Every recorded query is the deepest clean frame of its obligation.
    if (solver.solve() != ts::sat::SolveResult::kUnsat) {
      throw std::runtime_error(file.string() + ": expected UNSAT");
    }
    total.propagations += solver.stats().propagations;
    total.conflicts += solver.stats().conflicts;
    total.decisions += solver.stats().decisions;
  }
  const double seconds = tracer.total("sat.solve");
  metrics.set("sat.fixed_cnf_ms", seconds * 1e3, "ms");
  metrics.set("sat.props_per_s",
              ratio(static_cast<double>(total.propagations), seconds), "1/s");
  metrics.set("sat.propagations", static_cast<double>(total.propagations),
              "count");
  metrics.set("sat.conflicts", static_cast<double>(total.conflicts), "count");
  metrics.set("sat.decisions", static_cast<double>(total.decisions), "count");
}

/// Runs one back end on every probe obligation; returns the results.
std::vector<core::CheckResult> probe_engine(
    const ProbeInputs& inputs, const std::vector<ProbeObligation>& probes,
    core::EngineKind kind, Tracer& tracer) {
  const std::string name = std::string(core::engine_flag_name(kind)) + ".probe";
  std::vector<core::CheckResult> results;
  for (const auto& probe : probes) {
    const std::size_t frames = kind == inputs.engine
                                   ? probe.frames
                                   : std::min(probe.frames, kIdleEngineFrames);
    Span span(&tracer, name);
    results.push_back(core::run_engine(probe.property.nl, probe.property.bad,
                                       engine_options(kind, frames)));
  }
  return results;
}

void probe_engines(const ProbeInputs& inputs,
                   const std::vector<ProbeObligation>& probes, Tracer& tracer,
                   Metrics& metrics) {
  double frames = 0.0;
  for (const auto& check :
       probe_engine(inputs, probes, core::EngineKind::kBmc, tracer)) {
    frames += static_cast<double>(check.frames_completed);
  }
  metrics.set("bmc.obligation_ms", median(tracer.durations("bmc.probe")) * 1e3,
              "ms");
  metrics.set("bmc.frames", frames, "count");

  double implications = 0.0;
  double decisions = 0.0;
  double backtracks = 0.0;
  double aborted = 0.0;
  for (const auto& check :
       probe_engine(inputs, probes, core::EngineKind::kAtpg, tracer)) {
    implications += static_cast<double>(check.counters.atpg_implications);
    decisions += static_cast<double>(check.counters.atpg_decisions);
    backtracks += static_cast<double>(check.counters.atpg_backtracks);
    aborted += static_cast<double>(check.counters.atpg_frames_aborted);
  }
  metrics.set("atpg.implications_per_s",
              ratio(implications, tracer.total("atpg.probe")), "1/s");
  metrics.set("atpg.decisions", decisions, "count");
  metrics.set("atpg.backtracks", backtracks, "count");
  metrics.set("atpg.frames_aborted", aborted, "count");

  double pdr_frames = 0.0;
  double ctis = 0.0;
  double obligations = 0.0;
  double pushed = 0.0;
  for (const auto& check :
       probe_engine(inputs, probes, core::EngineKind::kPdr, tracer)) {
    pdr_frames += static_cast<double>(check.counters.pdr_frames);
    ctis += static_cast<double>(check.counters.pdr_ctis);
    obligations += static_cast<double>(check.counters.pdr_obligations);
    pushed += static_cast<double>(check.counters.pdr_pushed_clauses);
  }
  metrics.set("pdr.obligation_ms", median(tracer.durations("pdr.probe")) * 1e3,
              "ms");
  metrics.set("pdr.frames", pdr_frames, "count");
  metrics.set("pdr.ctis", ctis, "count");
  metrics.set("pdr.obligations", obligations, "count");
  metrics.set("pdr.pushed_clauses", pushed, "count");

  double winner_s = 0.0;
  double leg_s = 0.0;
  double wins[3] = {0.0, 0.0, 0.0};
  double proven = 0.0;
  for (const auto& check :
       probe_engine(inputs, probes, core::EngineKind::kPortfolio, tracer)) {
    if (check.proven_unbounded) proven += 1.0;
    for (const auto& leg : check.portfolio) {
      leg_s += leg.seconds;
      if (!leg.won) continue;
      winner_s += leg.seconds;
      wins[static_cast<int>(leg.engine) % 3] += 1.0;
    }
  }
  metrics.set("portfolio.useful_ratio", ratio(winner_s, leg_s), "ratio");
  metrics.set("portfolio.loser_s", leg_s - winner_s, "s");
  metrics.set("portfolio.wins_bmc", wins[0], "count");
  metrics.set("portfolio.wins_atpg", wins[1], "count");
  metrics.set("portfolio.wins_pdr", wins[2], "count");
  metrics.set("proven_unbounded", proven, "count");
}

/// The probe designs' Eq. 2 + Eq. 4 audit through the scheduler.
double probe_audit(const ProbeInputs& inputs, std::size_t jobs,
                   core::VerdictStore* store, std::vector<double>* seconds) {
  const double start = wall_seconds();
  for (std::size_t d = 0; d < inputs.designs.size(); ++d) {
    const auto& design = inputs.designs[d];
    core::ParallelDetectorOptions po;
    po.detector = audit_options(inputs.engine, inputs.frames[d]);
    po.detector.scan_pseudo_critical = false;
    po.jobs = jobs;
    po.store = store;
    const auto report = core::ParallelDetector(design, po).run();
    if (seconds == nullptr) continue;
    for (const auto& run : report.runs) seconds->push_back(run.check.seconds);
  }
  return wall_seconds() - start;
}

void probe_core(const ProbeInputs& inputs, Tracer& tracer, Metrics& metrics) {
  std::vector<double> obligation_seconds;
  double wall[3] = {0.0, 0.0, 0.0};
  const std::size_t jobs[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    Span span(&tracer, "core.audit_j" + std::to_string(jobs[i]));
    wall[i] = probe_audit(inputs, jobs[i], nullptr,
                          jobs[i] == 2 ? &obligation_seconds : nullptr);
  }
  double busy = 0.0;
  for (const double s : obligation_seconds) busy += s;
  metrics.set("core.speedup_j2", ratio(wall[0], wall[1]), "ratio");
  metrics.set("core.speedup_j4", ratio(wall[0], wall[2]), "ratio");
  metrics.set("core.idle_frac", std::max(0.0, 1.0 - ratio(busy, 2 * wall[1])),
              "ratio");
  metrics.set("core.tail_ms", tail_of(obligation_seconds).value * 1e3, "ms");
}

void probe_cache(const Args& args, const ProbeInputs& inputs, Tracer& tracer,
                 Metrics& metrics) {
  const std::string dir = args.work_dir + "/probe-cache";
  std::filesystem::remove_all(dir);
  double lookup_s = 0.0;
  double store_s = 0.0;
  double lookups = 0.0;
  double hits = 0.0;
  double stores = 0.0;
  double bytes = 0.0;
  {
    ts::cache::VerdictCache::Options options;
    options.dir = dir;
    ts::cache::VerdictCache cache(options);
    // Cold pass stores every verdict, warm pass reads them back.
    for (const char* pass : {"cache.cold", "cache.warm"}) {
      Span span(&tracer, pass);
      for (std::size_t d = 0; d < inputs.designs.size(); ++d) {
        const auto& design = inputs.designs[d];
        core::DetectorOptions detector =
            audit_options(inputs.engine, inputs.frames[d]);
        detector.scan_pseudo_critical = false;
        ts::cache::AuditVerdictStore inner(cache, design, detector, false);
        TimedStore timed(inner);
        core::ParallelDetectorOptions po;
        po.detector = detector;
        po.jobs = 1;
        po.store = &timed;
        (void)core::ParallelDetector(design, po).run();
        lookup_s += timed.lookup_seconds;
        store_s += timed.store_seconds;
        lookups += static_cast<double>(timed.lookups);
        hits += static_cast<double>(timed.hits);
        stores += static_cast<double>(timed.stores);
      }
    }
    bytes = static_cast<double>(cache.total_bytes());
  }
  std::filesystem::remove_all(dir);
  metrics.set("cache.lookup_us", ratio(lookup_s * 1e6, lookups), "us");
  metrics.set("cache.store_us", ratio(store_s * 1e6, stores), "us");
  metrics.set("cache.hit_ratio", ratio(hits, lookups), "ratio");
  metrics.set("cache.bytes", bytes, "bytes");
}

}  // namespace

void run_layer_probes(const Args& args, const ProbeInputs& inputs,
                      Tracer& tracer, Metrics& metrics) {
  const auto timed = [&](const char* name, const std::function<void()>& fn) {
    const double start = wall_seconds();
    fn();
    std::printf("probe %-10s %.3f s\n", name, wall_seconds() - start);
  };
  timed("fuzz", [&] { probe_fuzz(args, tracer, metrics); });
  timed("sim", [&] { probe_sim(inputs, args.seed, tracer, metrics); });
  std::vector<ProbeObligation> probes;
  timed("properties",
        [&] { probes = probe_obligations(inputs, tracer, metrics); });
  timed("cnf", [&] { probe_cnf(probes, tracer, metrics); });
  timed("sat", [&] { probe_sat(args, tracer, metrics); });
  timed("engines", [&] { probe_engines(inputs, probes, tracer, metrics); });
  timed("core", [&] { probe_core(inputs, tracer, metrics); });
  timed("cache", [&] { probe_cache(args, inputs, tracer, metrics); });
}

// ---- DIMACS recorder ------------------------------------------------------

namespace {

/// Keeps the input clauses and the assumptions of the latest UNSAT solve:
/// together they are the engine's query for its deepest clean frame.
class QueryRecorder final : public ts::sat::ProofListener {
 public:
  void on_input(const ts::sat::Clause& clause) override {
    inputs.push_back(clause);
  }
  void on_learn(const ts::sat::Clause& /*clause*/) override {}
  void on_delete(const ts::sat::Clause& /*clause*/) override {}
  void on_solve_unsat(const std::vector<ts::sat::Lit>& assumptions) override {
    query_inputs = inputs.size();
    query_assumptions = assumptions;
  }
  std::vector<ts::sat::Clause> inputs;
  std::size_t query_inputs = 0;
  std::vector<ts::sat::Lit> query_assumptions;
};

}  // namespace

int record_dimacs(const std::string& dir) {
  struct Query {
    std::string file;
    std::function<designs::Design()> build;
    core::Obligation obligation;
    std::size_t frames;
  };
  const auto corruption = [](const std::string& reg) {
    core::Obligation ob;
    ob.kind = core::Obligation::Kind::kCorruption;
    ob.reg = reg;
    return ob;
  };
  const auto bypass = [](const std::string& reg) {
    core::Obligation ob;
    ob.kind = core::Obligation::Kind::kBypass;
    ob.reg = reg;
    return ob;
  };
  // Among the slowest bmc-audit obligations, those whose query stays small
  // (the AES Eq. 4 miter's would be 21 MB of DIMACS).
  const std::vector<Query> queries = {
      {"risc_bypass_interrupt_enable_f24.cnf",
       [] { return designs::build_clean("risc"); }, bypass("interrupt_enable"),
       24},
      {"risc_corruption_program_counter_f24.cnf",
       [] { return designs::build_clean("risc"); },
       corruption("program_counter"), 24},
      {"aes_corruption_key_reg_f8.cnf",
       [] { return designs::build_clean("aes"); }, corruption("key_reg"), 8},
  };
  std::filesystem::create_directories(dir);
  for (const auto& query : queries) {
    const designs::Design design = query.build();
    core::DetectorOptions options =
        audit_options(core::EngineKind::kBmc, query.frames);
    const core::TrojanDetector detector(design, options);
    QueryRecorder recorder;
    core::EngineOptions engine = options.engine;
    engine.proof = &recorder;
    const core::CheckResult check =
        detector.run_obligation(query.obligation, engine);
    if (check.violated || recorder.query_inputs == 0) {
      std::fprintf(stderr, "%s: no clean frame to record\n",
                   query.file.c_str());
      return 1;
    }
    ts::sat::CnfFormula formula;
    const auto query_end =
        recorder.inputs.begin() +
        static_cast<std::ptrdiff_t>(recorder.query_inputs);
    formula.clauses.assign(recorder.inputs.begin(), query_end);
    for (const auto lit : recorder.query_assumptions) {
      formula.clauses.push_back({lit});
    }
    for (const auto& clause : formula.clauses) {
      for (const auto lit : clause) {
        formula.num_vars = std::max(formula.num_vars, lit.var() + 1);
      }
    }
    std::ofstream out(std::filesystem::path(dir) / query.file);
    out << "c " << design.name << " " << query.obligation.property_name()
        << ", BMC query of frame " << check.frames_completed - 1
        << " (UNSAT)\n";
    ts::sat::write_dimacs(out, formula);
    std::printf("%s: %d vars, %zu clauses\n", query.file.c_str(),
                formula.num_vars, formula.clauses.size());
  }
  return 0;
}

}  // namespace perfbench
