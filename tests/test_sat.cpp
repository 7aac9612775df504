// CDCL solver tests: hand-crafted formulas, incremental assumptions, and a
// parameterized randomized cross-check against brute-force enumeration.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "proof/drat.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace trojanscout::sat {
namespace {

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
}

TEST(SatSolver, UnitClauseForcesModel) {
  Solver solver;
  const Var v = solver.new_var();
  ASSERT_TRUE(solver.add_clause(Lit(v, false)));
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(v));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  Solver solver;
  const Var v = solver.new_var();
  solver.add_clause(Lit(v, false));
  EXPECT_FALSE(solver.add_clause(Lit(v, true)));
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, SimpleImplicationChain) {
  // (a) & (~a | b) & (~b | c)  =>  model with a=b=c=1.
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  const Var c = solver.new_var();
  solver.add_clause(Lit(a, false));
  solver.add_clause(Lit(a, true), Lit(b, false));
  solver.add_clause(Lit(b, true), Lit(c, false));
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(a));
  EXPECT_TRUE(solver.model_value(b));
  EXPECT_TRUE(solver.model_value(c));
}

TEST(SatSolver, PigeonHole3Into2IsUnsat) {
  // 3 pigeons, 2 holes: x[p][h] says pigeon p in hole h.
  Solver solver;
  Var x[3][2];
  for (auto& row : x) {
    for (auto& v : row) v = solver.new_var();
  }
  for (int p = 0; p < 3; ++p) {
    solver.add_clause(Lit(x[p][0], false), Lit(x[p][1], false));
  }
  for (int h = 0; h < 2; ++h) {
    for (int p1 = 0; p1 < 3; ++p1) {
      for (int p2 = p1 + 1; p2 < 3; ++p2) {
        solver.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
      }
    }
  }
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, AssumptionsRestrictModels) {
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  solver.add_clause(Lit(a, false), Lit(b, false));  // a | b
  ASSERT_EQ(solver.solve({Lit(a, true)}), SolveResult::kSat);
  EXPECT_FALSE(solver.model_value(a));
  EXPECT_TRUE(solver.model_value(b));
  // Solver remains reusable with contradictory assumptions.
  solver.add_clause(Lit(b, true));  // now b must be false => a must be true
  EXPECT_EQ(solver.solve({Lit(a, true)}), SolveResult::kUnsat);
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(a));
}

TEST(SatSolver, ConflictLimitYieldsUnknown) {
  // A hard instance (pigeonhole 6 into 5) with a 1-conflict budget.
  Solver solver;
  constexpr int kPigeons = 6;
  constexpr int kHoles = 5;
  std::vector<std::vector<Var>> x(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : x) {
    for (auto& v : row) v = solver.new_var();
  }
  for (int p = 0; p < kPigeons; ++p) {
    Clause c;
    for (int h = 0; h < kHoles; ++h) c.emplace_back(x[p][h], false);
    solver.add_clause(c);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        solver.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
      }
    }
  }
  Budget budget;
  budget.conflict_limit = 1;
  EXPECT_EQ(solver.solve({}, budget), SolveResult::kUnknown);
  // And solvable to completion afterwards.
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

// ---- randomized cross-check -------------------------------------------------

bool brute_force_sat(int num_vars, const std::vector<Clause>& clauses) {
  for (unsigned assignment = 0; assignment < (1u << num_vars); ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (const Lit lit : clause) {
        const bool value = ((assignment >> lit.var()) & 1u) != 0;
        if (value != lit.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

struct RandomCnfParams {
  int num_vars;
  int num_clauses;
  int clause_width;
  std::uint64_t seed;
};

// Names each case by its fields, so the test name stays the same across
// builds (gtest would otherwise print the struct's padding bytes).
void PrintTo(const RandomCnfParams& p, std::ostream* os) {
  *os << p.num_vars << " vars " << p.num_clauses << " clauses width "
      << p.clause_width << " seed " << p.seed;
}

class SatRandomCross : public ::testing::TestWithParam<RandomCnfParams> {};

TEST_P(SatRandomCross, MatchesBruteForce) {
  const auto params = GetParam();
  util::Xoshiro256 rng(params.seed);
  for (int round = 0; round < 30; ++round) {
    Solver solver;
    std::vector<Clause> clauses;
    for (int v = 0; v < params.num_vars; ++v) solver.new_var();
    for (int c = 0; c < params.num_clauses; ++c) {
      Clause clause;
      for (int k = 0; k < params.clause_width; ++k) {
        const Var v =
            static_cast<Var>(rng.next_below(params.num_vars));
        clause.emplace_back(v, rng.next_bool());
      }
      clauses.push_back(clause);
      solver.add_clause(clause);
    }
    const bool expected = brute_force_sat(params.num_vars, clauses);
    const SolveResult got = solver.solve();
    ASSERT_EQ(got, expected ? SolveResult::kSat : SolveResult::kUnsat)
        << "round " << round;
    if (got == SolveResult::kSat) {
      // The returned model must actually satisfy every clause.
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit lit : clause) any = any || solver.model_value(lit);
        ASSERT_TRUE(any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SatRandomCross,
    ::testing::Values(RandomCnfParams{5, 15, 2, 11},
                      RandomCnfParams{8, 34, 3, 22},
                      RandomCnfParams{10, 43, 3, 33},
                      RandomCnfParams{12, 52, 3, 44},
                      RandomCnfParams{9, 25, 4, 55},
                      RandomCnfParams{14, 60, 3, 66},
                      RandomCnfParams{6, 40, 2, 77},
                      RandomCnfParams{16, 69, 3, 88}));

// Ablation configurations must stay correct (only speed may change).
class SatAblationCross : public ::testing::TestWithParam<int> {};

TEST_P(SatAblationCross, AblatedSolversAgreeWithBruteForce) {
  SolverOptions options;
  if (GetParam() == 0) options.enable_learning = false;
  if (GetParam() == 1) options.enable_vsids = false;
  if (GetParam() == 2) options.enable_phase_saving = false;
  util::Xoshiro256 rng(1234 + static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 25; ++round) {
    Solver solver(options);
    std::vector<Clause> clauses;
    for (int v = 0; v < 10; ++v) solver.new_var();
    for (int c = 0; c < 45; ++c) {
      Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.emplace_back(static_cast<Var>(rng.next_below(10)),
                            rng.next_bool());
      }
      clauses.push_back(clause);
      solver.add_clause(clause);
    }
    const bool expected = brute_force_sat(10, clauses);
    ASSERT_EQ(solver.solve(),
              expected ? SolveResult::kSat : SolveResult::kUnsat);
  }
}

INSTANTIATE_TEST_SUITE_P(Features, SatAblationCross, ::testing::Values(0, 1, 2));

// ---- search identity ------------------------------------------------------
//
// The solver's search trajectory is part of the project's output: BMC
// witnesses (and so report signatures) and DRAT certificates are whatever
// the search finds first. These pins fix the exact decisions, propagations
// and conflicts on seeded random 3-CNFs, so any change to the clause store
// or the propagation loop that reorders the search fails here first. The
// values were taken from the per-clause-vector solver that the clause
// arena replaced; the arena reproduces them exactly.

struct SearchPin {
  std::uint64_t seed;
  SolveResult result;
  std::uint64_t decisions;
  std::uint64_t propagations;
  std::uint64_t conflicts;
  std::uint64_t learned_literals;
  std::uint64_t deleted_clauses;
  std::size_t num_clauses;
};

/// Random 3-CNF; variables may repeat within a clause, so add_clause's
/// duplicate and tautology handling runs too.
void add_random_3cnf(Solver& solver, int num_vars, int num_clauses,
                     util::Xoshiro256& rng) {
  for (int v = 0; v < num_vars; ++v) solver.new_var();
  for (int c = 0; c < num_clauses; ++c) {
    solver.add_clause(
        Lit(static_cast<Var>(rng.next_below(num_vars)), rng.next_bool()),
        Lit(static_cast<Var>(rng.next_below(num_vars)), rng.next_bool()),
        Lit(static_cast<Var>(rng.next_below(num_vars)), rng.next_bool()));
  }
}

void expect_search(const SolverOptions& options,
                   const std::vector<SearchPin>& pins) {
  for (const SearchPin& pin : pins) {
    util::Xoshiro256 rng(pin.seed);
    Solver solver(options);
    add_random_3cnf(solver, 150, 639, rng);  // 4.26 clauses per variable
    const SolveResult result = solver.solve();
    const SolverStats& s = solver.stats();
    EXPECT_EQ(result, pin.result) << "seed " << pin.seed;
    EXPECT_EQ(s.decisions, pin.decisions) << "seed " << pin.seed;
    EXPECT_EQ(s.propagations, pin.propagations) << "seed " << pin.seed;
    EXPECT_EQ(s.conflicts, pin.conflicts) << "seed " << pin.seed;
    EXPECT_EQ(s.learned_literals, pin.learned_literals) << "seed " << pin.seed;
    EXPECT_EQ(s.deleted_clauses, pin.deleted_clauses) << "seed " << pin.seed;
    EXPECT_EQ(solver.num_clauses(), pin.num_clauses) << "seed " << pin.seed;
  }
}

TEST(SatSearchIdentity, DefaultOptions) {
  expect_search({}, {
       {1, SolveResult::kSat, 201, 4308, 136, 1362, 0, 766},
       {2, SolveResult::kUnsat, 1878, 50219, 1556, 13030, 0, 2184},
       {3, SolveResult::kSat, 765, 20420, 590, 5624, 0, 1222},
       {4, SolveResult::kSat, 310, 6619, 207, 1856, 0, 838}});
}

TEST(SatSearchIdentity, SmallLearnedCapacityReducesAndCompactsOften) {
  SolverOptions options;
  options.learned_capacity_start = 64;
  expect_search(options, {
       {1, SolveResult::kSat, 891, 23225, 689, 6997, 423, 1319},
       {2, SolveResult::kUnsat, 2702, 71424, 2253, 19731, 1576, 2877},
       {3, SolveResult::kSat, 709, 17990, 562, 5384, 261, 1194},
       {4, SolveResult::kSat, 344, 7621, 236, 2197, 153, 867}});
}

TEST(SatSearchIdentity, LearningDisabled) {
  SolverOptions options;
  options.enable_learning = false;
  expect_search(options, {
       {1, SolveResult::kSat, 2087, 55486, 1656, 16106, 1610, 2286},
       {2, SolveResult::kUnsat, 3756, 95869, 3018, 25961, 2964, 3645},
       {3, SolveResult::kSat, 610, 15872, 484, 4416, 421, 1116},
       {4, SolveResult::kSat, 327, 7750, 229, 2086, 193, 860}});
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(SatSearchIdentity, IncrementalSolvesRelocateReasonsAcrossCompaction) {
  // Solves under assumptions with units added between them, on a learned
  // capacity small enough that reduce_db (and so arena compaction) runs
  // mid-run while level-0 reasons and learnt clauses stay live.
  SolverOptions options;
  options.learned_capacity_start = 64;
  Solver solver(options);
  proof::ProofLog log;
  solver.set_proof_listener(&log);
  util::Xoshiro256 rng(2015);
  constexpr int kVars = 180;
  add_random_3cnf(solver, kVars, 680, rng);
  std::string results;
  for (int round = 0; round < 16; ++round) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 5; ++k) {
      assumptions.emplace_back(static_cast<Var>(rng.next_below(kVars)),
                               rng.next_bool());
    }
    const SolveResult r = solver.solve(assumptions);
    results += r == SolveResult::kSat ? 'S' : 'U';
    // A unit the last model satisfies (a random one after UNSAT), so
    // level-0 facts accumulate between solves.
    const Var v = static_cast<Var>(rng.next_below(kVars));
    solver.add_clause(Lit(v, r == SolveResult::kSat ? !solver.model_value(v)
                                                    : rng.next_bool()));
  }
  const SolverStats& s = solver.stats();
  EXPECT_EQ(results, "USUUSSSUSUSUSUUU");
  EXPECT_EQ(s.decisions, 1330u);
  EXPECT_EQ(s.propagations, 36635u);
  EXPECT_EQ(s.conflicts, 985u);
  EXPECT_EQ(s.learned_literals, 10056u);
  EXPECT_EQ(s.deleted_clauses, 953u);
  EXPECT_EQ(solver.num_clauses(), 1660u);
  EXPECT_EQ(fnv1a(log.drat()), 0x6b660bf400c2bb2cull);
}

TEST(Dimacs, RoundTrip) {
  CnfFormula formula;
  formula.num_vars = 3;
  formula.clauses = {{Lit(0, false), Lit(1, true)}, {Lit(2, false)}};
  std::ostringstream os;
  write_dimacs(os, formula);
  const CnfFormula parsed = parse_dimacs_string(os.str());
  EXPECT_EQ(parsed.num_vars, 3);
  ASSERT_EQ(parsed.clauses.size(), 2u);
  EXPECT_EQ(parsed.clauses[0], formula.clauses[0]);
  EXPECT_EQ(parsed.clauses[1], formula.clauses[1]);
}

TEST(Dimacs, RandomizedRoundTripPreservesEveryClause) {
  util::Xoshiro256 rng(20150607);
  for (int round = 0; round < 25; ++round) {
    CnfFormula formula;
    formula.num_vars = 1 + static_cast<int>(rng.next_below(40));
    const std::size_t n_clauses = rng.next_below(30);
    for (std::size_t c = 0; c < n_clauses; ++c) {
      Clause clause;
      const std::size_t len = 1 + rng.next_below(5);
      for (std::size_t k = 0; k < len; ++k) {
        clause.emplace_back(
            static_cast<Var>(rng.next_below(
                static_cast<std::uint64_t>(formula.num_vars))),
            rng.next_bool());
      }
      formula.clauses.push_back(std::move(clause));
    }
    std::ostringstream os;
    write_dimacs(os, formula);
    const CnfFormula parsed = parse_dimacs_string(os.str());
    EXPECT_EQ(parsed.num_vars, formula.num_vars) << "round " << round;
    ASSERT_EQ(parsed.clauses.size(), formula.clauses.size())
        << "round " << round;
    for (std::size_t c = 0; c < parsed.clauses.size(); ++c) {
      EXPECT_EQ(parsed.clauses[c], formula.clauses[c])
          << "round " << round << " clause " << c;
    }
  }
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_THROW(parse_dimacs_string("p cnf x y\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n1 2\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs_string(""), std::runtime_error);
}

}  // namespace
}  // namespace trojanscout::sat
