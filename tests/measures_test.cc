#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/parser.h"
#include "measures/basic_measures.h"
#include "measures/mc_measures.h"
#include "measures/registry.h"
#include "measures/repair_measures.h"
#include "measures/session.h"
#include "measures/shapley.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;
using testing::MakeRunningExample;
using testing::RunningExample;
using testing::ScriptedWorkload;

class RunningExampleMeasures : public ::testing::Test {
 protected:
  RunningExampleMeasures()
      : example_(MakeRunningExample()),
        detector_(example_.schema, example_.dcs) {}

  double Eval(const InconsistencyMeasure& m, const Database& db) {
    return m.EvaluateFresh(detector_, db);
  }

  RunningExample example_;
  ViolationDetector detector_;
};

// ---- Table 1 of the paper: every measure on D0, D1, D2. ----

TEST_F(RunningExampleMeasures, DrasticMatchesTable1) {
  DrasticMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 1.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 1.0);
}

TEST_F(RunningExampleMeasures, MiCountMatchesTable1) {
  MiCountMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 7.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 5.0);
}

TEST_F(RunningExampleMeasures, ProblematicMatchesTable1) {
  ProblematicFactsMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 5.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 4.0);
}

TEST_F(RunningExampleMeasures, McMatchesTable1) {
  MaxConsistentSubsetsMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, McPrimeCoincidesWithMcForFds) {
  // FDs admit no self-inconsistencies, so I'_MC == I_MC (Example 5).
  McWithSelfInconsistenciesMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, MinRepairMatchesTable1) {
  MinRepairMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, LinRepairMatchesTable1) {
  LinRepairMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 2.5);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, LinRepairLowerBoundsMinRepair) {
  LinRepairMeasure lin;
  MinRepairMeasure exact;
  for (const Database* db : {&example_.d0, &example_.d1, &example_.d2}) {
    const double lin_value = Eval(lin, *db);
    const double exact_value = Eval(exact, *db);
    EXPECT_LE(lin_value, exact_value + 1e-9);
    // Integrality gap for FDs is at most 2 (witnesses have size two).
    EXPECT_GE(2.0 * lin_value + 1e-9, exact_value);
  }
}

TEST_F(RunningExampleMeasures, OptimalRepairIsConsistent) {
  MinRepairMeasure m;
  MeasureContext context(detector_, example_.d1);
  const std::vector<FactId> repair = m.OptimalRepair(context);
  EXPECT_EQ(repair.size(), 3u);
  Database reduced = example_.d1;
  for (const FactId id : repair) reduced.Delete(id);
  EXPECT_TRUE(detector_.Satisfies(reduced));
}

TEST_F(RunningExampleMeasures, FractionalSolutionIsFeasible) {
  LinRepairMeasure m;
  MeasureContext context(detector_, example_.d1);
  const auto solution = m.FractionalSolution(context);
  // Feasibility: x_a + x_b >= 1 on every conflicting pair.
  std::vector<double> x(10, 0.0);
  for (const auto& [id, value] : solution) x[id] = value;
  for (const auto& subset : context.violations().minimal_subsets()) {
    ASSERT_EQ(subset.size(), 2u);
    EXPECT_GE(x[subset[0]] + x[subset[1]], 1.0 - 1e-9);
  }
}

// ---- Registry ----

TEST(MeasureRegistry, CreatesPaperRoster) {
  const auto all = CreateMeasures();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0]->name(), "I_d");
  EXPECT_EQ(all[1]->name(), "I_MI");
  EXPECT_EQ(all[2]->name(), "I_P");
  EXPECT_EQ(all[3]->name(), "I_MC");
  EXPECT_EQ(all[4]->name(), "I'_MC");
  EXPECT_EQ(all[5]->name(), "I_R");
  EXPECT_EQ(all[6]->name(), "I_lin_R");
}

TEST(MeasureRegistry, McCanBeExcluded) {
  RegistryOptions options;
  options.include_mc = false;
  const auto subset = CreateMeasures(options);
  ASSERT_EQ(subset.size(), 5u);
  EXPECT_EQ(subset[3]->name(), "I_R");
}

TEST(MeasureRegistry, AllMeasuresZeroOnConsistent) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  for (const auto& measure : CreateMeasures()) {
    EXPECT_DOUBLE_EQ(measure->EvaluateFresh(detector, example.d0), 0.0)
        << measure->name();
  }
}

// ---- I_MC positivity counterexample (Section 4) ----

TEST(McMeasure, ViolatesPositivityForDcs) {
  // D = {R(a), R(b)}, Sigma = { not R(a) }: MC = {{R(b)}} so I_MC = 0 on an
  // inconsistent database, while I'_MC = 1.
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A"});
  Database db(schema);
  db.Insert(Fact(r, {Value("a")}));
  db.Insert(Fact(r, {Value("b")}));
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Value("a"));
  const DenialConstraint not_a({r}, std::move(preds));
  const ViolationDetector detector(schema, {not_a});

  EXPECT_FALSE(detector.Satisfies(db));
  MaxConsistentSubsetsMeasure mc;
  McWithSelfInconsistenciesMeasure mc_prime;
  EXPECT_DOUBLE_EQ(mc.EvaluateFresh(detector, db), 0.0);
  EXPECT_DOUBLE_EQ(mc_prime.EvaluateFresh(detector, db), 1.0);
}

// ---- Self-inconsistency handling in repair measures ----

TEST(RepairMeasures, SelfInconsistentFactsAreForcedDeletions) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"High", "Low"});
  Database db(schema);
  db.Insert(Fact(r, {Value(1), Value(5)}));   // violates High >= Low
  db.Insert(Fact(r, {Value(9), Value(2)}));   // fine
  db.Insert(Fact(r, {Value(0), Value(10)}));  // violates
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kLt, Operand{0, 1});
  const DenialConstraint dc({r}, std::move(preds));
  const ViolationDetector detector(schema, {dc});

  MinRepairMeasure exact;
  LinRepairMeasure lin;
  EXPECT_DOUBLE_EQ(exact.EvaluateFresh(detector, db), 2.0);
  EXPECT_DOUBLE_EQ(lin.EvaluateFresh(detector, db), 2.0);
}

TEST(RepairMeasures, HonorsDeletionCosts) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  Database weighted = example.d2;
  // Make f2 and f4 expensive; the optimum should avoid them:
  // {f3, f5} do not cover edge (f2, f4), so the cheapest cover keeps one
  // of the expensive facts. Edges: {23,24,25,34,45}.
  weighted.set_deletion_cost(2, 10.0);
  weighted.set_deletion_cost(4, 10.0);
  MinRepairMeasure exact;
  // Candidates: {2,4} = 20, {2,3,4,...}. Cover must hit 24: cost >= 10.
  // {4, 2} vs {2, 3, 5} = 10+1+1 = 12 vs {4, 2}... best is {2, 4}? No:
  // {2,4} = 20; {4,2,...}. Try {2, 3, 4, 5} subsets: cover needs 2 or 3
  // for edge 23, and 2 or 4 for 24, 2 or 5 for 25, 3 or 4 for 34, 4 or 5
  // for 45. Choosing {2, 4} costs 20; {3, 5, 2} = 12; {3, 5, 4} = 12;
  // {2, 4} dominated. Minimum is 12.
  EXPECT_DOUBLE_EQ(exact.EvaluateFresh(detector, weighted), 12.0);
}

// ---- I_R against its definition ----

// I_R under R_subset straight from the paper's definition: the cheapest
// set of deletions whose complement satisfies every constraint. A kept set
// is consistent iff no assignment of kept facts to a constraint's tuple
// variables (repetition allowed, so contradictory facts count) makes the
// body hold. Each body is evaluated directly on facts, once per assignment
// over the whole database, and an assignment lies in a kept set iff its
// support does — no detector, no minimality, no conflict graph.
double DefinitionMinRepair(const Database& db,
                           const std::vector<DenialConstraint>& dcs) {
  const std::vector<FactId> ids = db.ids();
  const size_t n = ids.size();
  std::vector<uint32_t> supports;  // bitmask of facts, one per violation
  for (const DenialConstraint& dc : dcs) {
    std::vector<uint32_t> pick(dc.num_vars(), 0);
    std::vector<const Fact*> assignment(dc.num_vars());
    while (true) {
      bool typed = true;
      uint32_t support = 0;
      for (uint32_t v = 0; v < dc.num_vars(); ++v) {
        assignment[v] = &db.fact(ids[pick[v]]);
        typed = typed && assignment[v]->relation() == dc.var_relation(v);
        support |= 1u << pick[v];
      }
      if (typed && dc.BodyHolds(assignment)) supports.push_back(support);
      uint32_t v = 0;
      while (v < dc.num_vars() && ++pick[v] == n) pick[v++] = 0;
      if (v == dc.num_vars()) break;
    }
  }
  double best = 1e18;
  for (uint32_t kept = 0; kept < (1u << n); ++kept) {
    const bool consistent =
        std::none_of(supports.begin(), supports.end(),
                     [&](uint32_t s) { return (s & ~kept) == 0; });
    if (!consistent) continue;
    double cost = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      if (!((kept >> i) & 1u)) cost += db.deletion_cost(ids[i]);
    }
    best = std::min(best, cost);
  }
  return best;
}

double ValueOf(const BatchReport& report, const std::string& name) {
  for (const MeasureResult& r : report.measures) {
    if (r.name == name) return r.value;
  }
  ADD_FAILURE() << "no measure " << name;
  return -1.0;
}

// Weighted random databases of at most 12 facts (deletion costs 1-5) under
// a binary Sigma with a contradictory-fact constraint (vertex-cover path
// with forced deletions) and under a ternary one (covering-ILP path),
// driven through short mutation trajectories: the session's incremental
// report and the one-shot EvaluateOne report must both equal the
// definition at every step.
TEST(RepairMeasures, MinRepairMatchesDefinitionOnSmallWeightedDatabases) {
  const auto schema = MakeAbcSchema();
  const std::vector<std::vector<std::string>> sigmas = {
      {"!(t.A = t'.A & t.B != t'.B)", "!(t.B = t'.B & t.C > t'.C)",
       "!(t.A = 0 & t.C = 2)"},
      {"!(t.A = t'.A & t'.B = t''.B & t.C < t''.C)", "!(t.A = 0 & t.C = 2)"},
  };
  for (size_t k = 0; k < sigmas.size(); ++k) {
    std::vector<DenialConstraint> dcs;
    for (const std::string& text : sigmas[k]) {
      dcs.push_back(*ParseDc(*schema, 0, text));
    }
    MeasureSessionOptions options;
    options.registry.include_mc = false;
    options.only = {"I_R", "I_lin_R"};
    for (uint64_t seed = 1; seed <= 15; ++seed) {
      MeasureSession session(schema, dcs, options);
      Rng rng(seed * 101 + k);
      Database start = MakeRandomDatabase(schema, 0, 4 + rng.UniformIndex(6),
                                           3, seed * 13 + k);
      for (const FactId id : start.ids()) {
        start.set_deletion_cost(id, 1.0 + rng.UniformIndex(5));
      }
      const DbHandle handle = session.Register(start);
      ScriptedWorkload workload(seed);
      for (int step = 0; step < 6; ++step) {
        const Database& db = session.db(handle);
        if (db.size() <= 12) {
          const std::string where = "sigma " + std::to_string(k) + " seed " +
                                    std::to_string(seed) + " step " +
                                    std::to_string(step);
          const double expected = DefinitionMinRepair(db, dcs);
          const BatchReport incremental = session.Evaluate(handle);
          const BatchReport one_shot = session.EvaluateOne(db);
          EXPECT_EQ(ValueOf(incremental, "I_R"), expected) << where;
          EXPECT_EQ(ValueOf(one_shot, "I_R"), expected) << where;
          EXPECT_LE(ValueOf(incremental, "I_lin_R"), expected + 1e-9)
              << where;
        }
        session.Apply(handle, workload.Next(db));
      }
    }
  }
}

// ---- Parallel measures ----

// parallel_measures runs I_R and I_lin_R concurrently on one context, so
// both race to build the shared repair instance; values must be
// bit-identical to sequential evaluation. Also races the two repair
// measures directly on one context from raw threads.
TEST(ParallelMeasures, BitIdenticalToSequentialOnSharedContext) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  MeasureSessionOptions sequential;
  sequential.registry.include_mc = false;
  MeasureSessionOptions parallel = sequential;
  parallel.parallel_measures = true;
  const MeasureSession seq_session(schema, dcs, sequential);
  const MeasureSession par_session(schema, dcs, parallel);
  const ViolationDetector detector(schema, dcs);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db = MakeRandomDatabase(schema, 0, 50, 8, seed);
    Rng rng(seed + 1000);
    for (const FactId id : db.ids()) {
      db.set_deletion_cost(id, 1.0 + rng.UniformIndex(5));
    }
    const BatchReport expected = seq_session.EvaluateOne(db);
    const BatchReport actual = par_session.EvaluateOne(db);
    ASSERT_EQ(expected.measures.size(), actual.measures.size());
    for (size_t m = 0; m < expected.measures.size(); ++m) {
      EXPECT_EQ(expected.measures[m].name, actual.measures[m].name);
      EXPECT_EQ(expected.measures[m].value, actual.measures[m].value)
          << "seed " << seed << " " << expected.measures[m].name;
    }

    MeasureContext context(detector, db);
    context.Materialize();
    double exact = 0.0;
    double lin = 0.0;
    std::thread a([&] { exact = MinRepairMeasure().Evaluate(context); });
    std::thread b([&] { lin = LinRepairMeasure().Evaluate(context); });
    a.join();
    b.join();
    EXPECT_EQ(exact, ValueOf(expected, "I_R")) << "seed " << seed;
    EXPECT_EQ(lin, ValueOf(expected, "I_lin_R")) << "seed " << seed;
  }
}

// ---- Shapley attribution ----

TEST(Shapley, ClosedFormSumsToMiCount) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d1);
  const auto shares = ShapleyMiValues(context);
  double total = 0.0;
  for (const auto& [id, v] : shares) total += v;
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST(Shapley, ClosedFormMatchesExactPermutationShapley) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d2);
  const auto closed = ShapleyMiValues(context);
  MiCountMeasure mi;
  const auto exact = ShapleySampled(mi, detector, example.d2, 0, 1);
  ASSERT_EQ(closed.size(), exact.size());
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i].first, exact[i].first);
    EXPECT_NEAR(closed[i].second, exact[i].second, 1e-9)
        << "fact " << closed[i].first;
  }
}

TEST(Shapley, HighestBlameOnMostConflictedFact) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d2);
  const auto shares = ShapleyMiValues(context);
  // In D2, f2 and f4 participate in 3 violations each; f1 in none.
  double f1 = -1.0;
  double f2 = -1.0;
  for (const auto& [id, v] : shares) {
    if (id == 1) f1 = v;
    if (id == 2) f2 = v;
  }
  EXPECT_DOUBLE_EQ(f1, 0.0);
  EXPECT_DOUBLE_EQ(f2, 1.5);
}

}  // namespace
}  // namespace dbim
