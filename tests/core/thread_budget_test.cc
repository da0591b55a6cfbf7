// Every query family has one implementation that takes a thread budget.
// The contract is bit-identity across budgets: influence, ranking,
// members / selection / entries and every SolverStats counter are the
// same at budgets 1, 2, 3 and 7. At a budget of one the morsel plan is a
// single morsel spanning the input, run once on the calling thread; an
// oversized budget starts no more workers than there are morsels.

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_solver.h"
#include "core/naive_solver.h"
#include "core/object_store.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "parallel/morsel_scheduler.h"
#include "testing/instance_helpers.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

constexpr size_t kBudgets[] = {2, 3, 7};

void ExpectSameCounters(const SolverStats& a, const SolverStats& b,
                        size_t budget) {
  EXPECT_EQ(a.pairs_pruned_by_ia, b.pairs_pruned_by_ia) << "budget " << budget;
  EXPECT_EQ(a.pairs_pruned_by_nib, b.pairs_pruned_by_nib)
      << "budget " << budget;
  EXPECT_EQ(a.pairs_validated, b.pairs_validated) << "budget " << budget;
  EXPECT_EQ(a.pairs_refined, b.pairs_refined) << "budget " << budget;
  EXPECT_EQ(a.positions_scanned, b.positions_scanned) << "budget " << budget;
  EXPECT_EQ(a.early_stops, b.early_stops) << "budget " << budget;
  EXPECT_EQ(a.heap_pops, b.heap_pops) << "budget " << budget;
  EXPECT_EQ(a.strategy1_cutoffs, b.strategy1_cutoffs) << "budget " << budget;
}

void ExpectSameResult(const SolverResult& a, const SolverResult& b,
                      size_t budget) {
  EXPECT_EQ(a.influence, b.influence) << "budget " << budget;
  EXPECT_EQ(a.influence_exact, b.influence_exact) << "budget " << budget;
  EXPECT_EQ(a.ranking, b.ranking) << "budget " << budget;
  EXPECT_EQ(a.best_candidate, b.best_candidate) << "budget " << budget;
  EXPECT_EQ(a.best_influence, b.best_influence) << "budget " << budget;
  ExpectSameCounters(a.stats, b.stats, budget);
}

// Many objects and candidates, so every budget above one cuts the store
// into several morsels with remnants in each.
ProblemInstance BudgetInstance(uint64_t seed) {
  return RandomInstance(seed, InstanceOptions{60, 40, 1, 30, 30000.0, 0.4});
}

TEST(ThreadBudgetTest, NaiveBitIdenticalAcrossBudgets) {
  const PreparedInstance prepared(BudgetInstance(8101), DefaultConfig());
  const SolverResult base = NaiveSolver().Solve(prepared);
  for (size_t budget : kBudgets) {
    ExpectSameResult(NaiveSolver(budget).Solve(prepared), base, budget);
  }
}

TEST(ThreadBudgetTest, PinocchioBitIdenticalAcrossBudgets) {
  const PreparedInstance prepared(BudgetInstance(8102), DefaultConfig());
  const SolverResult base = PinocchioSolver().Solve(prepared);
  EXPECT_EQ(base.influence, NaiveSolver().Solve(prepared).influence);
  for (size_t budget : kBudgets) {
    ExpectSameResult(PinocchioSolver(budget).Solve(prepared), base, budget);
  }
}

TEST(ThreadBudgetTest, PinocchioVOBitIdenticalAcrossBudgets) {
  const ProblemInstance instance = BudgetInstance(8103);
  for (size_t top_k : {1u, 3u}) {
    SolverConfig config = DefaultConfig();
    config.top_k = top_k;
    const PreparedInstance prepared(instance, config);
    const SolverResult base = PinocchioVOSolver().Solve(prepared);
    for (size_t budget : kBudgets) {
      ExpectSameResult(PinocchioVOSolver(true, budget).Solve(prepared), base,
                       budget);
    }
  }
}

// VO* (no prune phase) above a budget of one: the budget has nothing to
// parallelise, and the answer must not notice it.
TEST(ThreadBudgetTest, PinocchioVOStarBitIdenticalAcrossBudgets) {
  SolverConfig config = DefaultConfig();
  config.top_k = 2;
  const PreparedInstance prepared(BudgetInstance(8104), config);
  const SolverResult base = PinocchioVOStarSolver().Solve(prepared);
  for (size_t budget : kBudgets) {
    ExpectSameResult(PinocchioVOSolver(false, budget).Solve(prepared), base,
                     budget);
    ExpectSameResult(PinocchioVOStarSolver(budget).Solve(prepared), base,
                     budget);
  }
}

// The same contract on the default random instance shape, at budgets 2,
// 4 and 8 (a budget-8 plan has more workers than this store has slices of
// equal position count).
TEST(ParallelNaiveTest, MatchesSequentialExactly) {
  const ProblemInstance instance = RandomInstance(601);
  const SolverConfig config = DefaultConfig();
  const SolverResult seq = NaiveSolver().Solve(instance, config);
  for (size_t threads : {2u, 4u, 8u}) {
    ExpectSameResult(NaiveSolver(threads).Solve(instance, config), seq,
                     threads);
  }
}

TEST(ParallelPinocchioTest, MatchesSequentialExactly) {
  const ProblemInstance instance = RandomInstance(602);
  const SolverConfig config = DefaultConfig();
  const SolverResult seq = PinocchioSolver().Solve(instance, config);
  for (size_t threads : {2u, 4u, 8u}) {
    ExpectSameResult(PinocchioSolver(threads).Solve(instance, config), seq,
                     threads);
  }
}

TEST(ParallelPinocchioVOTest, BitIdenticalToSequential) {
  const ProblemInstance instance = RandomInstance(603);
  for (size_t top_k : {1u, 3u}) {
    SolverConfig config = DefaultConfig();
    config.top_k = top_k;
    const SolverResult seq = PinocchioVOSolver().Solve(instance, config);
    for (size_t threads : {2u, 4u, 8u}) {
      ExpectSameResult(
          PinocchioVOSolver(true, threads).Solve(instance, config), seq,
          threads);
    }
  }
}

// Edge shapes at every budget: an empty instance, one object and one
// candidate, skewed object/candidate ratios (fewer records than the
// morsels a budget asks for, or fewer candidates than NA's ranges) and
// position-heavy roamers (few records per morsel).
class ThreadBudgetShapeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadBudgetShapeTest, SolversAgreeAcrossBudgets) {
  const InstanceOptions shapes[] = {
      {1, 1, 1, 3, 5000.0, 0.5},       // one object, one candidate
      {3, 2, 1, 3, 5000.0, 0.5},       // tiny
      {100, 5, 1, 10, 30000.0, 0.3},   // many objects, few candidates
      {5, 100, 1, 10, 30000.0, 0.3},   // few objects, many candidates
      {50, 50, 30, 60, 30000.0, 0.7},  // heavy positions, mostly roamers
  };
  ProblemInstance instance;  // shape 0: empty
  if (GetParam() > 0) {
    instance = RandomInstance(8120 + GetParam(), shapes[GetParam() - 1]);
  }
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult pin = PinocchioSolver().Solve(instance, config);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
  EXPECT_EQ(pin.influence, naive.influence);
  for (size_t budget : kBudgets) {
    ExpectSameResult(NaiveSolver(budget).Solve(instance, config), naive,
                     budget);
    ExpectSameResult(PinocchioSolver(budget).Solve(instance, config), pin,
                     budget);
    ExpectSameResult(PinocchioVOSolver(true, budget).Solve(instance, config),
                     vo, budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ThreadBudgetShapeTest,
                         ::testing::Range<size_t>(0, 6));

TEST(ThreadBudgetTest, BracketsAndOrderByteIdenticalAcrossBudgets) {
  const PreparedInstance prepared(BudgetInstance(8105), DefaultConfig());
  const InfluenceKernel kernel = prepared.kernel();
  SolverStats base_stats;
  const query::CandidateBrackets base =
      query::BuildCandidateBrackets(prepared, kernel, true, &base_stats);
  ASSERT_FALSE(base.vs_data.empty());
  for (size_t budget : kBudgets) {
    SolverStats stats;
    const query::CandidateBrackets got =
        query::BuildCandidateBrackets(prepared, kernel, true, &stats, budget);
    EXPECT_EQ(got.min_inf, base.min_inf) << "budget " << budget;
    EXPECT_EQ(got.max_inf, base.max_inf) << "budget " << budget;
    EXPECT_EQ(got.vs_offsets, base.vs_offsets) << "budget " << budget;
    EXPECT_EQ(got.vs_data, base.vs_data) << "budget " << budget;
    ExpectSameCounters(stats, base_stats, budget);
    EXPECT_EQ(query::BoundDominationOrder(got),
              query::BoundDominationOrder(base));
  }
}

TEST(ThreadBudgetTest, InfluenceSetsIdenticalAcrossBudgets) {
  const PreparedInstance prepared(BudgetInstance(8106), DefaultConfig());
  const InfluenceKernel kernel = prepared.kernel();
  const query::InfluenceSets base = query::BuildInfluenceSets(prepared, kernel);
  const SolverResult naive = NaiveSolver().Solve(prepared);
  for (uint32_t j = 0; j < naive.influence.size(); ++j) {
    EXPECT_EQ(static_cast<int64_t>(base.Objects(j).size()),
              naive.influence[j]);
  }
  for (size_t budget : kBudgets) {
    const query::InfluenceSets got =
        query::BuildInfluenceSets(prepared, kernel, budget);
    EXPECT_EQ(got.offsets, base.offsets) << "budget " << budget;
    EXPECT_EQ(got.objects, base.objects) << "budget " << budget;
  }
}

TEST(ThreadBudgetTest, SkylineBitIdenticalAcrossBudgets) {
  const PreparedInstance prepared(BudgetInstance(8107), DefaultConfig());
  Rng rng(8107);
  std::vector<double> cost(prepared.num_candidates());
  for (double& c : cost) c = rng.Uniform(0.0, 50.0);
  const query::SkylineResult base = query::SolveSkyline(prepared, cost);
  ASSERT_FALSE(base.members.empty());
  for (size_t budget : kBudgets) {
    const query::SkylineResult got =
        query::SolveSkyline(prepared, cost, budget);
    ASSERT_EQ(got.members.size(), base.members.size()) << "budget " << budget;
    for (size_t i = 0; i < base.members.size(); ++i) {
      EXPECT_EQ(got.members[i].candidate, base.members[i].candidate);
      EXPECT_EQ(got.members[i].influence, base.members[i].influence);
      EXPECT_EQ(got.members[i].cost, base.members[i].cost);
    }
    EXPECT_EQ(got.bound_skipped, base.bound_skipped) << "budget " << budget;
    ExpectSameCounters(got.stats, base.stats, budget);
  }
}

TEST(ThreadBudgetTest, DiversifiedBitIdenticalAcrossBudgets) {
  const PreparedInstance prepared(BudgetInstance(8108), DefaultConfig());
  for (double delta : {0.0, 5000.0, 15000.0}) {
    const query::DiversifiedResult base =
        query::SelectDiversified(prepared, 4, delta);
    for (size_t budget : kBudgets) {
      const query::DiversifiedResult got =
          query::SelectDiversified(prepared, 4, delta, budget);
      EXPECT_EQ(got.selected, base.selected) << "budget " << budget;
      EXPECT_EQ(got.coverage, base.coverage) << "budget " << budget;
      EXPECT_EQ(got.gain_evaluations, base.gain_evaluations);
      EXPECT_EQ(got.separation_rejections, base.separation_rejections);
    }
  }
}

TEST(ThreadBudgetTest, ApproxBitIdenticalAcrossBudgets) {
  const PreparedInstance prepared(BudgetInstance(8109), DefaultConfig());
  for (const SketchParams& params :
       {SketchParams{0.3, 0.05, 11}, SketchParams{1e-9, 0.5, 3}}) {
    const ApproxTopKResult base = SolveApproxTopK(prepared, 5, params);
    ASSERT_FALSE(base.entries.empty());
    for (size_t budget : kBudgets) {
      const ApproxTopKResult got =
          SolveApproxTopK(prepared, 5, params, budget);
      ASSERT_EQ(got.entries.size(), base.entries.size());
      for (size_t i = 0; i < base.entries.size(); ++i) {
        EXPECT_EQ(got.entries[i].candidate, base.entries[i].candidate);
        EXPECT_EQ(got.entries[i].estimate, base.entries[i].estimate);
        EXPECT_EQ(got.entries[i].lo, base.entries[i].lo);
        EXPECT_EQ(got.entries[i].hi, base.entries[i].hi);
        EXPECT_EQ(got.entries[i].exact, base.entries[i].exact);
      }
      EXPECT_EQ(got.sample_budget, base.sample_budget);
      EXPECT_EQ(got.pairs_skipped, base.pairs_skipped);
      EXPECT_EQ(got.pairs_refined, base.pairs_refined);
      ExpectSameCounters(got.stats, base.stats, budget);
    }
  }
}

TEST(ThreadBudgetTest, NamesKeepPaperNamesAtBudgetOne) {
  EXPECT_EQ(NaiveSolver().Name(), "NA");
  EXPECT_EQ(PinocchioSolver().Name(), "PIN");
  EXPECT_EQ(PinocchioVOSolver().Name(), "PIN-VO");
  EXPECT_EQ(PinocchioVOStarSolver().Name(), "PIN-VO*");
  EXPECT_EQ(NaiveSolver(3).Name(), "NA-P3");
  EXPECT_EQ(PinocchioSolver(5).Name(), "PIN-P5");
  EXPECT_EQ(PinocchioVOSolver(true, 7).Name(), "PIN-VO-P7");
  EXPECT_EQ(PinocchioVOStarSolver(2).Name(), "PIN-VO*-P2");
  // Budget 0 resolves to the hardware concurrency, never "-P0".
  EXPECT_EQ(PinocchioSolver(0).Name(),
            PinocchioSolver(MorselScheduler(0).num_threads()).Name());
}

// A budget of one plans a single morsel spanning the whole input and runs
// it once, on the calling thread.
TEST(ThreadBudgetTest, BudgetOneRunsOneMorselOnTheCallingThread) {
  const PreparedInstance prepared(BudgetInstance(8110), DefaultConfig());
  const ObjectStore& store = prepared.store();
  const MorselScheduler scheduler(1);

  const std::vector<Morsel> morsels = PlanMorsels(store, scheduler);
  ASSERT_EQ(morsels.size(), 1u);
  EXPECT_EQ(morsels[0].first_record, 0u);
  EXPECT_EQ(morsels[0].last_record, store.size());

  size_t calls = 0;
  std::thread::id body_thread;
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t worker, size_t index, const Morsel&) {
        ++calls;
        body_thread = std::this_thread::get_id();
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(index, 0u);
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(body_thread, std::this_thread::get_id());
  EXPECT_EQ(stats.num_workers, 1u);

  const std::vector<Morsel> ranges =
      scheduler.PlanUniform(prepared.num_candidates(), 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].size(), prepared.num_candidates());
}

// An oversized budget is sized by the workers a run actually starts:
// never more than the morsels, so at most 16 threads on 16 records.
TEST(ThreadBudgetTest, OversizedBudgetStartsAtMostOneWorkerPerMorsel) {
  constexpr size_t kHugeBudget = size_t{1} << 20;
  const PreparedInstance prepared(
      RandomInstance(8111, InstanceOptions{16, 12, 1, 6, 20000.0, 0.5}),
      DefaultConfig());
  const MorselScheduler scheduler(kHugeBudget);
  const std::vector<Morsel> morsels =
      PlanMorsels(prepared.store(), scheduler);
  ASSERT_LE(morsels.size(), 16u);
  EXPECT_EQ(scheduler.NumWorkers(morsels.size()), morsels.size());
  const MorselRunStats stats =
      scheduler.Run(morsels, [](size_t, size_t, const Morsel&) {});
  EXPECT_LE(stats.num_workers, 16u);

  ExpectSameResult(PinocchioSolver(kHugeBudget).Solve(prepared),
                   PinocchioSolver().Solve(prepared), kHugeBudget);
  ExpectSameResult(PinocchioVOSolver(true, kHugeBudget).Solve(prepared),
                   PinocchioVOSolver().Solve(prepared), kHugeBudget);
  ExpectSameResult(NaiveSolver(kHugeBudget).Solve(prepared),
                   NaiveSolver().Solve(prepared), kHugeBudget);
}

// The largest representable budget must not wrap the morsel count it asks
// for (budget x morsels-per-worker) around to a small number. Planning
// only: nothing is run.
TEST(ThreadBudgetTest, MaximalBudgetPlanDoesNotWrap) {
  const MorselScheduler scheduler(std::numeric_limits<size_t>::max());
  EXPECT_EQ(scheduler.RecordPlan().min_morsels,
            std::numeric_limits<size_t>::max());
  EXPECT_EQ(scheduler.PlanUniform(10, 8).size(), 10u);
  EXPECT_EQ(scheduler.NumWorkers(10), 10u);
}

}  // namespace
}  // namespace pinocchio
