#include "parallel/morsel_scheduler.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pinocchio {
namespace {

// Every plan must partition [0, n): contiguous, gapless, in order.
void ExpectPartitions(const std::vector<Morsel>& morsels, uint32_t n) {
  uint32_t next = 0;
  for (const Morsel& m : morsels) {
    EXPECT_EQ(m.first_record, next);
    EXPECT_LT(m.first_record, m.last_record);
    next = m.last_record;
  }
  EXPECT_EQ(next, n);
}

TEST(PlanMorselsTest, EmptyStoreYieldsNoMorsels) {
  EXPECT_TRUE(PlanMorsels(std::span<const uint32_t>{}).empty());
  EXPECT_TRUE(PlanUniformMorsels(0, 8).empty());
}

TEST(PlanMorselsTest, SingleRecord) {
  const std::vector<uint32_t> counts = {17};
  const std::vector<Morsel> morsels = PlanMorsels(counts);
  ASSERT_EQ(morsels.size(), 1u);
  ExpectPartitions(morsels, 1);
}

TEST(PlanMorselsTest, TargetLargerThanStoreYieldsOneMorsel) {
  const std::vector<uint32_t> counts(20, 3);  // 60 positions << target 4096
  const std::vector<Morsel> morsels = PlanMorsels(counts);
  ASSERT_EQ(morsels.size(), 1u);
  ExpectPartitions(morsels, 20);
}

TEST(PlanMorselsTest, SplitsByPositionCountNotRecordCount) {
  // One rich record per poor stretch: cuts land after the rich records.
  MorselPlanOptions options;
  options.target_positions = 100;
  const std::vector<uint32_t> counts = {100, 1, 1, 1, 100, 100};
  const std::vector<Morsel> morsels = PlanMorsels(counts, options);
  ExpectPartitions(morsels, static_cast<uint32_t>(counts.size()));
  ASSERT_GE(morsels.size(), 3u);
  EXPECT_EQ(morsels[0].last_record, 1u);  // the first rich record alone
}

TEST(PlanMorselsTest, ZeroPositionRecordsRideAlong) {
  MorselPlanOptions options;
  options.target_positions = 10;
  const std::vector<uint32_t> counts = {0, 0, 10, 0, 0};
  const std::vector<Morsel> morsels = PlanMorsels(counts, options);
  ExpectPartitions(morsels, 5);
  // The zero-cost tail records must still be covered by some morsel.
  EXPECT_EQ(morsels.back().last_record, 5u);
}

TEST(PlanMorselsTest, MinMorselsShrinksTarget) {
  MorselPlanOptions options;
  options.target_positions = 1 << 20;
  options.min_morsels = 10;
  const std::vector<uint32_t> counts(100, 1);
  const std::vector<Morsel> morsels = PlanMorsels(counts, options);
  ExpectPartitions(morsels, 100);
  EXPECT_GE(morsels.size(), 10u);
}

TEST(PlanUniformMorselsTest, CoversCountWithBoundedWidth) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(10, 3);
  ExpectPartitions(morsels, 10);
  for (const Morsel& m : morsels) EXPECT_LE(m.size(), 3u);
}

TEST(PlanUniformMorselsTest, MinMorselsShrinksWidth) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(10, 100, 4);
  ExpectPartitions(morsels, 10);
  EXPECT_GE(morsels.size(), 4u);
}

TEST(MorselSchedulerTest, RunsEveryMorselExactlyOnce) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(256, 4);
  std::vector<std::atomic<int>> seen(morsels.size());
  const MorselScheduler scheduler(4);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel&) {
        seen[mi].fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(stats.num_morsels, morsels.size());
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(MorselSchedulerTest, WorkerIndicesStayInRange) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(64, 1);
  const MorselScheduler scheduler(3);
  std::atomic<bool> in_range{true};
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t worker, size_t, const Morsel&) {
        if (worker >= 3) in_range.store(false);
      });
  EXPECT_TRUE(in_range.load());
  EXPECT_LE(stats.num_workers, 3u);
}

TEST(MorselSchedulerTest, NeverMoreWorkersThanMorsels) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(3, 1);
  const MorselScheduler scheduler(8);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t worker, size_t, const Morsel&) {
        EXPECT_LT(worker, 3u);
      });
  EXPECT_LE(stats.num_workers, 3u);
}

TEST(MorselSchedulerTest, EmptyMorselListIsNoOp) {
  const MorselScheduler scheduler(4);
  const MorselRunStats stats = scheduler.Run(
      {}, [&](size_t, size_t, const Morsel&) { FAIL() << "no morsels"; });
  EXPECT_EQ(stats.num_morsels, 0u);
  EXPECT_EQ(stats.num_workers, 0u);
}

TEST(MorselSchedulerTest, StealsHappenUnderSkew) {
  // Worker 0's first morsel stalls; the rest of its deal can only finish
  // in time if the other workers steal it.
  const std::vector<Morsel> morsels = PlanUniformMorsels(64, 1);
  const MorselScheduler scheduler(4);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel&) {
        if (mi == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
  EXPECT_GT(stats.steals, 0);
}

TEST(MorselSchedulerTest, PropagatesBodyException) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(64, 1);
  const MorselScheduler scheduler(4);
  EXPECT_THROW(scheduler.Run(morsels,
                             [&](size_t, size_t mi, const Morsel&) {
                               if (mi == 7) {
                                 throw std::runtime_error("morsel body");
                               }
                             }),
               std::runtime_error);
}

TEST(MorselSchedulerTest, SingleThreadRunsInlineInOrder) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(10, 2);
  const MorselScheduler scheduler(1);
  std::vector<size_t> visited;
  scheduler.Run(morsels, [&](size_t worker, size_t mi, const Morsel&) {
    EXPECT_EQ(worker, 0u);
    visited.push_back(mi);
  });
  std::vector<size_t> expected(morsels.size());
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(visited, expected);
}

TEST(MorselSchedulerTest, RecordPlanFollowsTheBudget) {
  // Budget 1: one morsel spanning every record, however many positions.
  const std::vector<uint32_t> counts(100, 1000);
  const std::vector<Morsel> single =
      PlanMorsels(counts, MorselScheduler(1).RecordPlan());
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].first_record, 0u);
  EXPECT_EQ(single[0].last_record, 100u);
  // Above 1: at least four morsels per thread to steal from.
  EXPECT_EQ(MorselScheduler(3).RecordPlan().min_morsels, 12u);
  EXPECT_GE(PlanMorsels(counts, MorselScheduler(3).RecordPlan()).size(), 12u);
  EXPECT_EQ(MorselScheduler(3).NumWorkers(2), 2u);
  EXPECT_EQ(MorselScheduler(3).NumWorkers(50), 3u);
}

TEST(MorselSchedulerTest, BusySecondsAccumulate) {
  const double before = MorselEngineBusySeconds();
  const std::vector<Morsel> morsels = PlanUniformMorsels(8, 1);
  const MorselScheduler scheduler(2);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t, size_t, const Morsel&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GE(MorselEngineBusySeconds(), before);
}

}  // namespace
}  // namespace pinocchio
