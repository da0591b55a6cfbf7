#include "parallel/parallel_query.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace query {
namespace {

/// Morsels dealt per worker; >1 so drained workers find work to steal.
constexpr size_t kMorselsPerWorker = 4;

/// Per-worker prune accumulator, padded to its own cache lines so the hot
/// per-pair counter increments of one worker never invalidate another's.
struct alignas(128) PruneAccumulator {
  std::vector<int64_t> influence;
  SolverStats stats;
};

/// Tournament (winner-tree) merge of per-shard sorted runs under the
/// strict total order `before`. Because the order has no ties and the
/// shards partition the candidate ids, the merged sequence equals a global
/// sort of the concatenated input — the sequential solver's order.
template <typename Before>
std::vector<uint32_t> TournamentMerge(
    const std::vector<std::vector<uint32_t>>& runs, size_t total,
    const Before& before) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  const size_t s = runs.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  if (s == 0) return out;

  size_t leaves = 1;
  while (leaves < s) leaves <<= 1;
  std::vector<size_t> tree(2 * leaves, kNone);  // node -> winning run index
  std::vector<size_t> pos(s, 0);

  const auto exhausted = [&](size_t run) {
    return run == kNone || pos[run] >= runs[run].size();
  };
  const auto winner = [&](size_t a, size_t b) {
    if (exhausted(a)) return b;
    if (exhausted(b)) return a;
    return before(runs[a][pos[a]], runs[b][pos[b]]) ? a : b;
  };

  for (size_t i = 0; i < leaves; ++i) tree[leaves + i] = i < s ? i : kNone;
  for (size_t i = leaves - 1; i >= 1; --i) {
    tree[i] = winner(tree[2 * i], tree[2 * i + 1]);
  }
  while (!exhausted(tree[1])) {
    const size_t run = tree[1];
    out.push_back(runs[run][pos[run]]);
    ++pos[run];
    for (size_t node = (leaves + run) / 2; node >= 1; node /= 2) {
      tree[node] = winner(tree[2 * node], tree[2 * node + 1]);
    }
  }
  return out;
}

}  // namespace

CandidateBrackets BuildCandidateBracketsParallel(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    const MorselScheduler& scheduler, SolverStats* stats) {
  const ObjectStore& store = prepared.store();
  const RTree& rtree = prepared.candidate_rtree();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<int64_t>(store.size());

  // Morsel-parallel classification. minInf is a per-worker accumulator
  // (additive, any order); remnant pairs go to per-morsel record-major
  // lists whose morsel order is ascending record order — the CSR built
  // from them is byte-identical to the sequential builder's.
  MorselPlanOptions plan;
  plan.min_morsels = scheduler.num_threads() * kMorselsPerWorker;
  const std::vector<Morsel> morsels = PlanMorsels(store, plan);

  std::vector<PruneAccumulator> workers(scheduler.num_threads());
  for (PruneAccumulator& w : workers) w.influence.assign(m, 0);
  std::vector<RemnantLists> morsel_remnants(morsels.size());
  scheduler.Run(morsels, [&](size_t w, size_t mi, const Morsel& morsel) {
    PruneAccumulator& acc = workers[w];
    RemnantLists& remnants = morsel_remnants[mi];
    remnants.first_record = morsel.first_record;
    remnants.record_ends.reserve(morsel.last_record - morsel.first_record);
    ClassifyCandidates(
        rtree, store, kernel, morsel.first_record, morsel.last_record, m,
        &acc.stats,
        [&](uint32_t, std::span<const RTreeEntry> entries,
            std::span<const PruneLaneClass> classes) {
          remnants.AddRecord(entries, classes, acc.influence);
        });
  });

  CandidateBrackets brackets;
  brackets.pruned = true;
  brackets.min_inf.assign(m, 0);
  brackets.max_inf.assign(m, r);
  for (const PruneAccumulator& w : workers) {
    for (size_t j = 0; j < m; ++j) brackets.min_inf[j] += w.influence[j];
    if (stats != nullptr) {
      stats->pairs_pruned_by_ia += w.stats.pairs_pruned_by_ia;
      stats->pairs_pruned_by_nib += w.stats.pairs_pruned_by_nib;
    }
  }
  FinishBrackets(&brackets, morsel_remnants);
  return brackets;
}

std::vector<uint32_t> BoundDominationOrderParallel(
    const CandidateBrackets& brackets, const MorselScheduler& scheduler) {
  const size_t m = brackets.num_candidates();
  // Contention-free heap phase: each shard heapsorts its own candidate
  // range (no shared heap, no locks), then a tournament tree merges the
  // runs under query::OrderBefore — a strict total order, so the merged
  // sequence equals the sequential solver's sorted order.
  const auto before = [&](uint32_t a, uint32_t b) {
    return OrderBefore(brackets.min_inf, brackets.max_inf, a, b);
  };
  const std::vector<Morsel> shards = PlanUniformMorsels(
      m, (m + scheduler.num_threads() - 1) / scheduler.num_threads());
  std::vector<std::vector<uint32_t>> runs(shards.size());
  scheduler.Run(shards, [&](size_t, size_t si, const Morsel& shard) {
    std::vector<uint32_t>& run = runs[si];
    run.resize(shard.size());
    std::iota(run.begin(), run.end(), shard.first_record);
    std::make_heap(run.begin(), run.end(), before);
    std::sort_heap(run.begin(), run.end(), before);
  });
  return TournamentMerge(runs, m, before);
}

InfluenceSets BuildInfluenceSetsParallel(const PreparedInstance& prepared,
                                         const InfluenceKernel& kernel,
                                         const MorselScheduler& scheduler) {
  const ObjectStore& store = prepared.store();
  MorselPlanOptions plan;
  plan.min_morsels = scheduler.num_threads() * kMorselsPerWorker;
  const std::vector<Morsel> morsels = PlanMorsels(store, plan);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> morsel_pairs(
      morsels.size());
  scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel& morsel) {
    CollectInfluencePairs(prepared, kernel, morsel.first_record,
                          morsel.last_record, &morsel_pairs[mi]);
  });
  return InfluenceSetsFromPairs(prepared.num_candidates(), morsel_pairs);
}

SkylineResult SolveSkylineParallel(const PreparedInstance& prepared,
                                   std::span<const double> cost,
                                   size_t num_threads) {
  PINO_CHECK_EQ(cost.size(), prepared.num_candidates());
  Stopwatch watch;
  SkylineResult result;
  if (prepared.num_candidates() == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }
  const InfluenceKernel kernel = prepared.kernel();
  const MorselScheduler scheduler(num_threads);
  CandidateBrackets brackets =
      BuildCandidateBracketsParallel(prepared, kernel, scheduler,
                                     &result.stats);
  SolveSkylineOnBrackets(prepared, kernel, cost, &brackets, &result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

DiversifiedResult SelectDiversifiedParallel(const PreparedInstance& prepared,
                                            size_t k, double min_separation,
                                            size_t num_threads) {
  PINO_CHECK_GT(k, 0u);
  PINO_CHECK_GE(min_separation, 0.0);
  Stopwatch watch;
  DiversifiedResult result;
  if (prepared.num_candidates() == 0) {
    result.solve_seconds = watch.ElapsedSeconds();
    result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
    return result;
  }
  const InfluenceKernel kernel = prepared.kernel();
  const MorselScheduler scheduler(num_threads);
  const InfluenceSets sets =
      BuildInfluenceSetsParallel(prepared, kernel, scheduler);
  SelectDiversifiedOnSets(prepared, k, min_separation, sets, &result);
  result.solve_seconds = watch.ElapsedSeconds();
  result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
  return result;
}

ApproxTopKResult SolveApproxTopKParallel(const PreparedInstance& prepared,
                                         size_t k, const SketchParams& params,
                                         size_t num_threads) {
  PINO_CHECK_GT(k, 0u);
  Stopwatch watch;
  ApproxTopKResult result;
  if (prepared.num_candidates() == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }
  const InfluenceKernel kernel = prepared.kernel();
  const MorselScheduler scheduler(num_threads);
  CandidateBrackets brackets =
      BuildCandidateBracketsParallel(prepared, kernel, scheduler,
                                     &result.stats);
  const std::vector<uint32_t> order =
      BoundDominationOrderParallel(brackets, scheduler);
  SolveApproxTopKOnBrackets(prepared, kernel, params, k, order, &brackets,
                            &result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace query
}  // namespace pinocchio
