#include "parallel/parallel_solvers.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "parallel/morsel_scheduler.h"
#include "parallel/parallel_query.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

/// Candidates per NA morsel: each candidate costs a full position scan, so
/// even small ranges amortise the claim CAS while stealing stays fine.
constexpr size_t kNaiveCandidatesPerMorsel = 8;

/// Morsels dealt per worker; >1 so drained workers find work to steal.
constexpr size_t kMorselsPerWorker = 4;

/// Per-worker accumulator, padded to its own cache lines so the hot
/// per-pair counter increments of one worker never invalidate another's.
struct alignas(128) WorkerAccumulator {
  std::vector<int64_t> influence;
  SolverStats stats;
  int64_t positions_scanned = 0;
};

}  // namespace

ParallelNaiveSolver::ParallelNaiveSolver(size_t num_threads)
    : num_threads_(MorselScheduler(num_threads).num_threads()) {}

std::string ParallelNaiveSolver::Name() const {
  std::ostringstream os;
  os << "NA-P" << num_threads_;
  return os.str();
}

SolverResult ParallelNaiveSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;

  const InfluenceKernel kernel = prepared.kernel();
  const double tau = prepared.tau();
  const ObjectStore& store = prepared.store();

  const MorselScheduler scheduler(num_threads_);
  const std::vector<Morsel> morsels = PlanUniformMorsels(
      m, kNaiveCandidatesPerMorsel, scheduler.num_threads() * kMorselsPerWorker);
  std::vector<WorkerAccumulator> workers(scheduler.num_threads());
  scheduler.Run(morsels, [&](size_t w, size_t, const Morsel& morsel) {
    int64_t local_positions = 0;
    for (uint32_t j = morsel.first_record; j < morsel.last_record; ++j) {
      const Point& c = prepared.candidate(j);
      int64_t inf = 0;
      for (const ObjectRecord& rec : store.records()) {
        local_positions += static_cast<int64_t>(rec.position_count);
        if (kernel.Probability(c, store.positions(rec)) >= tau) ++inf;
      }
      result.influence[j] = inf;  // exclusive candidate range: no sync
    }
    workers[w].positions_scanned += local_positions;
  });

  for (const WorkerAccumulator& w : workers) {
    result.stats.positions_scanned += w.positions_scanned;
  }
  result.stats.pairs_validated =
      static_cast<int64_t>(m) * static_cast<int64_t>(store.size());
  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

ParallelPinocchioSolver::ParallelPinocchioSolver(size_t num_threads)
    : num_threads_(MorselScheduler(num_threads).num_threads()) {}

std::string ParallelPinocchioSolver::Name() const {
  std::ostringstream os;
  os << "PIN-P" << num_threads_;
  return os.str();
}

SolverResult ParallelPinocchioSolver::Solve(
    const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  // One kernel shared by all workers: the SIMD tier is resolved once at
  // construction, so every thread batches through the same code path.
  const InfluenceKernel kernel = prepared.kernel();
  const ObjectStore& store = prepared.store();
  const RTree& rtree = prepared.candidate_rtree();

  const MorselScheduler scheduler(num_threads_);
  MorselPlanOptions plan;
  plan.min_morsels = scheduler.num_threads() * kMorselsPerWorker;
  const std::vector<Morsel> morsels = PlanMorsels(store, plan);

  // Workers run the shared pipeline over stolen morsels into private
  // accumulators; the merges below are associative integer sums, so the
  // totals are bit-identical to the sequential solver regardless of which
  // worker executed which morsel.
  std::vector<WorkerAccumulator> workers(scheduler.num_threads());
  for (WorkerAccumulator& w : workers) w.influence.assign(m, 0);
  scheduler.Run(morsels, [&](size_t w, size_t, const Morsel& morsel) {
    PruneAndValidate(rtree, store, kernel, morsel.first_record,
                     morsel.last_record, workers[w].influence,
                     &workers[w].stats);
  });

  for (const WorkerAccumulator& w : workers) {
    for (size_t j = 0; j < m; ++j) result.influence[j] += w.influence[j];
    result.stats.pairs_pruned_by_ia += w.stats.pairs_pruned_by_ia;
    result.stats.pairs_pruned_by_nib += w.stats.pairs_pruned_by_nib;
    result.stats.pairs_validated += w.stats.pairs_validated;
    result.stats.positions_scanned += w.stats.positions_scanned;
    result.stats.early_stops += w.stats.early_stops;
  }

  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

ParallelPinocchioVOSolver::ParallelPinocchioVOSolver(size_t num_threads)
    : num_threads_(MorselScheduler(num_threads).num_threads()) {}

std::string ParallelPinocchioVOSolver::Name() const {
  std::ostringstream os;
  os << "PIN-VO-P" << num_threads_;
  return os.str();
}

SolverResult ParallelPinocchioVOSolver::Solve(
    const PreparedInstance& prepared) const {
  const SolverConfig& config = prepared.config();
  PINO_CHECK_GT(config.top_k, 0u);
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = false;
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  const InfluenceKernel kernel = prepared.kernel();
  const MorselScheduler scheduler(num_threads_);

  // -------------------------------------------------- phase 1: prune
  // Morsel-parallel bracket build (parallel/parallel_query.cc): the CSR is
  // byte-identical to the sequential builder's.
  query::CandidateBrackets brackets = query::BuildCandidateBracketsParallel(
      prepared, kernel, scheduler, &result.stats);

  // -------------------------------------------------- phase 2: order
  // Per-shard heapsort + tournament merge under query::OrderBefore,
  // equal to the sequential sorted order.
  const std::vector<uint32_t> order =
      query::BoundDominationOrderParallel(brackets, scheduler);

  // -------------------------------------------------- phase 3: validate
  const auto verification_set = [&](uint32_t j) -> std::span<const uint32_t> {
    return brackets.VerificationSet(j);
  };
  vo_internal::ValidateBoundOrdered(prepared, kernel, order, verification_set,
                                    config.top_k, &brackets.min_inf,
                                    &brackets.max_inf, &result);

  result.influence = std::move(brackets.min_inf);
  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
