#include "core/pinocchio_solver.h"

#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {

PinocchioSolver::PinocchioSolver(size_t num_threads)
    : num_threads_(MorselScheduler(num_threads).num_threads()) {}

std::string PinocchioSolver::Name() const {
  return internal::BudgetedName("PIN", num_threads_);
}

SolverResult PinocchioSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  result.influence_exact = true;

  // Algorithm 2 over the shared pipeline: Lemma-2 IA credits and Lemma-3
  // NIB exclusions per object, then batch validation of the remnant set
  // C'' against the object's arena span (with the Lemma-4 early exit).
  const InfluenceKernel kernel = prepared.kernel();
  const ObjectStore& store = prepared.store();
  const RTree& rtree = prepared.candidate_rtree();
  const MorselScheduler scheduler(num_threads_);
  const std::vector<Morsel> morsels = PlanMorsels(store, scheduler);
  result.influence = RunPruneMorsels(
      scheduler, morsels, prepared.num_candidates(), &result.stats,
      [&](PruneAccumulator& acc, size_t, const Morsel& morsel) {
        PruneAndValidate(rtree, store, kernel, morsel.first_record,
                         morsel.last_record, acc.influence, &acc.stats);
      });

  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
