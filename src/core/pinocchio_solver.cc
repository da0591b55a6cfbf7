#include "core/pinocchio_solver.h"

#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {

SolverResult PinocchioSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;

  // Algorithm 2 over the shared pipeline: Lemma-2 IA credits and Lemma-3
  // NIB exclusions per object, then batch validation of the remnant set
  // C'' against the object's arena span (with the Lemma-4 early exit).
  const InfluenceKernel kernel = prepared.kernel();
  PruneAndValidate(prepared.candidate_rtree(), prepared.store(), kernel, 0,
                   static_cast<uint32_t>(prepared.num_objects()),
                   result.influence, &result.stats);

  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
