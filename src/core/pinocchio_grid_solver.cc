#include "core/pinocchio_grid_solver.h"

#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "index/grid_index.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {

SolverResult PinocchioGridSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  // Identical pipeline to PinocchioSolver, with the uniform grid standing
  // in for the candidate R-tree.
  const GridIndex grid(prepared.candidate_entries(), target_cells_);
  const InfluenceKernel kernel = prepared.kernel();
  PruneAndValidate(grid, prepared.store(), kernel, 0,
                   static_cast<uint32_t>(prepared.num_objects()),
                   result.influence, &result.stats);

  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
