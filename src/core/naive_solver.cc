#include "core/naive_solver.h"

#include "core/prepared_instance.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {

SolverResult NaiveSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;

  // The baseline deliberately evaluates the full cumulative probability of
  // every pair (no Lemma-4 early exit) so its positions_scanned reflects an
  // honest exhaustive scan.
  const InfluenceKernel kernel = prepared.kernel();
  const double tau = prepared.tau();
  const ObjectStore& store = prepared.store();
  for (size_t j = 0; j < m; ++j) {
    const Point& c = prepared.candidate(j);
    for (const ObjectRecord& rec : store.records()) {
      result.stats.positions_scanned +=
          static_cast<int64_t>(rec.position_count);
      ++result.stats.pairs_validated;
      if (kernel.Probability(c, store.positions(rec)) >= tau) {
        ++result.influence[j];
      }
    }
  }

  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
