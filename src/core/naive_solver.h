// NA — the exhaustive baseline (Section 6.1): computes the cumulative
// influence probability for every object-candidate pair.

#ifndef PINOCCHIO_CORE_NAIVE_SOLVER_H_
#define PINOCCHIO_CORE_NAIVE_SOLVER_H_

#include <cstddef>

#include "core/solver.h"

namespace pinocchio {

/// Exhaustive PRIME-LS solver; O(m * r * n), exact for every candidate.
/// Serves as the correctness oracle for the property tests.
///
/// `num_threads` is the morsel-engine budget (0 = hardware concurrency):
/// every candidate costs the same full scan, so candidates are cut into
/// uniform ranges. Results are identical at every budget.
class NaiveSolver : public Solver {
 public:
  explicit NaiveSolver(size_t num_threads = 1);

  std::string Name() const override;

  using Solver::Solve;
  SolverResult Solve(const PreparedInstance& prepared) const override;

 private:
  size_t num_threads_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_NAIVE_SOLVER_H_
