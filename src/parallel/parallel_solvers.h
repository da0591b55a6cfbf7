// The PIN-VO solver under its former "ParallelPinocchioVOSolver" name,
// kept for the serving benchmark's driver (perfbench/driver.cc), which is
// frozen so its numbers stay comparable across changes. It forwards onto
// the single PinocchioVOSolver, which takes the thread budget as a
// parameter; nothing else calls it.

#ifndef PINOCCHIO_PARALLEL_PARALLEL_SOLVERS_H_
#define PINOCCHIO_PARALLEL_PARALLEL_SOLVERS_H_

#include <cstddef>

#include "core/pinocchio_vo_solver.h"

namespace pinocchio {

inline PinocchioVOSolver ParallelPinocchioVOSolver(size_t num_threads = 0) {
  return PinocchioVOSolver(/*use_pruning=*/true, num_threads);
}

}  // namespace pinocchio

#endif  // PINOCCHIO_PARALLEL_PARALLEL_SOLVERS_H_
