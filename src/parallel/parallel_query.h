// Spellings of the query-engine entry points under their former
// "*Parallel" names, kept for the serving benchmark's driver
// (perfbench/driver.cc), which is frozen so its numbers stay comparable
// across changes. Each forwards onto the single implementation, which
// takes the thread budget as a parameter; nothing else calls these.

#ifndef PINOCCHIO_PARALLEL_PARALLEL_QUERY_H_
#define PINOCCHIO_PARALLEL_PARALLEL_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/approx_solver.h"
#include "core/query_engine.h"
#include "parallel/morsel_scheduler.h"

namespace pinocchio {
namespace query {

inline CandidateBrackets BuildCandidateBracketsParallel(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    const MorselScheduler& scheduler, SolverStats* stats) {
  return BuildCandidateBrackets(prepared, kernel, true, stats,
                                scheduler.num_threads());
}

inline std::vector<uint32_t> BoundDominationOrderParallel(
    const CandidateBrackets& brackets, const MorselScheduler& /*scheduler*/) {
  return BoundDominationOrder(brackets);
}

inline SkylineResult SolveSkylineParallel(const PreparedInstance& prepared,
                                          std::span<const double> cost,
                                          size_t num_threads) {
  return SolveSkyline(prepared, cost, num_threads);
}

inline DiversifiedResult SelectDiversifiedParallel(
    const PreparedInstance& prepared, size_t k, double min_separation,
    size_t num_threads) {
  return SelectDiversified(prepared, k, min_separation, num_threads);
}

inline ApproxTopKResult SolveApproxTopKParallel(
    const PreparedInstance& prepared, size_t k, const SketchParams& params,
    size_t num_threads) {
  return SolveApproxTopK(prepared, k, params, num_threads);
}

}  // namespace query
}  // namespace pinocchio

#endif  // PINOCCHIO_PARALLEL_PARALLEL_QUERY_H_
