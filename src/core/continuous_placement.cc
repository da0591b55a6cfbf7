#include "core/continuous_placement.h"

#include <cmath>
#include <queue>

#include "core/influence_query.h"
#include "core/prepared_instance.h"
#include "prob/influence.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

// 1 - (1 - p)^n, stable for small p.
double CumulativeAt(double p, size_t n) {
  if (p >= 1.0) return 1.0;
  return -std::expm1(static_cast<double>(n) * std::log1p(-p));
}

void FinishTiming(ContinuousPlacementResult* result, double solve_seconds) {
  result->solve_seconds = solve_seconds;
  result->elapsed_seconds = result->prepare_seconds + solve_seconds;
}

}  // namespace

ContinuousPlacementResult PlaceAnywhere(
    const PreparedInstance& prepared, const Mbr& region,
    const ContinuousPlacementOptions& options) {
  PINO_CHECK_GT(prepared.num_objects(), 0u);
  PINO_CHECK_GT(options.resolution_meters, 0.0);
  Stopwatch watch;
  const ProbabilityFunction& pf = prepared.pf();
  const double tau = prepared.tau();
  const ObjectStore& store = prepared.store();

  Mbr root = region;
  if (root.IsEmpty()) {
    for (const ObjectRecord& rec : store.records()) root.Expand(rec.mbr);
  }
  PINO_CHECK(!root.IsEmpty());

  // Upper-bounds the influence attainable anywhere inside `cell`.
  const auto cell_upper_bound = [&](const Mbr& cell) {
    int64_t bound = 0;
    for (const ObjectRecord& rec : store.records()) {
      const double p = pf(cell.MinDist(rec.mbr));
      if (CumulativeAt(p, rec.position_count) >= tau) ++bound;
    }
    return bound;
  };

  struct Cell {
    Mbr box;
    int64_t upper;
    bool operator<(const Cell& other) const { return upper < other.upper; }
  };
  std::priority_queue<Cell> heap;
  heap.push({root, cell_upper_bound(root)});

  ContinuousPlacementResult result;
  result.location = root.Center();
  result.influence = -1;
  result.upper_bound = heap.top().upper;

  while (!heap.empty() && result.cells_explored < options.max_cells) {
    const Cell cell = heap.top();
    heap.pop();
    if (cell.upper <= result.influence) {
      // Best-first order: nothing left can beat the incumbent.
      result.upper_bound = std::max(result.influence, cell.upper);
      break;
    }
    ++result.cells_explored;

    const Point centre = cell.box.Center();
    const int64_t exact = InfluenceOfCandidate(prepared, centre);
    ++result.evaluations;
    if (exact > result.influence) {
      result.influence = exact;
      result.location = centre;
    }
    result.upper_bound = cell.upper;

    const double half_w = cell.box.width() / 2.0;
    const double half_h = cell.box.height() / 2.0;
    if (std::max(half_w, half_h) * 2.0 <= options.resolution_meters) {
      continue;  // cell fully resolved at the requested resolution
    }
    const double mx = cell.box.min_x() + half_w;
    const double my = cell.box.min_y() + half_h;
    const Mbr quadrants[4] = {
        Mbr(cell.box.min_x(), cell.box.min_y(), mx, my),
        Mbr(mx, cell.box.min_y(), cell.box.max_x(), my),
        Mbr(cell.box.min_x(), my, mx, cell.box.max_y()),
        Mbr(mx, my, cell.box.max_x(), cell.box.max_y()),
    };
    for (const Mbr& q : quadrants) {
      const int64_t bound = cell_upper_bound(q);
      if (bound > result.influence) heap.push({q, bound});
    }
  }
  if (heap.empty()) result.upper_bound = result.influence;
  if (result.influence < 0) result.influence = 0;
  FinishTiming(&result, watch.ElapsedSeconds());
  return result;
}

ContinuousPlacementResult PlaceAnywhere(
    const std::vector<MovingObject>& objects, const Mbr& region,
    const SolverConfig& config, const ContinuousPlacementOptions& options) {
  Stopwatch watch;
  const PreparedInstance prepared(objects, config);
  const double prepare_seconds = watch.ElapsedSeconds();
  ContinuousPlacementResult result = PlaceAnywhere(prepared, region, options);
  result.prepare_seconds = prepare_seconds;
  result.elapsed_seconds = prepare_seconds + result.solve_seconds;
  return result;
}

}  // namespace pinocchio
