#include "core/prune_pipeline.h"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <vector>

#include "index/grid_index.h"
#include "prob/influence.h"
#include "prob/influence_kernel.h"
#include "prob/prune_filter_simd.h"
#include "util/self_check.h"

namespace pinocchio {
namespace {

/// Batches below this size run the exact scalar predicates directly: the
/// fixed cost of gathering the batch outweighs the vector savings.
constexpr size_t kMinBatchForPruneFilter = 8;

/// Per-record scratch of the classification, reused across the records of
/// one Classify/PruneAndValidate call.
struct PruneScratch {
  std::vector<RTreeEntry> entries;
  std::vector<PruneLaneClass> classes;
  // The entries no node verdict settled, and their filter batch.
  std::vector<uint32_t> open;
  std::vector<Point> points;
  std::vector<PruneLaneClass> lane_classes;
};

/// Exact scalar classification of one candidate (the reference the filter
/// must agree with).
PruneLaneClass ClassifyExact(const ObjectRecord& rec, const Point& p) {
  if (!rec.nib.Contains(p)) return PruneLaneClass::kOutside;
  if (!rec.ia.IsEmpty() && rec.ia.Contains(p)) {
    return PruneLaneClass::kIaCertified;
  }
  return PruneLaneClass::kRemnant;
}

void ReportPruneFilterViolation(const ObjectRecord& rec, const RTreeEntry& e,
                                PruneLaneClass filter_class,
                                PruneLaneClass exact_class) {
  std::ostringstream msg;
  msg.precision(17);
  msg << "prune filter violated its certificate: candidate " << e.id
      << " at (" << e.point.x << ", " << e.point.y << ") classified "
      << static_cast<int>(filter_class) << " but exact predicates say "
      << static_cast<int>(exact_class) << " (minMaxRadius "
      << rec.min_max_radius << ")";
  ReportSelfCheckViolation(msg.str());
}

void ReportClassificationViolation(const char* lemma, const RTreeEntry& entry,
                                   const InfluenceKernel& kernel,
                                   std::span<const Point> positions,
                                   bool influences) {
  std::ostringstream msg;
  msg.precision(17);
  msg << lemma << " violated: candidate " << entry.id << " at ("
      << entry.point.x << ", " << entry.point.y << ") was "
      << (influences ? "classified non-influencing but influences"
                     : "IA-certified but does not influence")
      << " the object (" << positions.size() << " positions, tau="
      << kernel.tau() << ", pf=" << kernel.pf().Name() << ")";
  ReportSelfCheckViolation(msg.str());
}

// The self-check audit: enumerates EVERY candidate of the index and
// re-derives its classification from the scalar reference. Lemma 3 demands
// that candidates outside the NIB never influence the object; Lemma 2 that
// candidates inside the IA always do. Candidates in the remnant ring carry
// no claim — validation decides them (and the kernel audits itself there).
template <typename Index>
void AuditClassification(const Index& index, const InfluenceArcsRegion& ia,
                         const NonInfluenceBoundary& nib,
                         const InfluenceKernel& kernel,
                         std::span<const Point> positions) {
  index.QueryRect(index.Bounds(), [&](const RTreeEntry& e) {
    if (!nib.Contains(e.point)) {
      if (Influences(kernel.pf(), e.point, positions, kernel.tau())) {
        ReportClassificationViolation("Lemma 3 (NIB prune)", e, kernel,
                                      positions, true);
      }
    } else if (!ia.IsEmpty() && ia.Contains(e.point)) {
      if (!Influences(kernel.pf(), e.point, positions, kernel.tau())) {
        ReportClassificationViolation("Lemma 2 (IA certificate)", e, kernel,
                                      positions, false);
      }
    }
  });
}

/// The class every point of `box` has under the exact region predicates,
/// or kUndecided. Mbr::MinDistSquared and MaxDistSquared are sequences of
/// monotone roundings of each coordinate's distance to the MBR's sides,
/// and those distances peak at an end of the box's extent in that
/// coordinate, so over the box both squared distances peak at a corner:
/// corner values at or below the lane filter's certified accept threshold
/// bound every point inside.
PruneLaneClass ClassifyBox(const ObjectRecord& rec,
                           const prune_internal::PruneThresholds& thresholds,
                           const Mbr& box) {
  if (box.IsEmpty()) return PruneLaneClass::kUndecided;
  const Point corners[4] = {{box.min_x(), box.min_y()},
                            {box.min_x(), box.max_y()},
                            {box.max_x(), box.min_y()},
                            {box.max_x(), box.max_y()}};
  double q_min = 0.0;
  for (const Point& c : corners) {
    q_min = std::max(q_min, rec.mbr.MinDistSquared(c));
  }
  if (!(q_min <= thresholds.accept)) return PruneLaneClass::kUndecided;
  if (rec.ia.IsEmpty()) return PruneLaneClass::kRemnant;
  double q_max = 0.0;
  for (const Point& c : corners) {
    q_max = std::max(q_max, rec.mbr.MaxDistSquared(c));
  }
  return q_max <= thresholds.accept ? PruneLaneClass::kIaCertified
                                    : PruneLaneClass::kUndecided;
}

// The single range-query site of the prune phase: one record against
// every candidate of `index`, instantiated for each candidate-index type.
// With a filter (tiers above kScalar) the R-tree settles whole nodes that
// lie inside the NIB (and inside or outside the IA) at once, and the hits
// left open are classified as a SIMD batch; kUndecided lanes — and every
// settled entry under self-check — are re-derived with the exact region
// predicates, so the classes handed to `visit` are identical to the
// scalar path on every input.
template <typename Index>
void ClassifyRecord(const Index& index, const ObjectStore& store,
                    const ObjectRecord& rec, uint32_t record_index,
                    size_t num_candidates, SolverStats* stats, bool self_check,
                    const InfluenceKernel& kernel,
                    const SimdPruneFilter* filter, PruneScratch* scratch,
                    const PruneRecordFn& visit) {
  if (self_check) {
    AuditClassification(index, rec.ia, rec.nib, kernel, store.positions(rec));
  }
  std::vector<RTreeEntry>& entries = scratch->entries;
  std::vector<PruneLaneClass>& classes = scratch->classes;
  std::vector<uint32_t>& open = scratch->open;
  entries.clear();
  classes.clear();
  open.clear();
  const auto collect = [&](const RTreeEntry& e, PruneLaneClass cls) {
    if (cls == PruneLaneClass::kUndecided) {
      open.push_back(static_cast<uint32_t>(entries.size()));
    }
    entries.push_back(e);
    classes.push_back(cls);
  };
  const Mbr rect = rec.nib.BoundingBox();
  bool settled = false;
  if constexpr (std::is_same_v<Index, RTree>) {
    if (filter != nullptr) {
      const prune_internal::PruneThresholds thresholds =
          prune_internal::MakePruneThresholds(rec.min_max_radius);
      index.QueryRectSettled(
          rect, PruneLaneClass::kUndecided,
          [&](const Mbr& box) { return ClassifyBox(rec, thresholds, box); },
          collect);
      settled = true;
    }
  }
  if (!settled) {
    index.QueryRect(rect, [&](const RTreeEntry& e) {
      collect(e, PruneLaneClass::kUndecided);
    });
  }

  // Entries no node verdict settled: the SIMD batch first, then the exact
  // predicates for whatever it leaves undecided.
  if (filter != nullptr && open.size() >= kMinBatchForPruneFilter) {
    scratch->points.resize(open.size());
    scratch->lane_classes.resize(open.size());
    for (size_t i = 0; i < open.size(); ++i) {
      scratch->points[i] = entries[open[i]].point;
    }
    filter->Classify(rec.mbr, rec.min_max_radius, rec.ia.IsEmpty(),
                     scratch->points, scratch->lane_classes.data());
    for (size_t i = 0; i < open.size(); ++i) {
      classes[open[i]] = scratch->lane_classes[i];
    }
  }
  for (const uint32_t i : open) {
    if (classes[i] == PruneLaneClass::kUndecided) {
      classes[i] = ClassifyExact(rec, entries[i].point);
    }
  }
  if (self_check) {
    for (size_t i = 0; i < entries.size(); ++i) {
      const PruneLaneClass exact = ClassifyExact(rec, entries[i].point);
      if (exact != classes[i]) {
        ReportPruneFilterViolation(rec, entries[i], classes[i], exact);
        classes[i] = exact;
      }
    }
  }
  if (stats != nullptr) {
    int64_t inside_nib = 0;
    int64_t ia_certified = 0;
    for (const PruneLaneClass cls : classes) {
      inside_nib += cls != PruneLaneClass::kOutside;            // Lemma 3
      ia_certified += cls == PruneLaneClass::kIaCertified;      // Lemma 2
    }
    stats->pairs_pruned_by_ia += ia_certified;
    stats->pairs_pruned_by_nib +=
        static_cast<int64_t>(num_candidates) - inside_nib;
  }
  visit(record_index, entries, classes);
}

template <typename Index>
void ClassifyImpl(const Index& index, const ObjectStore& store,
                  const InfluenceKernel& kernel, uint32_t first_record,
                  uint32_t last_record, size_t num_candidates,
                  SolverStats* stats, const PruneRecordFn& visit) {
  const bool self_check = SelfCheckEnabled();
  const SimdPruneFilter filter(kernel.simd_tier());
  const SimdPruneFilter* filter_ptr =
      filter.tier() == SimdTier::kScalar ? nullptr : &filter;
  PruneScratch scratch;
  for (uint32_t k = first_record; k < last_record; ++k) {
    ClassifyRecord(index, store, store.records()[k], k, num_candidates, stats,
                   self_check, kernel, filter_ptr, &scratch, visit);
  }
}

/// ClassifyImpl with the per-pair visitors, called in entry order.
template <typename Index>
void ClassifyPairsImpl(const Index& index, const ObjectStore& store,
                       const InfluenceKernel& kernel, uint32_t first_record,
                       uint32_t last_record, size_t num_candidates,
                       SolverStats* stats, const PruneIaFn& ia_certified,
                       const PruneRemnantFn& remnant) {
  ClassifyImpl(index, store, kernel, first_record, last_record,
               num_candidates, stats,
               [&](uint32_t record, std::span<const RTreeEntry> entries,
                   std::span<const PruneLaneClass> classes) {
                 for (size_t i = 0; i < entries.size(); ++i) {
                   if (classes[i] == PruneLaneClass::kIaCertified) {
                     ia_certified(entries[i], record);
                   } else if (classes[i] == PruneLaneClass::kRemnant) {
                     remnant(entries[i], record);
                   }
                 }
               });
}

template <typename Index>
void PruneAndValidateImpl(const Index& index, const ObjectStore& store,
                          const InfluenceKernel& kernel, uint32_t first_record,
                          uint32_t last_record, std::span<int64_t> influence,
                          SolverStats* stats) {
  // Per-object scratch, reused across records: the remnant set stays tiny
  // relative to the candidate count whenever pruning bites.
  std::vector<Point> remnant_points;
  std::vector<uint32_t> remnant_ids;
  std::vector<uint8_t> influenced;
  ClassifyImpl(
      index, store, kernel, first_record, last_record, influence.size(),
      stats,
      [&](uint32_t k, std::span<const RTreeEntry> entries,
          std::span<const PruneLaneClass> classes) {
        remnant_points.clear();
        remnant_ids.clear();
        for (size_t i = 0; i < entries.size(); ++i) {
          if (classes[i] == PruneLaneClass::kIaCertified) {
            ++influence[entries[i].id];
          } else if (classes[i] == PruneLaneClass::kRemnant) {
            remnant_points.push_back(entries[i].point);
            remnant_ids.push_back(entries[i].id);
          }
        }
        if (remnant_points.empty()) return;
        // DecideMany routes batches of >=4 remnants through the SIMD
        // filter-and-refine path; decisions stay bit-identical to per-pair
        // Decide (see influence_kernel.h).
        influenced.assign(remnant_points.size(), 0);
        const InfluenceBatchCounters counters = kernel.DecideMany(
            remnant_points, store.positions(k), influenced);
        if (stats != nullptr) {
          stats->pairs_validated +=
              static_cast<int64_t>(remnant_points.size());
          stats->positions_scanned += counters.positions_seen;
          stats->early_stops += counters.early_stops;
        }
        for (size_t i = 0; i < remnant_ids.size(); ++i) {
          if (influenced[i] != 0) ++influence[remnant_ids[i]];
        }
      });
}

}  // namespace

void ClassifyCandidates(const RTree& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, PruneIaFn ia_certified,
                        PruneRemnantFn remnant) {
  ClassifyPairsImpl(index, store, kernel, first_record, last_record,
                    num_candidates, stats, ia_certified, remnant);
}

void ClassifyCandidates(const GridIndex& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, PruneIaFn ia_certified,
                        PruneRemnantFn remnant) {
  ClassifyPairsImpl(index, store, kernel, first_record, last_record,
                    num_candidates, stats, ia_certified, remnant);
}

void ClassifyCandidates(const RTree& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, PruneRecordFn visit) {
  ClassifyImpl(index, store, kernel, first_record, last_record, num_candidates,
               stats, visit);
}

void ClassifyCandidates(const RTree& index, const InfluenceArcsRegion& ia,
                        const NonInfluenceBoundary& nib,
                        const InfluenceKernel& kernel,
                        std::span<const Point> positions, PruneIaFn ia_certified,
                        PruneRemnantFn remnant) {
  if (SelfCheckEnabled()) {
    AuditClassification(index, ia, nib, kernel, positions);
  }
  index.QueryRect(nib.BoundingBox(), [&](const RTreeEntry& e) {
    if (!nib.Contains(e.point)) return;
    if (!ia.IsEmpty() && ia.Contains(e.point)) {
      ia_certified(e, 0);
    } else {
      remnant(e, 0);
    }
  });
}

void PruneAndValidate(const RTree& index, const ObjectStore& store,
                      const InfluenceKernel& kernel, uint32_t first_record,
                      uint32_t last_record, std::span<int64_t> influence,
                      SolverStats* stats) {
  PruneAndValidateImpl(index, store, kernel, first_record, last_record,
                       influence, stats);
}

void PruneAndValidate(const GridIndex& index, const ObjectStore& store,
                      const InfluenceKernel& kernel, uint32_t first_record,
                      uint32_t last_record, std::span<int64_t> influence,
                      SolverStats* stats) {
  PruneAndValidateImpl(index, store, kernel, first_record, last_record,
                       influence, stats);
}

std::vector<Morsel> PlanMorsels(const ObjectStore& store,
                                const MorselScheduler& scheduler) {
  const auto r = static_cast<uint32_t>(store.size());
  if (r == 0) return {};
  if (scheduler.num_threads() == 1) return {Morsel{0, r}};
  std::vector<uint32_t> counts;
  counts.reserve(r);
  for (const ObjectRecord& rec : store.records()) {
    counts.push_back(rec.position_count);
  }
  return PlanMorsels(counts, scheduler.RecordPlan());
}

std::vector<int64_t> RunPruneMorsels(
    const MorselScheduler& scheduler, std::span<const Morsel> morsels,
    size_t num_candidates, SolverStats* stats,
    FunctionRef<void(PruneAccumulator&, size_t, const Morsel&)> body) {
  std::vector<PruneAccumulator> workers(
      scheduler.NumWorkers(morsels.size()));
  if (workers.empty()) return std::vector<int64_t>(num_candidates, 0);
  for (PruneAccumulator& w : workers) w.influence.assign(num_candidates, 0);
  scheduler.Run(morsels, [&](size_t w, size_t index, const Morsel& morsel) {
    body(workers[w], index, morsel);
  });
  std::vector<int64_t> influence = std::move(workers[0].influence);
  for (size_t w = 1; w < workers.size(); ++w) {
    for (size_t j = 0; j < num_candidates; ++j) {
      influence[j] += workers[w].influence[j];
    }
  }
  if (stats != nullptr) {
    for (const PruneAccumulator& w : workers) stats->AddCounters(w.stats);
  }
  return influence;
}

}  // namespace pinocchio
