// The shared IA/NIB prune pipeline (Algorithm 2, lines 3-9).
//
// Every PINOCCHIO-family solver runs the same per-object classification:
// probe the candidate index with NIB(O)'s bounding box, drop candidates the
// exact NIB test excludes (Lemma 3), credit candidates inside IA(O) as
// influenced outright (Lemma 2), and hand the remnant set C'' to
// validation. That loop used to be copy-pasted across five solvers; it now
// lives here once, instrumented: the pipeline owns the pairs_pruned_by_ia /
// pairs_pruned_by_nib counters of SolverStats, while pairs_validated and
// the position counters belong to whoever validates the remnant.
//
// The index probe is compiled in prune_pipeline.cc (overloaded for the
// R-tree and the grid) so there is exactly one range-query call site;
// callers pass non-owning FunctionRef visitors, which keeps the per-object
// hot loop free of std::function allocations. With a SIMD tier the R-tree
// probe settles whole nodes first (corner bounds under the lane filter's
// certified thresholds) and the lane filter classifies the rest; both
// only ever skip exact predicate calls, never change a class.
//
// Under PINOCCHIO_SELF_CHECK (util/self_check.h) every record's
// classification is audited against the scalar reference: each IA-certified
// candidate must actually influence the object (Lemma 2) and each
// NIB-pruned candidate must not (Lemma 3). The audit enumerates the whole
// candidate index per record, so self-checked solves cost O(naive); the
// kernel parameter supplies the (pf, tau) semantics being audited.

#ifndef PINOCCHIO_CORE_PRUNE_PIPELINE_H_
#define PINOCCHIO_CORE_PRUNE_PIPELINE_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "core/object_store.h"
#include "core/solver.h"
#include "index/rtree.h"
#include "prob/prune_filter_simd.h"

namespace pinocchio {

class GridIndex;
class InfluenceKernel;

/// Minimal non-owning callable reference (the hot-loop subset of
/// absl::FunctionRef): no allocation, no virtual dispatch state, valid only
/// for the duration of the call it is passed to.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): by design
      : target_(const_cast<void*>(static_cast<const void*>(&f))),
        invoke_([](void* target, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(target))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(target_, std::forward<Args>(args)...);
  }

 private:
  void* target_;
  R (*invoke_)(void*, Args...);
};

/// Visitor for pairs decided by Lemma 2 (candidate entry, record index).
using PruneIaFn = FunctionRef<void(const RTreeEntry&, uint32_t)>;
/// Visitor for remnant pairs that need cumulative-probability validation.
using PruneRemnantFn = FunctionRef<void(const RTreeEntry&, uint32_t)>;
/// Per-record visitor (record index, entries, classes): `entries` are the
/// candidates the index returned for the record's NIB bounding box, in
/// visit order, and classes[i] is the exact class of entries[i] — kOutside
/// (Lemma 3), kIaCertified (Lemma 2) or kRemnant, never kUndecided. Called
/// once for every record of the range, also when `entries` is empty. The
/// spans are valid only for the duration of the call.
using PruneRecordFn = FunctionRef<void(uint32_t, std::span<const RTreeEntry>,
                                       std::span<const PruneLaneClass>)>;

/// Classifies every candidate of `index` against records
/// [first_record, last_record) of the store. Per pair inside the record's
/// NIB: IA-certified pairs go to `ia_certified`, the rest to `remnant`.
/// Pairs outside the NIB are pruned implicitly. `stats` (nullable) receives
/// pairs_pruned_by_ia and pairs_pruned_by_nib; `num_candidates` is the
/// total candidate count the NIB counter is accounted against. `kernel`
/// carries the (pf, tau) the pruning regions were built for; it does no
/// work outside self-check mode.
void ClassifyCandidates(const RTree& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, PruneIaFn ia_certified,
                        PruneRemnantFn remnant);
void ClassifyCandidates(const GridIndex& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, PruneIaFn ia_certified,
                        PruneRemnantFn remnant);

/// The same classification handed over one record at a time, which spares
/// hot callers (the bracket builders) one indirect call per pair. The
/// per-pair overloads above are this loop with the IA/remnant visitors
/// called in entry order.
void ClassifyCandidates(const RTree& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, PruneRecordFn visit);

/// Region-level variant for callers that maintain their own pruning
/// geometry outside an ObjectStore (the incremental/dynamic path): one
/// (IA, NIB) pair against the index, no counters. `positions` is the
/// object's position set the regions were derived from (used only by the
/// self-check audit).
void ClassifyCandidates(const RTree& index, const InfluenceArcsRegion& ia,
                        const NonInfluenceBoundary& nib,
                        const InfluenceKernel& kernel,
                        std::span<const Point> positions,
                        PruneIaFn ia_certified, PruneRemnantFn remnant);

/// The complete per-object PINOCCHIO pipeline (Algorithm 2) over records
/// [first_record, last_record): classify, then validate each record's
/// remnant with the batch kernel over its arena span, crediting
/// `influence` (one slot per candidate). Fills every SolverStats counter —
/// ia/nib from the prune phase, pairs_validated / positions_scanned /
/// early_stops from the validation kernel.
void PruneAndValidate(const RTree& index, const ObjectStore& store,
                      const InfluenceKernel& kernel, uint32_t first_record,
                      uint32_t last_record, std::span<int64_t> influence,
                      SolverStats* stats);
void PruneAndValidate(const GridIndex& index, const ObjectStore& store,
                      const InfluenceKernel& kernel, uint32_t first_record,
                      uint32_t last_record, std::span<int64_t> influence,
                      SolverStats* stats);

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_PRUNE_PIPELINE_H_
