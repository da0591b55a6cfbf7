// The bound-domination candidate-evaluation engine shared by every query
// family. PINOCCHIO-VO's Strategy-1 machinery (Section 5) is in essence a
// generic loop: maintain a [minInf, maxInf] bracket per candidate from the
// IA/NIB prune phase, walk the candidates in decreasing-upper-bound order
// and validate verification sets one record at a time, letting a policy
// decide when a candidate is admitted, aborted mid-validation or the walk
// stops altogether. The exact top-k cut-off of Algorithm 3 is one such
// policy; the influence/cost skyline and the weighted argmax are others.
//
// EvaluateBoundOrdered() owns the counter discipline (heap_pops,
// pairs_validated, pairs_refined, positions_scanned, early_stops,
// strategy1_cutoffs) so every policy reports work identically. Each pair
// is decided by the kernel's certified SIMD filter (DecideFiltered), the
// exact scalar Decide refining the boundary band, so influence, ranking,
// pairs_validated, heap_pops and strategy1_cutoffs are identical to a
// scalar-only loop (and to PINOCCHIO_FORCE_SCALAR=1). positions_scanned
// and early_stops are chunk-granular for filter-decided pairs: scanned
// lies between the scalar count and the sum of the validated spans.
//
// The greedy diversified-selection family does not bracket influence per
// candidate; it rides the engine's other shared substrate, the CSR
// influence sets built by the same prune pipeline.

#ifndef PINOCCHIO_CORE_QUERY_ENGINE_H_
#define PINOCCHIO_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/object_store.h"
#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "core/solver.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"

namespace pinocchio {
namespace query {

/// Running k-th-largest tracker for the generalised maxminInf cut-off.
/// With capacity 1 this is exactly the paper's global maxminInf.
class CutoffTracker {
 public:
  explicit CutoffTracker(size_t capacity) : capacity_(capacity) {
    PINO_CHECK_GT(capacity, 0u);
  }

  void Push(int64_t lower_bound) {
    if (heap_.size() < capacity_) {
      heap_.push(lower_bound);
    } else if (lower_bound > heap_.top()) {
      heap_.pop();
      heap_.push(lower_bound);
    }
  }

  /// True once `capacity` bounds have been recorded; before that no
  /// candidate may be discarded.
  bool Saturated() const { return heap_.size() >= capacity_; }

  /// The current cut-off (k-th largest recorded bound).
  int64_t Value() const { return heap_.empty() ? 0 : heap_.top(); }

 private:
  size_t capacity_;
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<>> heap_;
};

/// Strict total order of the validation queue: maxInf descending, minInf
/// descending, candidate index ascending. The index tie-break makes this
/// exactly the order a stable sort by (maxInf, minInf) produces over an
/// ascending-index input — the invariant the per-shard heapsort +
/// tournament merge of the parallel solver relies on to replay it.
inline bool OrderBefore(std::span<const int64_t> min_inf,
                        std::span<const int64_t> max_inf, uint32_t a,
                        uint32_t b) {
  if (max_inf[a] != max_inf[b]) return max_inf[a] > max_inf[b];
  if (min_inf[a] != min_inf[b]) return min_inf[a] > min_inf[b];
  return a < b;
}

/// Per-candidate influence brackets plus the verification sets backing
/// them, as produced by the prune phase:
///
///   minInf[j]  — IA certificates (records certainly influenced), raised
///                towards the exact influence as validation proceeds;
///   maxInf[j]  — minInf[j] + |VS(j)| (every other record was excluded by
///                its NIB), lowered as validation refutes records;
///   VS(j)      — record indices whose NIB contains candidate j but whose
///                IA does not, in one flat CSR layout (vs_data sliced by
///                vs_offsets) so the prune phase performs O(1) allocations
///                however large the candidate set grows.
///
/// When built without pruning (PINOCCHIO-VO*) every candidate starts with
/// bounds [0, r] and shares the identity verification set `all_records`.
struct CandidateBrackets {
  std::vector<int64_t> min_inf;
  std::vector<int64_t> max_inf;
  std::vector<uint32_t> vs_offsets;  // size m + 1; empty when !pruned
  std::vector<uint32_t> vs_data;
  std::vector<uint32_t> all_records;  // identity set when !pruned
  bool pruned = true;

  size_t num_candidates() const { return min_inf.size(); }

  std::span<const uint32_t> VerificationSet(uint32_t j) const {
    if (!pruned) return all_records;
    return std::span<const uint32_t>(vs_data).subspan(
        vs_offsets[j], vs_offsets[j + 1] - vs_offsets[j]);
  }
};

/// Runs the IA/NIB prune phase and assembles the brackets. IA/NIB counters
/// go to `stats` (may be null). `use_pruning == false` skips the phase
/// entirely (the VO* ablation).
CandidateBrackets BuildCandidateBrackets(const PreparedInstance& prepared,
                                         const InfluenceKernel& kernel,
                                         bool use_pruning, SolverStats* stats);

/// The remnant pairs of a contiguous record range, record-major: record
/// first_record + i owns candidates[record_ends[i - 1], record_ends[i])
/// (from 0 for i = 0), in prune visit order. Four bytes per pair, and the
/// transposition into per-candidate sets reads it once.
struct RemnantLists {
  uint32_t first_record = 0;
  std::vector<uint32_t> candidates;
  std::vector<uint32_t> record_ends;

  /// Appends one classified record (the next of the range): raises
  /// `min_inf` for its IA-certified candidates and lists its remnant ones.
  void AddRecord(std::span<const RTreeEntry> entries,
                 std::span<const PruneLaneClass> classes,
                 std::span<int64_t> min_inf);
};

/// Assembles the CSR verification sets and upper bounds of `brackets` from
/// IA-certified lower bounds (already summed into `brackets->min_inf`,
/// with max_inf preset to the record count) and the remnant lists of
/// consecutive record ranges in ascending order. Each candidate's set comes
/// out in ascending record order, so the sequential builder (one range) and
/// the morsel-parallel builder (one range per morsel) produce
/// byte-identical layouts.
void FinishBrackets(CandidateBrackets* brackets,
                    std::span<const RemnantLists> chunks);

/// Candidate indices sorted under OrderBefore — the engine's canonical
/// decreasing-upper-bound evaluation order.
std::vector<uint32_t> BoundDominationOrder(const CandidateBrackets& brackets);

/// A policy's verdict on the next candidate in bound order.
enum class CandidateAdmission : uint8_t {
  kStop,      // no remaining candidate can matter: end the walk
  kSkip,      // this candidate is settled without validation; keep walking
  kEvaluate,  // validate this candidate's verification set
};

/// The bound-ordered evaluation loop (Algorithm 3 lines 13-27, with the
/// acceptance decisions delegated to `policy`). Walks `order`; for each
/// admitted candidate it validates the verification set record by record
/// through the shared influence kernel's filtered decision (Strategy 2
/// early stops included; pairs the filter leaves to the exact scalar scan
/// are counted as pairs_refined), asking the policy before each record
/// whether to abort (the generalised Strategy-1 mid-validation cut-off,
/// counted as strategy1_cutoffs).
///
/// Policy contract (duck-typed; see TopKCutoffPolicy for the canonical
/// shape):
///   CandidateAdmission Admit(uint32_t j)             — before heap_pops
///   bool AbortValidation(uint32_t j)                 — before each record
///   void OnDecision(uint32_t j, uint32_t rec, bool influenced)
///   void Settle(uint32_t j, bool complete)           — after the set;
///       `complete` is false iff validation aborted early
///
/// `verification_set` need not return the full prune-phase set: the
/// approximate tier (core/approx_solver.h) returns a deterministic sample
/// of it per candidate and scales the observed decisions into a certified
/// influence bracket — the loop is agnostic as long as the span stays
/// alive for the candidate's walk.
///
/// The loop is inherently sequential — what the policy learns from
/// candidate i gates the work spent on candidate i+1 — which is why the
/// parallel solvers reuse it verbatim after their parallel prune and order
/// phases.
template <typename Policy>
void EvaluateBoundOrdered(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    std::span<const uint32_t> order,
    FunctionRef<std::span<const uint32_t>(uint32_t)> verification_set,
    SolverStats* stats, Policy& policy) {
  const ObjectStore& store = prepared.store();
  for (uint32_t j : order) {
    const CandidateAdmission admission = policy.Admit(j);
    if (admission == CandidateAdmission::kStop) break;
    if (admission == CandidateAdmission::kSkip) continue;
    ++stats->heap_pops;

    const Point& c = prepared.candidate(j);
    bool complete = true;
    for (uint32_t rec_idx : verification_set(j)) {
      if (policy.AbortValidation(j)) {
        ++stats->strategy1_cutoffs;
        complete = false;
        break;
      }
      ++stats->pairs_validated;

      // Strategy 2: the kernel scans the record's arena span until Lemma 4
      // (or the filter's certified bound) decides influence.
      const InfluenceDecision decision =
          kernel.DecideFiltered(c, store.positions(rec_idx));
      stats->positions_scanned += decision.positions_seen;
      if (decision.decided_early) ++stats->early_stops;
      if (decision.refined) ++stats->pairs_refined;

      policy.OnDecision(j, rec_idx, decision.influenced);
    }
    policy.Settle(j, complete);
  }
}

/// Exact top-k acceptance: the paper's Strategy 1. A candidate is
/// dominated once the k-th best validated lower bound exceeds its upper
/// bound; domination of the head candidate ends the walk (bound order
/// guarantees no later candidate can do better). Operates on the caller's
/// bracket vectors in place, exactly like the pre-engine loop did.
class TopKCutoffPolicy {
 public:
  TopKCutoffPolicy(size_t capacity, std::vector<int64_t>* min_inf,
                   std::vector<int64_t>* max_inf)
      : cutoff_(capacity), min_inf_(min_inf), max_inf_(max_inf) {}

  CandidateAdmission Admit(uint32_t j) const {
    return Dominated(j) ? CandidateAdmission::kStop
                        : CandidateAdmission::kEvaluate;
  }

  bool AbortValidation(uint32_t j) const { return Dominated(j); }

  void OnDecision(uint32_t j, uint32_t /*rec_idx*/, bool influenced) {
    if (influenced) {
      ++(*min_inf_)[j];
    } else {
      --(*max_inf_)[j];
    }
  }

  void Settle(uint32_t j, bool /*complete*/) { cutoff_.Push((*min_inf_)[j]); }

 private:
  bool Dominated(uint32_t j) const {
    return cutoff_.Saturated() && (*max_inf_)[j] < cutoff_.Value();
  }

  CutoffTracker cutoff_;
  std::vector<int64_t>* min_inf_;
  std::vector<int64_t>* max_inf_;
};

// ---------------------------------------------------------------- skyline

/// One member of the influence/cost skyline, with its exact influence.
struct SkylineMember {
  uint32_t candidate = 0;
  int64_t influence = 0;
  double cost = 0.0;
};

/// Result of a skyline query. `members` is the maximal set of candidates
/// not dominated in (influence up, cost down): no other candidate has
/// cost <= and influence >= with at least one strict. Candidates tying on
/// both coordinates are all kept. Sorted by cost ascending (then candidate
/// index; equal-cost members necessarily tie on influence).
struct SkylineResult {
  std::vector<SkylineMember> members;
  /// Candidates settled as dominated straight from their brackets, without
  /// validating a single record (mid-validation aborts are counted in
  /// stats.strategy1_cutoffs instead).
  int64_t bound_skipped = 0;
  SolverStats stats;
};

/// Influence/cost skyline over (inf(c), cost(c)). `cost` must hold one
/// finite value per candidate. Candidates are walked in (cost ascending,
/// bound order) so every already-settled candidate is at most as expensive
/// as the current one — its exact influence dominates the current bracket
/// whenever it reaches the upper bound, letting the engine discard
/// dominated candidates before (or mid-) validation.
SkylineResult SolveSkyline(const PreparedInstance& prepared,
                           std::span<const double> cost);

/// The evaluation phase of SolveSkyline against brackets built elsewhere
/// (the parallel path builds them with the morsel engine and reuses this
/// verbatim — results are bit-identical by construction). Consumes the
/// brackets; fills `result->members` / `bound_skipped` and the validation
/// counters of `result->stats`. Timing is the caller's job.
void SolveSkylineOnBrackets(const PreparedInstance& prepared,
                            const InfluenceKernel& kernel,
                            std::span<const double> cost,
                            CandidateBrackets* brackets, SkylineResult* result);

// ------------------------------------------------------------ diversified

/// Per-candidate influenced-object sets in one flat CSR layout, built by
/// the shared prune pipeline (IA certificates verbatim, remnants decided by
/// the batch kernel); records ascend within each candidate's slice.
struct InfluenceSets {
  std::vector<uint32_t> offsets;  // size m + 1
  std::vector<uint32_t> objects;  // record indices

  size_t num_candidates() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  std::span<const uint32_t> Objects(uint32_t j) const {
    return std::span<const uint32_t>(objects).subspan(
        offsets[j], offsets[j + 1] - offsets[j]);
  }
};

/// Appends (candidate, record) influence pairs for records
/// [first_record, last_record) in deterministic record-major order — the
/// building block of both the sequential and the morsel-parallel
/// influence-set builders.
void CollectInfluencePairs(const PreparedInstance& prepared,
                           const InfluenceKernel& kernel,
                           uint32_t first_record, uint32_t last_record,
                           std::vector<std::pair<uint32_t, uint32_t>>* pairs);

/// Counting-sorts pair chunks (concatenated in chunk order) into the CSR
/// layout. Chunk order defines per-candidate record order, mirroring
/// FinishBrackets.
InfluenceSets InfluenceSetsFromPairs(
    size_t num_candidates,
    std::span<const std::vector<std::pair<uint32_t, uint32_t>>> pair_chunks);

/// Influence sets for the whole store (the sequential builder).
InfluenceSets BuildInfluenceSets(const PreparedInstance& prepared,
                                 const InfluenceKernel& kernel);

/// Result of diversified greedy selection.
struct DiversifiedResult {
  /// Chosen candidate indices, in selection order.
  std::vector<uint32_t> selected;
  /// Union coverage after each selection step; coverage.back() is the
  /// final objective value.
  std::vector<int64_t> coverage;
  /// Marginal-gain evaluations performed (CELF's saving shows here).
  int64_t gain_evaluations = 0;
  /// Candidates discarded for sitting closer than min_separation to an
  /// already-selected facility.
  int64_t separation_rejections = 0;
  double prepare_seconds = 0.0;
  double solve_seconds = 0.0;
  double elapsed_seconds = 0.0;
};

/// Diversified top-k: greedy marginal-coverage selection (CELF-lazy, so
/// typically near-linear in k) subject to a minimum pairwise separation —
/// a candidate closer than `min_separation` to any already-selected
/// facility is permanently discarded (coverage is monotone, so an
/// infeasible candidate can never become worth selecting later). Ties on
/// marginal gain select the smallest candidate index, matching the
/// brute-force greedy reference. `min_separation == 0` degenerates to the
/// classic multi-facility objective. May return fewer than k facilities
/// when the separation constraint (or the candidate count) leaves nothing
/// selectable.
DiversifiedResult SelectDiversified(const PreparedInstance& prepared, size_t k,
                                    double min_separation);

/// The greedy phase of SelectDiversified against influence sets built
/// elsewhere (shared with the morsel-parallel builder; bit-identical by
/// construction). Timing is the caller's job.
void SelectDiversifiedOnSets(const PreparedInstance& prepared, size_t k,
                             double min_separation, const InfluenceSets& sets,
                             DiversifiedResult* result);

}  // namespace query
}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_QUERY_ENGINE_H_
