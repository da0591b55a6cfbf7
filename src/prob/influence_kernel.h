// The shared validation kernel: batch evaluation of the cumulative
// influence probability (Definition 1) with the Lemma-4 early exit
// (Strategy 2) over contiguous position spans.
//
// Every solver's validation phase funnels through this kernel instead of
// re-implementing the log-space survival accumulation privately. The
// kernel's decisions are exactly those of the scalar reference
// (CumulativeInfluenceProbability / Influences): the early-exit threshold
// is nudged conservatively so that crossing it certifies the full-scan
// test -expm1(sum log1p(-p_i)) >= tau, never anticipates it wrongly.
//
// Three entry points share that contract:
//   * Decide — the exact scalar scan, one pair; its counters are exact.
//   * DecideFiltered — one pair through the certified SIMD filter
//     (influence_kernel_simd.h), the exact Decide refining the boundary
//     band. The bound-ordered validation loop (core/query_engine.h) runs
//     on it.
//   * DecideMany — many candidates against one object, the filter's
//     candidate-lane layout; the prune pipeline's remnant batches run on
//     it.
// The filtered entry points decide bit-identically to Decide; their
// positions_seen/early-stop counters are chunk-granular for
// filter-decided pairs (see DecideMany).

#ifndef PINOCCHIO_PROB_INFLUENCE_KERNEL_H_
#define PINOCCHIO_PROB_INFLUENCE_KERNEL_H_

#include <cstdint>
#include <memory>
#include <span>

#include "geo/point.h"
#include "prob/influence_kernel_simd.h"
#include "prob/probability_function.h"

namespace pinocchio {

/// Outcome of one candidate-against-object validation.
struct InfluenceDecision {
  bool influenced = false;
  /// Positions consumed before the decision — the span size unless
  /// Lemma 4 fired earlier.
  uint32_t positions_seen = 0;
  /// True when Lemma 4 decided strictly before the last position.
  bool decided_early = false;
  /// DecideFiltered only: true when the exact scalar Decide decided the
  /// pair — the filter's boundary band, or every pair on a kScalar kernel.
  bool refined = false;
};

/// Aggregate work counters of a batch call (SolverStats currency).
struct InfluenceBatchCounters {
  int64_t positions_seen = 0;
  int64_t early_stops = 0;
};

/// Immutable (PF, tau) evaluation context with the precomputed Lemma-4
/// log-survival threshold. Cheap to construct per solve when the bound
/// table is borrowed; safe to share across threads.
class InfluenceKernel {
 public:
  /// Standalone kernel: builds its own bound table (~0.1 ms) when the
  /// resolved tier runs the filter. Prefer the borrowing constructor
  /// wherever an owner already holds the table.
  InfluenceKernel(const ProbabilityFunction& pf, double tau);

  /// Kernel over a borrowed bound table (PreparedInstance::kernel(), the
  /// incremental maintainer): PF and tau come from the table, nothing is
  /// built. The tier and the self-check flag are still sampled here, per
  /// kernel, so the environment overrides keep working within a process.
  /// `table` must be non-null.
  explicit InfluenceKernel(std::shared_ptr<const InfluenceBoundTable> table);

  const ProbabilityFunction& pf() const { return *pf_; }
  double tau() const { return tau_; }

  /// The certified Lemma-4 threshold: any computed log-survival fold at or
  /// below this value implies the full-scan test -expm1(sum) >= tau.
  /// Exposed so delta-maintenance code (core/incremental.h) can reuse the
  /// kernel's decision boundary for its certified sum brackets.
  double early_exit_log_survival() const { return early_exit_log_survival_; }

  /// The SIMD tier DecideFiltered and DecideMany dispatch to, resolved once
  /// at construction (see ResolveSimdTier); kScalar means the filter is
  /// off and every decision takes the scalar path.
  SimdTier simd_tier() const { return tier_; }

  /// Exact Pr_c(O) over a position span; identical accumulation (and hence
  /// bit-identical result) to the scalar CumulativeInfluenceProbability.
  double Probability(const Point& candidate,
                     std::span<const Point> positions) const;

  /// Pr_c(O) >= tau with the Lemma-4 early exit. Agrees with
  /// Influences(pf, candidate, positions, tau) on every input, and its
  /// positions_seen/decided_early are the exact scalar counters. Under
  /// PINOCCHIO_SELF_CHECK (see util/self_check.h, sampled at kernel
  /// construction) every decision is re-verified against the naive
  /// full-scan test Pr_c(O) >= tau. Callers that already know a pair sits
  /// in the boundary band (DecideMany's undecided lanes, the incremental
  /// maintainer's straddling brackets) call this directly.
  InfluenceDecision Decide(const Point& candidate,
                           std::span<const Point> positions) const;

  /// Decide through the filter: on tiers above kScalar the span's
  /// positions run through the position-lane filter; a pair whose bracket
  /// straddles a threshold is decided by the exact Decide (refined =
  /// true), so `influenced` is bit-identical to Decide on every input.
  /// For filter-decided pairs positions_seen is chunk-granular — >= the
  /// scalar value, <= the span size — and decided_early means the upper
  /// bound crossed before the last chunk, so it may read false where
  /// Decide would stop a few positions early. Both are deterministic for a
  /// given (candidate, positions, tier).
  InfluenceDecision DecideFiltered(const Point& candidate,
                                   std::span<const Point> positions) const;

  /// Batch variant: decides every candidate against ONE object's position
  /// span (the remnant-validation unit of the prune pipeline).
  /// `influenced[i]` receives the decision for `candidates[i]`; the two
  /// spans' contiguity is what the columnar arena buys.
  ///
  /// On tiers above kScalar the batch first runs the candidate-lane
  /// filter: lanes whose conservative log-survival bracket clears a
  /// threshold are decided in vector registers, the rest are refined
  /// through the exact scalar Decide — so the decisions are bit-identical
  /// to the scalar path on every input. Counters are chunk-granular for
  /// vector-decided lanes: positions_seen per pair is >= the scalar path's
  /// value and <= the span size, and deterministic for a given
  /// (candidates, positions) batch.
  InfluenceBatchCounters DecideMany(std::span<const Point> candidates,
                                    std::span<const Point> positions,
                                    std::span<uint8_t> influenced) const;

 private:
  InfluenceDecision DecideImpl(const Point& candidate,
                               std::span<const Point> positions) const;
  /// Self-check of a filter-certified decision against the naive test.
  void CheckFilterDecision(const Point& candidate,
                           std::span<const Point> positions,
                           bool influenced) const;

  const ProbabilityFunction* pf_;
  double tau_;
  /// log-survival values <= this certify influence under the full-scan
  /// test (CertifiedEarlyExitLogSurvival(tau)).
  double early_exit_log_survival_;
  /// SelfCheckEnabled() at construction; kernels are built per solve, so
  /// this keeps the hot loop free of atomic loads.
  bool self_check_;
  /// ResolveSimdTier() at construction — per-thread kernels built from the
  /// same environment therefore share the dispatch decision.
  SimdTier tier_ = SimdTier::kScalar;
  /// The bound table the filter reads; borrowed from its owner or built by
  /// the standalone constructor (null there on kScalar).
  std::shared_ptr<const InfluenceBoundTable> table_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_PROB_INFLUENCE_KERNEL_H_
