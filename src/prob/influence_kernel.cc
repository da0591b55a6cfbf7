#include "prob/influence_kernel.h"

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "prob/influence.h"
#include "util/logging.h"
#include "util/self_check.h"

namespace pinocchio {

InfluenceKernel::InfluenceKernel(const ProbabilityFunction& pf, double tau)
    : pf_(&pf),
      tau_(tau),
      early_exit_log_survival_(CertifiedEarlyExitLogSurvival(tau)),
      self_check_(SelfCheckEnabled()),
      tier_(ResolveSimdTier()) {
  if (tier_ != SimdTier::kScalar) table_ = MakeInfluenceBoundTable(pf, tau);
}

InfluenceKernel::InfluenceKernel(
    std::shared_ptr<const InfluenceBoundTable> table)
    : pf_(table->pf),
      tau_(table->tau),
      early_exit_log_survival_(table->influence_threshold),
      self_check_(SelfCheckEnabled()),
      tier_(ResolveSimdTier()),
      table_(std::move(table)) {}

double InfluenceKernel::Probability(const Point& candidate,
                                    std::span<const Point> positions) const {
  return CumulativeInfluenceProbability(*pf_, candidate, positions);
}

InfluenceDecision InfluenceKernel::Decide(
    const Point& candidate, std::span<const Point> positions) const {
  const InfluenceDecision decision = DecideImpl(candidate, positions);
  if (self_check_) {
    const double probability = Probability(candidate, positions);
    const bool naive = probability >= tau_;
    if (decision.influenced != naive) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "kernel Decide disagrees with naive Pr_c(O) >= tau: decided "
          << (decision.influenced ? "influenced" : "not influenced")
          << (decision.decided_early ? " (early exit)" : "") << " but Pr_c(O)="
          << probability << " vs tau=" << tau_ << " for candidate ("
          << candidate.x << ", " << candidate.y << ") over "
          << positions.size() << " positions, pf=" << pf_->Name();
      ReportSelfCheckViolation(msg.str());
    }
  }
  return decision;
}

InfluenceDecision InfluenceKernel::DecideImpl(
    const Point& candidate, std::span<const Point> positions) const {
  const auto n = static_cast<uint32_t>(positions.size());
  double log_survival = 0.0;
  uint32_t seen = 0;
  for (const Point& p : positions) {
    const double prob = (*pf_)(Distance(candidate, p));
    ++seen;
    if (prob >= 1.0) return {true, seen, seen < n};
    log_survival += std::log1p(-prob);
    if (log_survival <= early_exit_log_survival_) return {true, seen, seen < n};
  }
  return {-std::expm1(log_survival) >= tau_, seen, false};
}

void InfluenceKernel::CheckFilterDecision(const Point& candidate,
                                          std::span<const Point> positions,
                                          bool influenced) const {
  const double probability = Probability(candidate, positions);
  if ((probability >= tau_) == influenced) return;
  std::ostringstream msg;
  msg.precision(17);
  msg << "SIMD filter (" << SimdTierName(tier_)
      << ") disagrees with naive Pr_c(O) >= tau: certified "
      << (influenced ? "influenced" : "not influenced")
      << " but Pr_c(O)=" << probability << " vs tau=" << tau_
      << " for candidate (" << candidate.x << ", " << candidate.y
      << ") over " << positions.size() << " positions, pf=" << pf_->Name();
  ReportSelfCheckViolation(msg.str());
}

InfluenceDecision InfluenceKernel::DecideFiltered(
    const Point& candidate, std::span<const Point> positions) const {
  if (tier_ != SimdTier::kScalar) {
    const simd_internal::LaneOutcome lane =
        simd_internal::FilterSpan(tier_, *table_, candidate, positions);
    if (lane.state != simd_internal::LaneState::kUndecided) {
      const bool influenced =
          lane.state == simd_internal::LaneState::kInfluenced;
      if (self_check_) CheckFilterDecision(candidate, positions, influenced);
      return {influenced, lane.positions_seen,
              influenced && lane.positions_seen < positions.size()};
    }
  }
  // Boundary band (or no filter): the exact scalar path decides.
  InfluenceDecision decision = Decide(candidate, positions);
  decision.refined = true;
  return decision;
}

InfluenceBatchCounters InfluenceKernel::DecideMany(
    std::span<const Point> candidates, std::span<const Point> positions,
    std::span<uint8_t> influenced) const {
  PINO_CHECK_EQ(influenced.size(), candidates.size());
  InfluenceBatchCounters counters;
  // Below one vector's worth of lanes the filter can't win; empty position
  // spans are degenerate either way.
  constexpr size_t kMinFilterBatch = 4;
  if (tier_ != SimdTier::kScalar && candidates.size() >= kMinFilterBatch &&
      !positions.empty()) {
    thread_local std::vector<simd_internal::LaneOutcome> outcomes;
    outcomes.resize(candidates.size());
    simd_internal::FilterCandidates(tier_, *table_, candidates, positions,
                                    outcomes.data());
    const auto n = static_cast<uint32_t>(positions.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const simd_internal::LaneOutcome& lane = outcomes[i];
      if (lane.state == simd_internal::LaneState::kUndecided) {
        // Boundary band: the conservative bracket straddles a threshold,
        // so the exact scalar path (which self-checks internally) decides.
        const InfluenceDecision d = Decide(candidates[i], positions);
        influenced[i] = d.influenced ? 1 : 0;
        counters.positions_seen += d.positions_seen;
        if (d.decided_early) ++counters.early_stops;
        continue;
      }
      const bool lane_influenced =
          lane.state == simd_internal::LaneState::kInfluenced;
      influenced[i] = lane_influenced ? 1 : 0;
      counters.positions_seen += lane.positions_seen;
      if (lane_influenced && lane.positions_seen < n) ++counters.early_stops;
      if (self_check_) {
        CheckFilterDecision(candidates[i], positions, lane_influenced);
      }
    }
    return counters;
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    const InfluenceDecision d = Decide(candidates[i], positions);
    influenced[i] = d.influenced ? 1 : 0;
    counters.positions_seen += d.positions_seen;
    if (d.decided_early) ++counters.early_stops;
  }
  return counters;
}

}  // namespace pinocchio
