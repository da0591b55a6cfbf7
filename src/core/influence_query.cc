#include "core/influence_query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/prepared_instance.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"

namespace pinocchio {
namespace {

int64_t CountInfluenced(const ObjectStore& store, const Point& candidate,
                        const InfluenceKernel& kernel) {
  int64_t influence = 0;
  for (const ObjectRecord& rec : store.records()) {
    if (!rec.nib.Contains(candidate)) continue;  // Lemma 3
    if (!rec.ia.IsEmpty() && rec.ia.Contains(candidate)) {  // Lemma 2
      ++influence;
      continue;
    }
    if (kernel.DecideFiltered(candidate, store.positions(rec)).influenced) {
      ++influence;
    }
  }
  return influence;
}

double WeightedScore(const ObjectStore& store, std::span<const double> weights,
                     const Point& candidate, const InfluenceKernel& kernel) {
  PINO_CHECK_EQ(weights.size(), store.records().size());
  double score = 0.0;
  for (size_t k = 0; k < store.records().size(); ++k) {
    const ObjectRecord& rec = store.records()[k];
    if (!rec.nib.Contains(candidate)) continue;
    if ((!rec.ia.IsEmpty() && rec.ia.Contains(candidate)) ||
        kernel.DecideFiltered(candidate, store.positions(rec)).influenced) {
      score += weights[k];
    }
  }
  return score;
}

/// Argmax of WeightedScore over `count` candidates (`candidate(j)` gives
/// the j-th), first maximum wins.
template <typename CandidateAt>
std::pair<size_t, double> ArgmaxWeighted(const PreparedInstance& prepared,
                                         std::span<const double> weights,
                                         size_t count,
                                         const CandidateAt& candidate) {
  const InfluenceKernel kernel = prepared.kernel();
  size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < count; ++j) {
    const double score =
        WeightedScore(prepared.store(), weights, candidate(j), kernel);
    if (score > best_score) {
      best = j;
      best_score = score;
    }
  }
  return {best, best_score};
}

}  // namespace

int64_t InfluenceOfCandidate(const ObjectStore& store, const Point& candidate,
                             const ProbabilityFunction& pf) {
  return CountInfluenced(store, candidate, InfluenceKernel(pf, store.tau()));
}

int64_t InfluenceOfCandidate(const PreparedInstance& prepared,
                             const Point& candidate) {
  return CountInfluenced(prepared.store(), candidate, prepared.kernel());
}

int64_t InfluenceOfCandidate(const std::vector<MovingObject>& objects,
                             const Point& candidate,
                             const SolverConfig& config) {
  const PreparedInstance prepared(objects, config);
  return InfluenceOfCandidate(prepared, candidate);
}

double WeightedInfluenceOfCandidate(const ObjectStore& store,
                                    std::span<const double> weights,
                                    const Point& candidate,
                                    const ProbabilityFunction& pf) {
  return WeightedScore(store, weights, candidate,
                       InfluenceKernel(pf, store.tau()));
}

double WeightedInfluenceOfCandidate(const PreparedInstance& prepared,
                                    std::span<const double> weights,
                                    const Point& candidate) {
  return WeightedScore(prepared.store(), weights, candidate,
                       prepared.kernel());
}

std::pair<size_t, double> SelectWeighted(const PreparedInstance& prepared,
                                         std::span<const double> weights) {
  PINO_CHECK_EQ(weights.size(), prepared.num_objects());
  if (prepared.num_candidates() == 0) return {0, 0.0};
  return ArgmaxWeighted(prepared, weights, prepared.num_candidates(),
                        [&](size_t j) { return prepared.candidate(j); });
}

std::pair<size_t, double> SelectWeighted(
    const std::vector<MovingObject>& objects,
    std::span<const double> weights, std::span<const Point> candidates,
    const SolverConfig& config) {
  PINO_CHECK_EQ(weights.size(), objects.size());
  if (candidates.empty()) return {0, 0.0};
  const PreparedInstance prepared(objects, config);
  return ArgmaxWeighted(prepared, weights, candidates.size(),
                        [&](size_t j) { return candidates[j]; });
}

InfluenceExplanation ExplainInfluence(const PreparedInstance& prepared,
                                      const Point& candidate) {
  const double tau = prepared.tau();
  const ObjectStore& store = prepared.store();
  const InfluenceKernel kernel = prepared.kernel();

  InfluenceExplanation explanation;
  for (const ObjectRecord& rec : store.records()) {
    const bool nib_excludes = !rec.nib.Contains(candidate);
    const bool ia_certifies =
        !rec.ia.IsEmpty() && rec.ia.Contains(candidate);
    if (nib_excludes) {
      ++explanation.decided_by_nib;
      continue;
    }
    if (ia_certifies) ++explanation.decided_by_ia;

    const std::span<const Point> positions = store.positions(rec);
    // The explanation reports the exact probability, so the full-scan
    // evaluation is used here rather than the early-exit decision.
    const double probability = kernel.Probability(candidate, positions);
    const bool influenced = ia_certifies || probability >= tau;
    if (!influenced) continue;

    InfluencedObject entry;
    entry.object_id = rec.object_id;
    entry.probability = probability;
    if (rec.min_max_radius >= 0.0) {
      for (const Point& p : positions) {
        // Same distance-space convention as the region predicates, so the
        // count agrees with them for positions exactly on the rim.
        if (std::sqrt(SquaredDistance(candidate, p)) <= rec.min_max_radius) {
          ++entry.positions_in_radius;
        }
      }
    }
    explanation.influenced.push_back(entry);
  }
  explanation.influence = static_cast<int64_t>(explanation.influenced.size());
  std::stable_sort(explanation.influenced.begin(),
                   explanation.influenced.end(),
                   [](const InfluencedObject& a, const InfluencedObject& b) {
                     return a.probability > b.probability;
                   });
  return explanation;
}

InfluenceExplanation ExplainInfluence(const std::vector<MovingObject>& objects,
                                      const Point& candidate,
                                      const SolverConfig& config) {
  const PreparedInstance prepared(objects, config);
  return ExplainInfluence(prepared, candidate);
}

}  // namespace pinocchio
