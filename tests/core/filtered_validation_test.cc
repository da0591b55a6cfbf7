// Solver-level contract of the filtered validation loop: the bound-ordered
// engine decides each pair through the certified SIMD filter
// (InfluenceKernel::DecideFiltered), so every family on it — PIN-VO, its
// morsel-parallel form, the skyline and weighted PIN-VO — must return the
// answers and the exact counters of the forced-scalar loop, while the scan
// counters become chunk-granular: positions_scanned lies between the
// scalar count and the sum of the validated spans.

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "core/weighted_solver.h"
#include "parallel/parallel_query.h"
#include "parallel/parallel_solvers.h"
#include "prob/alternative_pfs.h"
#include "prob/influence_kernel.h"
#include "testing/instance_helpers.h"
#include "testing/scoped_env.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;
using testing_helpers::ScopedEnv;

/// Runs `solve` with the kernel dispatch forced onto the scalar path
/// (`scalar`) or left to the detected SIMD tier.
template <typename Fn>
auto UnderMode(bool scalar, const Fn& solve) {
  ScopedEnv force("PINOCCHIO_FORCE_SCALAR", scalar ? "1" : nullptr);
  ScopedEnv tier("PINOCCHIO_SIMD_TIER", nullptr);
  return solve();
}

/// Records the span size of every pair the engine validates, forwarding
/// the decisions to the exact top-k policy PIN-VO runs.
class SpanRecordingTopKPolicy {
 public:
  SpanRecordingTopKPolicy(const ObjectStore& store, size_t capacity,
                          query::CandidateBrackets* brackets)
      : inner_(capacity, &brackets->min_inf, &brackets->max_inf),
        store_(&store) {}

  query::CandidateAdmission Admit(uint32_t j) const { return inner_.Admit(j); }
  bool AbortValidation(uint32_t j) const { return inner_.AbortValidation(j); }
  void OnDecision(uint32_t j, uint32_t rec, bool influenced) {
    spans_ += static_cast<int64_t>(store_->positions(rec).size());
    inner_.OnDecision(j, rec, influenced);
  }
  void Settle(uint32_t j, bool complete) { inner_.Settle(j, complete); }

  int64_t spans() const { return spans_; }

 private:
  query::TopKCutoffPolicy inner_;
  const ObjectStore* store_;
  int64_t spans_ = 0;
};

/// Sum of the spans of the pairs a sequential PIN-VO solve validates.
int64_t PinVoValidatedSpans(const PreparedInstance& prepared) {
  const InfluenceKernel kernel = prepared.kernel();
  SolverStats stats;
  query::CandidateBrackets brackets = query::BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/true, &stats);
  const std::vector<uint32_t> order = query::BoundDominationOrder(brackets);
  SpanRecordingTopKPolicy policy(
      prepared.store(), std::min(prepared.config().top_k, order.size()),
      &brackets);
  const auto verification_set = [&](uint32_t j) {
    return brackets.VerificationSet(j);
  };
  query::EvaluateBoundOrdered(prepared, kernel, order, verification_set,
                              &stats, policy);
  return policy.spans();
}

/// Sum of the spans of every verification-set pair — the most any policy
/// walking the pruned brackets can validate.
int64_t AllVerificationSpans(const PreparedInstance& prepared) {
  SolverStats stats;
  const query::CandidateBrackets brackets = query::BuildCandidateBrackets(
      prepared, prepared.kernel(), /*use_pruning=*/true, &stats);
  int64_t spans = 0;
  for (uint32_t j = 0; j < brackets.num_candidates(); ++j) {
    for (uint32_t rec : brackets.VerificationSet(j)) {
      spans += static_cast<int64_t>(prepared.store().positions(rec).size());
    }
  }
  return spans;
}

/// The counter contract between a forced-scalar and a SIMD run of the
/// same solve: exact counters equal, scan counters chunk-granular.
void ExpectCounterContract(const SolverStats& scalar, const SolverStats& simd,
                           int64_t span_upper, const std::string& what) {
  EXPECT_EQ(simd.pairs_validated, scalar.pairs_validated) << what;
  EXPECT_EQ(simd.heap_pops, scalar.heap_pops) << what;
  EXPECT_EQ(simd.strategy1_cutoffs, scalar.strategy1_cutoffs) << what;
  EXPECT_EQ(simd.pairs_pruned_by_ia, scalar.pairs_pruned_by_ia) << what;
  EXPECT_EQ(simd.pairs_pruned_by_nib, scalar.pairs_pruned_by_nib) << what;
  EXPECT_GE(simd.positions_scanned, scalar.positions_scanned) << what;
  EXPECT_LE(simd.positions_scanned, span_upper) << what;
  EXPECT_LE(simd.early_stops, scalar.early_stops) << what;
  // The scalar loop refines every pair; the filter at most all of them.
  EXPECT_EQ(scalar.pairs_refined, scalar.pairs_validated) << what;
  EXPECT_LE(simd.pairs_refined, simd.pairs_validated) << what;
}

struct Scenario {
  std::string label;
  SolverConfig config;
  InstanceOptions options;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;
  InstanceOptions dense;
  dense.num_objects = 80;
  dense.num_candidates = 50;
  dense.max_positions = 45;
  dense.extent_meters = 8000.0;
  SolverConfig top3 = DefaultConfig();
  top3.top_k = 3;
  scenarios.push_back({"power-law top3", top3, dense});
  SolverConfig linear = DefaultConfig(0.5);
  linear.pf = std::make_shared<LinearPF>(1.0, 3000.0);  // PF(0) = 1
  scenarios.push_back({"linear-rho1 tau0.5", linear, dense});
  SolverConfig logsig = DefaultConfig(0.9);
  logsig.pf = std::make_shared<LogsigPF>(0.5, 1000.0);
  logsig.top_k = 5;
  scenarios.push_back({"logsig tau0.9 top5", logsig, {}});
  return scenarios;
}

TEST(FilteredValidationTest, PinVoAndParallelMatchForcedScalar) {
  int64_t validated = 0;
  int64_t refined = 0;
  for (const Scenario& s : Scenarios()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      const std::string what = s.label + " seed " + std::to_string(seed);
      const PreparedInstance prepared(
          RandomInstance(9100 + seed, s.options), s.config);
      const int64_t spans = PinVoValidatedSpans(prepared);
      const SolverResult scalar = UnderMode(
          true, [&] { return PinocchioVOSolver().Solve(prepared); });
      const SolverResult simd = UnderMode(
          false, [&] { return PinocchioVOSolver().Solve(prepared); });
      const SolverResult parallel = UnderMode(false, [&] {
        return ParallelPinocchioVOSolver(3).Solve(prepared);
      });
      EXPECT_EQ(simd.influence, scalar.influence) << what;
      EXPECT_EQ(simd.ranking, scalar.ranking) << what;
      ExpectCounterContract(scalar.stats, simd.stats, spans, what);
      // The parallel form reuses the sequential loop: every counter equal.
      EXPECT_EQ(parallel.influence, simd.influence) << what;
      EXPECT_EQ(parallel.ranking, simd.ranking) << what;
      EXPECT_EQ(parallel.stats.positions_scanned, simd.stats.positions_scanned)
          << what;
      EXPECT_EQ(parallel.stats.early_stops, simd.stats.early_stops) << what;
      EXPECT_EQ(parallel.stats.pairs_refined, simd.stats.pairs_refined)
          << what;
      ExpectCounterContract(scalar.stats, parallel.stats, spans, what);
      validated += simd.stats.pairs_validated;
      refined += simd.stats.pairs_refined;
    }
  }
  // The instances must exercise the filter, not just the refine path.
  ASSERT_GT(validated, 0);
  if (DetectCpuSimdTier() != SimdTier::kScalar) {
    EXPECT_LT(refined * 4, validated) << refined << " of " << validated;
  }
}

TEST(FilteredValidationTest, SkylineMatchesForcedScalar) {
  for (const Scenario& s : Scenarios()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const std::string what = s.label + " seed " + std::to_string(seed);
      const PreparedInstance prepared(
          RandomInstance(9200 + seed, s.options), s.config);
      std::vector<double> cost(prepared.num_candidates());
      for (size_t j = 0; j < cost.size(); ++j) {
        // Coarse rings around a depot: plenty of equal-cost groups.
        cost[j] = std::round(Distance(prepared.candidate(j), {0.0, 0.0}) /
                             2000.0);
      }
      const query::SkylineResult scalar = UnderMode(
          true, [&] { return query::SolveSkyline(prepared, cost); });
      const query::SkylineResult simd = UnderMode(
          false, [&] { return query::SolveSkyline(prepared, cost); });
      ASSERT_EQ(simd.members.size(), scalar.members.size()) << what;
      for (size_t i = 0; i < simd.members.size(); ++i) {
        EXPECT_EQ(simd.members[i].candidate, scalar.members[i].candidate)
            << what;
        EXPECT_EQ(simd.members[i].influence, scalar.members[i].influence)
            << what;
      }
      EXPECT_EQ(simd.bound_skipped, scalar.bound_skipped) << what;
      ExpectCounterContract(scalar.stats, simd.stats,
                            AllVerificationSpans(prepared), what);
    }
  }
}

TEST(FilteredValidationTest, WeightedVoMatchesForcedScalar) {
  for (const Scenario& s : Scenarios()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const std::string what = s.label + " seed " + std::to_string(seed);
      const PreparedInstance prepared(
          RandomInstance(9300 + seed, s.options), s.config);
      Rng rng(seed);
      std::vector<double> weights(prepared.num_objects());
      for (double& w : weights) w = rng.Uniform(0.0, 5.0);
      const WeightedVOResult scalar = UnderMode(true, [&] {
        return SolveWeightedPinocchioVO(prepared, weights);
      });
      const WeightedVOResult simd = UnderMode(false, [&] {
        return SolveWeightedPinocchioVO(prepared, weights);
      });
      EXPECT_EQ(simd.best_candidate, scalar.best_candidate) << what;
      EXPECT_EQ(simd.best_score, scalar.best_score) << what;
      EXPECT_EQ(simd.score, scalar.score) << what;
      EXPECT_EQ(simd.score_exact, scalar.score_exact) << what;
      ExpectCounterContract(scalar.stats, simd.stats,
                            AllVerificationSpans(prepared), what);
    }
  }
}

}  // namespace
}  // namespace pinocchio
