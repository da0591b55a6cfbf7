#include "core/naive_solver.h"

#include "core/prepared_instance.h"
#include "parallel/morsel_scheduler.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

/// Candidates per NA morsel above a budget of one: each candidate costs a
/// full position scan, so even small ranges amortise the claim CAS while
/// stealing stays fine.
constexpr size_t kCandidatesPerMorsel = 8;

}  // namespace

NaiveSolver::NaiveSolver(size_t num_threads)
    : num_threads_(MorselScheduler(num_threads).num_threads()) {}

std::string NaiveSolver::Name() const {
  return internal::BudgetedName("NA", num_threads_);
}

SolverResult NaiveSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;

  // The baseline deliberately evaluates the full cumulative probability of
  // every pair (no Lemma-4 early exit) so its positions_scanned reflects an
  // honest exhaustive scan.
  const InfluenceKernel kernel = prepared.kernel();
  const double tau = prepared.tau();
  const ObjectStore& store = prepared.store();
  const MorselScheduler scheduler(num_threads_);
  const std::vector<Morsel> morsels =
      scheduler.PlanUniform(m, kCandidatesPerMorsel);
  scheduler.Run(morsels, [&](size_t, size_t, const Morsel& morsel) {
    for (uint32_t j = morsel.first_record; j < morsel.last_record; ++j) {
      const Point& c = prepared.candidate(j);
      int64_t inf = 0;
      for (const ObjectRecord& rec : store.records()) {
        if (kernel.Probability(c, store.positions(rec)) >= tau) ++inf;
      }
      result.influence[j] = inf;  // exclusive candidate range: no sync
    }
  });

  int64_t store_positions = 0;
  for (const ObjectRecord& rec : store.records()) {
    store_positions += static_cast<int64_t>(rec.position_count);
  }
  const auto candidates = static_cast<int64_t>(m);
  result.stats.positions_scanned = candidates * store_positions;
  result.stats.pairs_validated =
      candidates * static_cast<int64_t>(store.size());
  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
