#include "core/query_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "geo/point.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace query {
namespace {

/// Remnant-list capacity (pairs) a thread keeps between solves; a larger
/// scratch is released after its solve so one huge query does not pin its
/// memory for the thread's lifetime.
constexpr size_t kMaxRetainedRemnants = size_t{1} << 22;

}  // namespace

CandidateBrackets BuildCandidateBrackets(const PreparedInstance& prepared,
                                         const InfluenceKernel& kernel,
                                         bool use_pruning, SolverStats* stats) {
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<int64_t>(store.size());

  CandidateBrackets brackets;
  brackets.pruned = use_pruning;
  brackets.min_inf.assign(m, 0);
  brackets.max_inf.assign(m, r);
  if (!use_pruning) {
    // PINOCCHIO-VO*: no pruning phase; every object must be verified.
    brackets.all_records.resize(static_cast<size_t>(r));
    std::iota(brackets.all_records.begin(), brackets.all_records.end(), 0u);
    return brackets;
  }

  // The record-major lists are scratch, one per thread and kept across
  // solves: a fresh multi-megabyte buffer per solve costs a page fault per
  // 4 KiB on every solve (~1.5 ms of a 3 ms prune on the approximate
  // frontier's n2400 instance), one regrown only on the first.
  thread_local RemnantLists remnants;
  remnants.candidates.clear();
  remnants.record_ends.clear();
  ClassifyCandidates(
      prepared.candidate_rtree(), store, kernel, 0, static_cast<uint32_t>(r),
      m, stats,
      [&](uint32_t, std::span<const RTreeEntry> entries,
          std::span<const PruneLaneClass> classes) {
        remnants.AddRecord(entries, classes, brackets.min_inf);
      });
  FinishBrackets(&brackets, std::span(&remnants, 1));
  if (remnants.candidates.capacity() > kMaxRetainedRemnants) {
    remnants = RemnantLists();
  }
  return brackets;
}

void RemnantLists::AddRecord(std::span<const RTreeEntry> entries,
                             std::span<const PruneLaneClass> classes,
                             std::span<int64_t> min_inf) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (classes[i] == PruneLaneClass::kIaCertified) {
      ++min_inf[entries[i].id];
    } else if (classes[i] == PruneLaneClass::kRemnant) {
      candidates.push_back(entries[i].id);
    }
  }
  record_ends.push_back(static_cast<uint32_t>(candidates.size()));
}

void FinishBrackets(CandidateBrackets* brackets,
                    std::span<const RemnantLists> chunks) {
  const size_t m = brackets->num_candidates();
  // Size-then-fill: count remnant pairs per candidate, then transpose the
  // record-major lists into the CSR slots. Records are visited in
  // ascending order, so every set comes out sorted by record.
  brackets->vs_offsets.assign(m + 1, 0);
  size_t total = 0;
  for (const RemnantLists& chunk : chunks) {
    total += chunk.candidates.size();
    for (const uint32_t cand : chunk.candidates) {
      ++brackets->vs_offsets[cand + 1];
    }
  }
  for (size_t j = 0; j < m; ++j) {
    brackets->vs_offsets[j + 1] += brackets->vs_offsets[j];
  }
  brackets->vs_data.resize(total);
  std::vector<uint32_t> cursor(brackets->vs_offsets.begin(),
                               brackets->vs_offsets.end() - 1);
  for (const RemnantLists& chunk : chunks) {
    uint32_t begin = 0;
    for (size_t i = 0; i < chunk.record_ends.size(); ++i) {
      const uint32_t end = chunk.record_ends[i];
      const auto record = static_cast<uint32_t>(chunk.first_record + i);
      for (uint32_t p = begin; p < end; ++p) {
        brackets->vs_data[cursor[chunk.candidates[p]]++] = record;
      }
      begin = end;
    }
  }
  for (size_t j = 0; j < m; ++j) {
    brackets->max_inf[j] =
        brackets->min_inf[j] +
        (brackets->vs_offsets[j + 1] - brackets->vs_offsets[j]);
  }
}

std::vector<uint32_t> BoundDominationOrder(const CandidateBrackets& brackets) {
  std::vector<uint32_t> order(brackets.num_candidates());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return OrderBefore(brackets.min_inf, brackets.max_inf, a, b);
  });
  return order;
}

// ---------------------------------------------------------------- skyline

namespace {

/// Skyline acceptance over (influence up, cost down). The walk is in cost
/// order, so every settled candidate is at most as expensive as the current
/// one; two running maxima of their exact influences are enough to decide
/// domination against a bracket:
///
///   best_strictly_cheaper_  — max exact influence at strictly lower cost;
///                             >= maxInf(c) dominates (cost is strict);
///   best_in_group_          — max exact influence at equal cost;
///                             > maxInf(c) dominates (influence is strict).
///
/// maxInf only ever overestimates the exact influence, so both tests are
/// sound before and during validation. Settled survivors go into a pool
/// that Finish() sweeps once more: a candidate settled early can still be
/// dominated by a higher-influence member settled later (domination is
/// transitive, so the pool sweep closes the gap without revisiting skipped
/// candidates).
class SkylinePolicy {
 public:
  SkylinePolicy(std::span<const double> cost, CandidateBrackets* brackets,
                SkylineResult* result)
      : cost_(cost), brackets_(brackets), result_(result) {}

  CandidateAdmission Admit(uint32_t j) {
    if (!have_group_ || cost_[j] != group_cost_) {
      best_strictly_cheaper_ =
          std::max(best_strictly_cheaper_, best_in_group_);
      best_in_group_ = -1;
      group_cost_ = cost_[j];
      have_group_ = true;
    }
    if (Dominated(j)) {
      ++result_->bound_skipped;
      return CandidateAdmission::kSkip;
    }
    return CandidateAdmission::kEvaluate;
  }

  bool AbortValidation(uint32_t j) const { return Dominated(j); }

  void OnDecision(uint32_t j, uint32_t /*rec_idx*/, bool influenced) {
    if (influenced) {
      ++brackets_->min_inf[j];
    } else {
      --brackets_->max_inf[j];
    }
  }

  void Settle(uint32_t j, bool complete) {
    // An aborted candidate is dominated; its exact influence is unknown
    // and irrelevant.
    if (!complete) return;
    // Fully validated: the bracket has collapsed, minInf is exact.
    const int64_t influence = brackets_->min_inf[j];
    pool_.push_back({j, influence, cost_[j]});
    best_in_group_ = std::max(best_in_group_, influence);
  }

  void Finish() {
    std::sort(pool_.begin(), pool_.end(),
              [](const SkylineMember& a, const SkylineMember& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.influence != b.influence) {
                  return a.influence > b.influence;
                }
                return a.candidate < b.candidate;
              });
    // One pass in cost order: a pool member is dominated iff some kept
    // member has strictly higher influence, or equal influence at strictly
    // lower cost. best_cost_ is the cost of the first (cheapest) member
    // achieving best_inf_.
    int64_t best_inf = -1;
    double best_cost = 0.0;
    for (const SkylineMember& member : pool_) {
      if (best_inf > member.influence ||
          (best_inf == member.influence && best_cost < member.cost)) {
        continue;
      }
      if (member.influence > best_inf) {
        best_inf = member.influence;
        best_cost = member.cost;
      }
      result_->members.push_back(member);
    }
  }

 private:
  bool Dominated(uint32_t j) const {
    const int64_t upper = brackets_->max_inf[j];
    return best_strictly_cheaper_ >= upper ||
           std::max(best_strictly_cheaper_, best_in_group_) > upper;
  }

  std::span<const double> cost_;
  CandidateBrackets* brackets_;
  SkylineResult* result_;
  std::vector<SkylineMember> pool_;
  double group_cost_ = 0.0;
  bool have_group_ = false;
  int64_t best_strictly_cheaper_ = -1;
  int64_t best_in_group_ = -1;
};

}  // namespace

void SolveSkylineOnBrackets(const PreparedInstance& prepared,
                            const InfluenceKernel& kernel,
                            std::span<const double> cost,
                            CandidateBrackets* brackets,
                            SkylineResult* result) {
  const size_t m = brackets->num_candidates();
  PINO_CHECK_EQ(cost.size(), m);
  for (double c : cost) PINO_CHECK(std::isfinite(c)) << "skyline cost " << c;

  // Cost ascending, then the engine's canonical bound order: cheapest
  // candidates settle first so their exact influences dominate everything
  // more expensive with a smaller upper bound.
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (cost[a] != cost[b]) return cost[a] < cost[b];
    return OrderBefore(brackets->min_inf, brackets->max_inf, a, b);
  });

  SkylinePolicy policy(cost, brackets, result);
  const auto verification_set = [&](uint32_t j) -> std::span<const uint32_t> {
    return brackets->VerificationSet(j);
  };
  EvaluateBoundOrdered(prepared, kernel, order, verification_set,
                       &result->stats, policy);
  policy.Finish();
}

SkylineResult SolveSkyline(const PreparedInstance& prepared,
                           std::span<const double> cost) {
  PINO_CHECK_EQ(cost.size(), prepared.num_candidates());
  Stopwatch watch;
  SkylineResult result;
  if (prepared.num_candidates() == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }
  const InfluenceKernel kernel = prepared.kernel();
  CandidateBrackets brackets =
      BuildCandidateBrackets(prepared, kernel, /*use_pruning=*/true,
                             &result.stats);
  SolveSkylineOnBrackets(prepared, kernel, cost, &brackets, &result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

// ------------------------------------------------------------ diversified

void CollectInfluencePairs(const PreparedInstance& prepared,
                           const InfluenceKernel& kernel,
                           uint32_t first_record, uint32_t last_record,
                           std::vector<std::pair<uint32_t, uint32_t>>* pairs) {
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  std::vector<Point> remnant_points;
  std::vector<uint32_t> remnant_ids;
  std::vector<uint8_t> remnant_influenced;
  for (uint32_t idx = first_record; idx < last_record; ++idx) {
    remnant_points.clear();
    remnant_ids.clear();
    ClassifyCandidates(
        prepared.candidate_rtree(), store, kernel, idx, idx + 1, m, nullptr,
        [&](const RTreeEntry& e, uint32_t rec_idx) {
          pairs->emplace_back(e.id, rec_idx);
        },
        [&](const RTreeEntry& e, uint32_t) {
          remnant_points.push_back(e.point);
          remnant_ids.push_back(e.id);
        });
    if (remnant_points.empty()) continue;
    remnant_influenced.assign(remnant_points.size(), 0);
    kernel.DecideMany(remnant_points, store.positions(idx),
                      remnant_influenced);
    for (size_t i = 0; i < remnant_ids.size(); ++i) {
      if (remnant_influenced[i] != 0) pairs->emplace_back(remnant_ids[i], idx);
    }
  }
}

InfluenceSets InfluenceSetsFromPairs(
    size_t num_candidates,
    std::span<const std::vector<std::pair<uint32_t, uint32_t>>> pair_chunks) {
  InfluenceSets sets;
  sets.offsets.assign(num_candidates + 1, 0);
  size_t total = 0;
  for (const auto& chunk : pair_chunks) {
    total += chunk.size();
    for (const auto& [cand, rec] : chunk) ++sets.offsets[cand + 1];
  }
  for (size_t j = 0; j < num_candidates; ++j) {
    sets.offsets[j + 1] += sets.offsets[j];
  }
  sets.objects.resize(total);
  std::vector<uint32_t> cursor(sets.offsets.begin(), sets.offsets.end() - 1);
  for (const auto& chunk : pair_chunks) {
    for (const auto& [cand, rec] : chunk) {
      sets.objects[cursor[cand]++] = rec;
    }
  }
  return sets;
}

InfluenceSets BuildInfluenceSets(const PreparedInstance& prepared,
                                 const InfluenceKernel& kernel) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  CollectInfluencePairs(
      prepared, kernel, 0,
      static_cast<uint32_t>(prepared.store().records().size()), &pairs);
  return InfluenceSetsFromPairs(prepared.num_candidates(),
                                std::span(&pairs, 1));
}

void SelectDiversifiedOnSets(const PreparedInstance& prepared, size_t k,
                             double min_separation, const InfluenceSets& sets,
                             DiversifiedResult* result) {
  const size_t m = prepared.num_candidates();
  const size_t r = prepared.num_objects();

  // CELF lazy greedy: a max-heap of (cached gain, candidate, round the
  // gain was computed in). A popped entry with a stale round is recomputed
  // against the current coverage and pushed back.
  std::vector<char> covered(r, 0);
  int64_t covered_count = 0;

  struct HeapEntry {
    int64_t gain;
    uint32_t candidate;
    size_t round;
    bool operator<(const HeapEntry& other) const {
      // Max-heap by gain; equal gains pop in ascending candidate order, so
      // the selection matches the brute-force greedy reference tie-break.
      if (gain != other.gain) return gain < other.gain;
      return candidate > other.candidate;
    }
  };
  std::priority_queue<HeapEntry> heap;
  for (size_t j = 0; j < m; ++j) {
    // Initial gains are exact (round 0, nothing covered yet).
    heap.push({static_cast<int64_t>(sets.Objects(static_cast<uint32_t>(j))
                                        .size()),
               static_cast<uint32_t>(j), 0});
    ++result->gain_evaluations;
  }

  const auto recompute_gain = [&](uint32_t j) {
    int64_t gain = 0;
    for (uint32_t obj : sets.Objects(j)) {
      if (!covered[obj]) ++gain;
    }
    ++result->gain_evaluations;
    return gain;
  };

  // Coverage is monotone, so a candidate inside the separation radius of
  // any selected facility can never become selectable again — infeasible
  // pops are discarded permanently instead of reinserted.
  const auto feasible = [&](uint32_t j) {
    if (min_separation <= 0.0) return true;
    const Point& c = prepared.candidate(j);
    for (uint32_t s : result->selected) {
      if (Distance(prepared.candidate(s), c) < min_separation) return false;
    }
    return true;
  };

  std::vector<char> selected(m, 0);
  const size_t target = std::min(k, m);
  for (size_t round = 1;
       result->selected.size() < target && !heap.empty();) {
    HeapEntry top = heap.top();
    heap.pop();
    if (selected[top.candidate]) continue;
    if (!feasible(top.candidate)) {
      ++result->separation_rejections;
      continue;
    }
    if (top.round != round) {
      // Stale: refresh and reinsert (submodularity guarantees the true
      // gain is <= the cached one, so the heap order stays valid).
      top.gain = recompute_gain(top.candidate);
      top.round = round;
      heap.push(top);
      continue;
    }
    // Fresh feasible maximum: select it.
    selected[top.candidate] = 1;
    result->selected.push_back(top.candidate);
    for (uint32_t obj : sets.Objects(top.candidate)) {
      if (!covered[obj]) {
        covered[obj] = 1;
        ++covered_count;
      }
    }
    result->coverage.push_back(covered_count);
    ++round;
  }
}

DiversifiedResult SelectDiversified(const PreparedInstance& prepared, size_t k,
                                    double min_separation) {
  PINO_CHECK_GT(k, 0u);
  PINO_CHECK_GE(min_separation, 0.0);
  Stopwatch watch;
  DiversifiedResult result;
  if (prepared.num_candidates() == 0) {
    result.solve_seconds = watch.ElapsedSeconds();
    result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
    return result;
  }
  const InfluenceKernel kernel = prepared.kernel();
  const InfluenceSets sets = BuildInfluenceSets(prepared, kernel);
  SelectDiversifiedOnSets(prepared, k, min_separation, sets, &result);
  result.solve_seconds = watch.ElapsedSeconds();
  result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
  return result;
}

}  // namespace query
}  // namespace pinocchio
