#include "core/prune_pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "core/prepared_instance.h"
#include "index/grid_index.h"
#include "prob/influence_kernel.h"
#include "prob/prune_filter_simd.h"
#include "testing/instance_helpers.h"
#include "testing/scoped_env.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;
using testing_helpers::ScopedEnv;

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;  // (cand, rec)

// Brute-force classification over every (candidate, record) pair, straight
// from the region definitions; shared by the per-index-backend cases.
struct BruteForceClassification {
  PairList ia;
  PairList remnant;
  int64_t nib_pruned = 0;
};

BruteForceClassification BruteForceClassify(const ProblemInstance& instance,
                                            const ObjectStore& store) {
  BruteForceClassification want;
  for (uint32_t k = 0; k < store.size(); ++k) {
    const ObjectRecord& rec = store.records()[k];
    for (uint32_t j = 0; j < instance.candidates.size(); ++j) {
      const Point& c = instance.candidates[j];
      if (!rec.nib.Contains(c)) {
        ++want.nib_pruned;
      } else if (!rec.ia.IsEmpty() && rec.ia.Contains(c)) {
        want.ia.emplace_back(j, k);
      } else {
        want.remnant.emplace_back(j, k);
      }
    }
  }
  return want;
}

PairList Sorted(PairList pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(PrunePipelineTest, ClassificationMatchesBruteForceGeometry) {
  const ProblemInstance instance = RandomInstance(91);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  PairList ia_pairs;
  PairList remnant_pairs;
  SolverStats stats;
  ClassifyCandidates(
      prepared.candidate_rtree(), store, kernel, 0, r, m, &stats,
      [&](const RTreeEntry& e, uint32_t k) { ia_pairs.emplace_back(e.id, k); },
      [&](const RTreeEntry& e, uint32_t k) {
        remnant_pairs.emplace_back(e.id, k);
      });

  const BruteForceClassification want = BruteForceClassify(instance, store);
  EXPECT_EQ(Sorted(ia_pairs), Sorted(want.ia));
  EXPECT_EQ(Sorted(remnant_pairs), Sorted(want.remnant));
  EXPECT_EQ(stats.pairs_pruned_by_ia, static_cast<int64_t>(want.ia.size()));
  EXPECT_EQ(stats.pairs_pruned_by_nib, want.nib_pruned);
}

// Mirror of the case above through the GridIndex overload: the grid-backed
// classification must produce the identical pair sets and counters.
TEST(PrunePipelineTest, GridClassificationMatchesBruteForceGeometry) {
  const ProblemInstance instance = RandomInstance(91);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const GridIndex grid(prepared.candidate_entries(), 64);

  PairList ia_pairs;
  PairList remnant_pairs;
  SolverStats stats;
  ClassifyCandidates(
      grid, store, kernel, 0, r, m, &stats,
      [&](const RTreeEntry& e, uint32_t k) { ia_pairs.emplace_back(e.id, k); },
      [&](const RTreeEntry& e, uint32_t k) {
        remnant_pairs.emplace_back(e.id, k);
      });

  const BruteForceClassification want = BruteForceClassify(instance, store);
  EXPECT_EQ(Sorted(ia_pairs), Sorted(want.ia));
  EXPECT_EQ(Sorted(remnant_pairs), Sorted(want.remnant));
  EXPECT_EQ(stats.pairs_pruned_by_ia, static_cast<int64_t>(want.ia.size()));
  EXPECT_EQ(stats.pairs_pruned_by_nib, want.nib_pruned);
}

/// One record's classification as the batch visitor reported it.
struct ClassifiedEntry {
  uint32_t record;
  uint32_t candidate;
  PruneLaneClass cls;
  bool operator==(const ClassifiedEntry&) const = default;
};

std::vector<ClassifiedEntry> ClassifyAll(const PreparedInstance& prepared,
                                         SolverStats* stats) {
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  std::vector<ClassifiedEntry> out;
  ClassifyCandidates(
      prepared.candidate_rtree(), prepared.store(), kernel, 0,
      static_cast<uint32_t>(prepared.store().size()),
      prepared.num_candidates(), stats,
      [&](uint32_t k, std::span<const RTreeEntry> entries,
          std::span<const PruneLaneClass> classes) {
        EXPECT_EQ(entries.size(), classes.size());
        for (size_t i = 0; i < entries.size(); ++i) {
          EXPECT_NE(classes[i], PruneLaneClass::kUndecided);
          out.push_back({k, entries[i].id, classes[i]});
        }
      });
  return out;
}

/// Objects clustered tightly around a few hubs with candidates packed
/// next to them (IA-certified nodes), plus roamers spanning the extent
/// (nodes settled as remnant): both node verdicts occur.
ProblemInstance SettlingInstance(uint64_t seed) {
  Rng rng(seed);
  ProblemInstance instance;
  const Point hubs[3] = {{1000.0, 1000.0}, {9000.0, 4000.0}, {5000.0, 8000.0}};
  for (uint32_t k = 0; k < 60; ++k) {
    MovingObject object;
    object.id = k;
    const bool roamer = k % 3 == 0;
    const Point& hub = hubs[k % 3];
    for (int i = 0; i < 12; ++i) {
      object.positions.push_back(
          roamer ? Point{rng.Uniform(-20000, 30000), rng.Uniform(-20000, 30000)}
                 : Point{hub.x + rng.Gaussian(0, 3.0),
                         hub.y + rng.Gaussian(0, 3.0)});
    }
    instance.objects.push_back(std::move(object));
  }
  for (uint32_t j = 0; j < 240; ++j) {
    const Point& hub = hubs[j % 3];
    instance.candidates.push_back(
        j % 2 == 0 ? Point{hub.x + rng.Gaussian(0, 20.0),
                           hub.y + rng.Gaussian(0, 20.0)}
                   : Point{rng.Uniform(0, 10000), rng.Uniform(0, 10000)});
  }
  return instance;
}

// The batch classification settles whole R-tree nodes and runs the SIMD
// lane filter; forcing the scalar tier disables both. Every record must
// see the same entries in the same order with the same classes, and the
// pair sets and counters must match the brute-force region definitions.
TEST(PrunePipelineTest, NodeVerdictsMatchScalarOrderAndBruteForce) {
  for (uint64_t seed : {31ull, 32ull, 33ull}) {
    InstanceOptions opts;
    opts.num_candidates = 200;
    opts.roamer_fraction = 0.5;
    for (const ProblemInstance& instance :
         {RandomInstance(seed, opts), SettlingInstance(seed)}) {
      const PreparedInstance prepared(instance, DefaultConfig());
      SolverStats stats;
      const std::vector<ClassifiedEntry> filtered =
          ClassifyAll(prepared, &stats);
      SolverStats scalar_stats;
      std::vector<ClassifiedEntry> scalar;
      {
        ScopedEnv force("PINOCCHIO_FORCE_SCALAR", "1");
        scalar = ClassifyAll(prepared, &scalar_stats);
      }
      EXPECT_EQ(filtered, scalar) << "seed " << seed;
      EXPECT_EQ(stats.pairs_pruned_by_ia, scalar_stats.pairs_pruned_by_ia);
      EXPECT_EQ(stats.pairs_pruned_by_nib, scalar_stats.pairs_pruned_by_nib);

      PairList ia_pairs;
      PairList remnant_pairs;
      for (const ClassifiedEntry& e : filtered) {
        if (e.cls == PruneLaneClass::kIaCertified) {
          ia_pairs.emplace_back(e.candidate, e.record);
        } else if (e.cls == PruneLaneClass::kRemnant) {
          remnant_pairs.emplace_back(e.candidate, e.record);
        }
      }
      const BruteForceClassification want =
          BruteForceClassify(instance, prepared.store());
      EXPECT_EQ(Sorted(ia_pairs), Sorted(want.ia));
      EXPECT_EQ(Sorted(remnant_pairs), Sorted(want.remnant));
      EXPECT_EQ(stats.pairs_pruned_by_nib, want.nib_pruned);
    }
  }
}

// The per-pair overload is the batch classification with the visitors
// called in entry order.
TEST(PrunePipelineTest, PerPairVisitorsFollowBatchOrder) {
  const PreparedInstance prepared(SettlingInstance(41), DefaultConfig());
  const std::vector<ClassifiedEntry> batch = ClassifyAll(prepared, nullptr);
  std::vector<ClassifiedEntry> pairs;
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  ClassifyCandidates(
      prepared.candidate_rtree(), prepared.store(), kernel, 0,
      static_cast<uint32_t>(prepared.store().size()),
      prepared.num_candidates(), nullptr,
      [&](const RTreeEntry& e, uint32_t k) {
        pairs.push_back({k, e.id, PruneLaneClass::kIaCertified});
      },
      [&](const RTreeEntry& e, uint32_t k) {
        pairs.push_back({k, e.id, PruneLaneClass::kRemnant});
      });
  std::vector<ClassifiedEntry> inside;
  for (const ClassifiedEntry& e : batch) {
    if (e.cls != PruneLaneClass::kOutside) inside.push_back(e);
  }
  EXPECT_EQ(pairs, inside);
  EXPECT_FALSE(inside.empty());
}

// The certified squared-distance thresholds step 12 ulps off fl(r*r) and
// fl(succ(r)^2) in the bit pattern; that must equal the nextafter walk.
TEST(PrunePipelineTest, PruneThresholdsMatchNextafterWalks) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (double radius : {1e-150, 0.37, 1.0, 4729.3, 1e100, 1.3e154, 1e300}) {
    const prune_internal::PruneThresholds t =
        prune_internal::MakePruneThresholds(radius);
    double accept = -1.0;
    if (std::isnormal(radius * radius)) {
      accept = radius * radius;
      for (int i = 0; i < 12; ++i) accept = std::nextafter(accept, -kInf);
    }
    const double s = std::nextafter(radius, kInf);
    double reject = kInf;
    if (std::isnormal(s * s)) {
      reject = s * s;
      for (int i = 0; i < 12; ++i) reject = std::nextafter(reject, kInf);
    }
    EXPECT_EQ(t.accept, accept) << radius;
    EXPECT_EQ(t.reject, reject) << radius;
  }
}

TEST(PrunePipelineTest, PruneAndValidateMatchesNaiveSolver) {
  const ProblemInstance instance = RandomInstance(92);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  std::vector<int64_t> influence(m, 0);
  SolverStats stats;
  PruneAndValidate(prepared.candidate_rtree(), store, kernel, 0, r, influence,
                   &stats);

  const SolverResult naive = NaiveSolver().Solve(instance, config);
  EXPECT_EQ(influence, naive.influence);
  // Every pair is accounted for exactly once: pruned by IA, pruned by NIB,
  // or validated.
  EXPECT_EQ(stats.pairs_pruned_by_ia + stats.pairs_pruned_by_nib +
                stats.pairs_validated,
            static_cast<int64_t>(m) * static_cast<int64_t>(r));
}

TEST(PrunePipelineTest, RTreeAndGridIndexBackendsAgree) {
  const ProblemInstance instance = RandomInstance(93);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  std::vector<int64_t> via_rtree(m, 0);
  SolverStats rtree_stats;
  PruneAndValidate(prepared.candidate_rtree(), store, kernel, 0, r, via_rtree,
                   &rtree_stats);

  const GridIndex grid(prepared.candidate_entries(), 64);
  std::vector<int64_t> via_grid(m, 0);
  SolverStats grid_stats;
  PruneAndValidate(grid, store, kernel, 0, r, via_grid, &grid_stats);

  EXPECT_EQ(via_rtree, via_grid);
  EXPECT_EQ(rtree_stats.pairs_pruned_by_ia, grid_stats.pairs_pruned_by_ia);
  EXPECT_EQ(rtree_stats.pairs_pruned_by_nib, grid_stats.pairs_pruned_by_nib);
  EXPECT_EQ(rtree_stats.pairs_validated, grid_stats.pairs_validated);
}

TEST(PrunePipelineTest, RecordRangePartitionsComposeExactly) {
  const ProblemInstance instance = RandomInstance(94);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  std::vector<int64_t> full(m, 0);
  SolverStats full_stats;
  PruneAndValidate(prepared.candidate_rtree(), store, kernel, 0, r, full,
                   &full_stats);

  // Disjoint record slices merged with plain addition — the contract the
  // parallel solver relies on.
  std::vector<int64_t> merged(m, 0);
  SolverStats merged_stats;
  const uint32_t mid = r / 2;
  for (const auto& [begin, end] :
       std::vector<std::pair<uint32_t, uint32_t>>{{0, mid}, {mid, r}}) {
    std::vector<int64_t> part(m, 0);
    SolverStats part_stats;
    PruneAndValidate(prepared.candidate_rtree(), store, kernel, begin, end,
                     part, &part_stats);
    for (size_t j = 0; j < m; ++j) merged[j] += part[j];
    merged_stats.pairs_pruned_by_ia += part_stats.pairs_pruned_by_ia;
    merged_stats.pairs_pruned_by_nib += part_stats.pairs_pruned_by_nib;
    merged_stats.pairs_validated += part_stats.pairs_validated;
    merged_stats.positions_scanned += part_stats.positions_scanned;
    merged_stats.early_stops += part_stats.early_stops;
  }

  EXPECT_EQ(merged, full);
  EXPECT_EQ(merged_stats.pairs_pruned_by_ia, full_stats.pairs_pruned_by_ia);
  EXPECT_EQ(merged_stats.pairs_pruned_by_nib, full_stats.pairs_pruned_by_nib);
  EXPECT_EQ(merged_stats.pairs_validated, full_stats.pairs_validated);
  EXPECT_EQ(merged_stats.positions_scanned, full_stats.positions_scanned);
  EXPECT_EQ(merged_stats.early_stops, full_stats.early_stops);
}

TEST(PrunePipelineTest, NullStatsIsAccepted) {
  const ProblemInstance instance = RandomInstance(95);
  const PreparedInstance prepared(instance, DefaultConfig());
  const size_t m = prepared.num_candidates();
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  std::vector<int64_t> influence(m, 0);
  PruneAndValidate(prepared.candidate_rtree(), prepared.store(), kernel, 0,
                   static_cast<uint32_t>(prepared.store().size()), influence,
                   nullptr);
  const SolverResult naive = NaiveSolver().Solve(instance, DefaultConfig());
  EXPECT_EQ(influence, naive.influence);
}

}  // namespace
}  // namespace pinocchio
