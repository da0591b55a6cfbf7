// InfluenceService contract: responses agree exactly with direct solver
// calls on the snapshot they were computed from, what-if answers match a
// fresh prepare under the altered parameters, updates bump the epoch and
// are visible after DrainUpdates(), and malformed requests come back as
// typed errors.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_solver.h"
#include "core/influence_query.h"
#include "core/naive_solver.h"
#include "core/query_engine.h"
#include "geo/point.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/streaming.h"
#include "prob/power_law.h"
#include "serve/service.h"
#include "testing/instance_helpers.h"
#include "util/random.h"

namespace pinocchio {
namespace serve {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

// The what-if path rebuilds its PF with this unit; DefaultConfig()'s
// PowerLawPF uses the constructor default of 1000 m, so matching it here
// makes service what-if answers comparable to fresh local prepares.
ServiceOptions TestOptions(size_t prepared_top_k = 8) {
  ServiceOptions options;
  options.prepared_top_k = prepared_top_k;
  options.pf_unit_meters = 1000.0;
  return options;
}

Request SolveRequestFor(WireAlgorithm algorithm, uint32_t k) {
  Request request;
  request.type = RequestType::kSolve;
  request.solve.algorithm = algorithm;
  request.solve.top_k = k;
  return request;
}

TEST(ServiceTest, SolveMatchesDirectSolveOnTheSameSnapshot) {
  const ProblemInstance instance = RandomInstance(11);
  InfluenceService service(instance, DefaultConfig(), TestOptions());

  // Acquire the very snapshot the service will answer from, then compare
  // the response against a direct Solve on that snapshot's prepared
  // state. Influence counts are integers, so equality is bit-exactness.
  const SnapshotPtr snap = service.snapshot();
  for (const WireAlgorithm algorithm :
       {WireAlgorithm::kPinVO, WireAlgorithm::kPin, WireAlgorithm::kNaive}) {
    const Response response =
        service.Execute(SolveRequestFor(algorithm, 5));
    ASSERT_EQ(response.type, ResponseType::kSolve);

    std::unique_ptr<Solver> solver;
    switch (algorithm) {
      case WireAlgorithm::kPinVO:
        solver = std::make_unique<PinocchioVOSolver>();
        break;
      case WireAlgorithm::kPin:
        solver = std::make_unique<PinocchioSolver>();
        break;
      case WireAlgorithm::kNaive:
        solver = std::make_unique<NaiveSolver>();
        break;
    }
    const SolverResult direct = solver->Solve(snap->prepared);

    EXPECT_EQ(response.solve.epoch, snap->epoch);
    EXPECT_EQ(response.solve.num_objects, snap->prepared.num_objects());
    EXPECT_EQ(response.solve.num_candidates,
              snap->prepared.num_candidates());
    EXPECT_EQ(response.solve.best_candidate, direct.best_candidate);
    EXPECT_EQ(response.solve.best_influence, direct.best_influence);
    ASSERT_EQ(response.solve.topk.size(),
              std::min<size_t>(5, direct.ranking.size()));
    for (size_t i = 0; i < response.solve.topk.size(); ++i) {
      EXPECT_EQ(response.solve.topk[i].candidate, direct.ranking[i]);
      EXPECT_EQ(response.solve.topk[i].influence,
                direct.influence[direct.ranking[i]]);
    }
  }
}

TEST(ServiceTest, TopKBeyondPreparedKFallsBackToExactRanking) {
  const ProblemInstance instance =
      RandomInstance(12, InstanceOptions{.num_candidates = 40});
  InfluenceService service(instance, DefaultConfig(), TestOptions(4));
  const SnapshotPtr snap = service.snapshot();

  Request request;
  request.type = RequestType::kTopK;
  request.top_k.k = 20;  // beyond prepared_top_k = 4
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kSolve);
  ASSERT_EQ(response.solve.topk.size(), 20u);

  // Must match the exact PIN ranking, not VO's truncated one.
  const SolverResult exact = PinocchioSolver().Solve(snap->prepared);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(response.solve.topk[i].candidate, exact.ranking[i]) << i;
    EXPECT_EQ(response.solve.topk[i].influence,
              exact.influence[exact.ranking[i]]);
  }
}

TEST(ServiceTest, ProbeMatchesInfluenceOfCandidate) {
  const ProblemInstance instance = RandomInstance(13);
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  const SnapshotPtr snap = service.snapshot();

  for (const Point location :
       {instance.candidates[0], Point{0.0, 0.0}, Point{15000.0, 9000.0}}) {
    Request request;
    request.type = RequestType::kProbe;
    request.probe.location = location;
    const Response response = service.Execute(request);
    ASSERT_EQ(response.type, ResponseType::kProbe);
    EXPECT_EQ(response.probe.influence,
              InfluenceOfCandidate(snap->prepared, location));
    EXPECT_EQ(response.probe.epoch, snap->epoch);
  }
}

TEST(ServiceTest, WhatIfMatchesFreshPrepareUnderAlteredParameters) {
  const ProblemInstance instance = RandomInstance(14);
  InfluenceService service(instance, DefaultConfig(), TestOptions());

  Request request;
  request.type = RequestType::kWhatIf;
  request.what_if.tau = 0.55;
  request.what_if.rho = 0.8;
  request.what_if.lambda = 1.3;
  request.what_if.top_k = 3;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kSolve);

  SolverConfig altered = DefaultConfig(0.55);
  altered.pf = std::make_shared<PowerLawPF>(0.8, 1.3, /*d0=*/1.0,
                                            /*unit_meters=*/1000.0);
  altered.top_k = 8;  // the service's prepared_top_k
  const PreparedInstance fresh(instance, altered);
  const SolverResult direct = PinocchioVOSolver().Solve(fresh);

  EXPECT_EQ(response.solve.best_candidate, direct.best_candidate);
  EXPECT_EQ(response.solve.best_influence, direct.best_influence);
  ASSERT_EQ(response.solve.topk.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(response.solve.topk[i].candidate, direct.ranking[i]);
  }

  // A second what-if at the same epoch rides the Reprepare fast path and
  // must produce identical results to the first for equal parameters.
  const Response again = service.Execute(request);
  ASSERT_EQ(again.type, ResponseType::kSolve);
  EXPECT_EQ(again.solve.best_candidate, response.solve.best_candidate);
  EXPECT_EQ(again.solve.best_influence, response.solve.best_influence);
}

TEST(ServiceTest, WhatIfRejectsOutOfRangeParameters) {
  InfluenceService service(RandomInstance(15), DefaultConfig(),
                           TestOptions());
  Request request;
  request.type = RequestType::kWhatIf;
  request.what_if.tau = 1.5;
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  request.what_if.tau = 0.7;
  request.what_if.rho = 0.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);

  request.what_if.rho = 0.9;
  request.what_if.lambda = -1.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
}

TEST(ServiceTest, UpdateBumpsEpochAndExtendsTheInstance) {
  const ProblemInstance instance = RandomInstance(16);
  const size_t original_objects = instance.objects.size();
  const size_t original_candidates = instance.candidates.size();
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  EXPECT_EQ(service.snapshot()->epoch, 1u);

  Request request;
  request.type = RequestType::kUpdate;
  UpdateObject object;
  object.object_id = 9999;
  object.positions = {{100.0, 200.0}, {110.0, 210.0}};
  request.update.objects.push_back(object);
  request.update.candidates.push_back(Point{5000.0, 5000.0});

  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kUpdate);
  EXPECT_TRUE(response.update.accepted);
  EXPECT_EQ(response.update.epoch, 1u);

  service.DrainUpdates();
  const SnapshotPtr snap = service.snapshot();
  EXPECT_EQ(snap->epoch, 2u);
  EXPECT_EQ(snap->prepared.num_objects(), original_objects + 1);
  EXPECT_EQ(snap->prepared.num_candidates(), original_candidates + 1);
  EXPECT_EQ(snap->instance.objects.back().id, 9999u);
  EXPECT_EQ(service.snapshot_swaps(), 1u);

  // The rebuilt snapshot serves exactly like a from-scratch prepare of
  // the extended instance.
  const Response solve = service.Execute(
      SolveRequestFor(WireAlgorithm::kPinVO, 1));
  ASSERT_EQ(solve.type, ResponseType::kSolve);
  const SolverResult direct = PinocchioVOSolver().Solve(snap->prepared);
  EXPECT_EQ(solve.solve.best_candidate, direct.best_candidate);
  EXPECT_EQ(solve.solve.best_influence, direct.best_influence);
  EXPECT_EQ(solve.solve.epoch, 2u);
}

TEST(ServiceTest, EmptyAndInvalidUpdatesAreRejected) {
  InfluenceService service(RandomInstance(17), DefaultConfig(),
                           TestOptions());
  Request request;
  request.type = RequestType::kUpdate;  // no objects, no candidates
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  UpdateObject empty_object;
  empty_object.object_id = 1;
  request.update.objects.push_back(empty_object);  // zero positions
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(service.snapshot()->epoch, 1u);
}

TEST(ServiceTest, MultiThreadedSolvesMatchSequentialBitForBit) {
  ServiceOptions options = TestOptions();
  options.solve_threads = 3;
  InfluenceService service(RandomInstance(21), DefaultConfig(), options);
  const SnapshotPtr snap = service.snapshot();

  for (const WireAlgorithm algorithm :
       {WireAlgorithm::kPinVO, WireAlgorithm::kPin, WireAlgorithm::kNaive}) {
    const Response response = service.Execute(SolveRequestFor(algorithm, 5));
    ASSERT_EQ(response.type, ResponseType::kSolve);

    std::unique_ptr<Solver> solver;
    switch (algorithm) {
      case WireAlgorithm::kPinVO:
        solver = std::make_unique<PinocchioVOSolver>();
        break;
      case WireAlgorithm::kPin:
        solver = std::make_unique<PinocchioSolver>();
        break;
      case WireAlgorithm::kNaive:
        solver = std::make_unique<NaiveSolver>();
        break;
    }
    const SolverResult direct = solver->Solve(snap->prepared);
    EXPECT_EQ(response.solve.best_candidate, direct.best_candidate);
    EXPECT_EQ(response.solve.best_influence, direct.best_influence);
    ASSERT_EQ(response.solve.topk.size(),
              std::min<size_t>(5, direct.ranking.size()));
    for (size_t i = 0; i < response.solve.topk.size(); ++i) {
      EXPECT_EQ(response.solve.topk[i].candidate, direct.ranking[i]);
      EXPECT_EQ(response.solve.topk[i].influence,
                direct.influence[direct.ranking[i]]);
    }
  }
}

TEST(ServiceTest, StatsReportSolveThreadBudgetAndBusyTime) {
  ServiceOptions options = TestOptions();
  options.solve_threads = 2;
  InfluenceService service(RandomInstance(22), DefaultConfig(), options);
  service.Execute(SolveRequestFor(WireAlgorithm::kPinVO, 3));

  Request stats;
  stats.type = RequestType::kStats;
  const Response response = service.Execute(stats);
  ASSERT_EQ(response.type, ResponseType::kStats);
  EXPECT_EQ(response.stats.solve_threads, 2u);
  // Busy time is process-wide and monotone; after at least one solve it
  // must be positive (the inline path counts too).
  EXPECT_GT(response.stats.solve_busy_seconds, 0.0);
}

TEST(ServiceTest, StatsCountRequestsPerType) {
  InfluenceService service(RandomInstance(18), DefaultConfig(),
                           TestOptions());
  service.Execute(SolveRequestFor(WireAlgorithm::kPinVO, 1));
  Request probe;
  probe.type = RequestType::kProbe;
  probe.probe.location = Point{1.0, 2.0};
  service.Execute(probe);
  service.Execute(probe);

  Request stats;
  stats.type = RequestType::kStats;
  const Response response = service.Execute(stats);
  ASSERT_EQ(response.type, ResponseType::kStats);
  EXPECT_EQ(response.stats.solve_requests, 1u);
  EXPECT_EQ(response.stats.probe_requests, 2u);
  EXPECT_EQ(response.stats.stats_requests, 1u);
  EXPECT_EQ(response.stats.epoch, 1u);
  EXPECT_EQ(response.stats.snapshot_swaps, 0u);
  EXPECT_GE(response.stats.uptime_seconds, 0.0);
}

TEST(ServiceTest, SkylineMatchesDirectSolveOnTheSameSnapshot) {
  const ProblemInstance instance = RandomInstance(23);
  // solve_threads = 3 runs the prune phase on three threads; the answer is
  // bit-identical to the budget-1 reference computed below.
  ServiceOptions options = TestOptions();
  options.solve_threads = 3;
  InfluenceService service(instance, DefaultConfig(), options);
  const SnapshotPtr snap = service.snapshot();

  Request request;
  request.type = RequestType::kSkyline;
  request.skyline.cost_origin = Point{12000.0, 8000.0};
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kSkyline);
  EXPECT_EQ(response.skyline.epoch, snap->epoch);
  EXPECT_EQ(response.skyline.num_objects, snap->prepared.num_objects());
  EXPECT_EQ(response.skyline.num_candidates,
            snap->prepared.num_candidates());

  std::vector<double> cost(snap->prepared.num_candidates());
  for (size_t j = 0; j < cost.size(); ++j) {
    cost[j] =
        Distance(snap->prepared.candidate(j), request.skyline.cost_origin);
  }
  const query::SkylineResult direct =
      query::SolveSkyline(snap->prepared, cost);
  EXPECT_EQ(response.skyline.bound_skipped,
            static_cast<uint64_t>(direct.bound_skipped));
  ASSERT_EQ(response.skyline.skyline.size(), direct.members.size());
  for (size_t i = 0; i < direct.members.size(); ++i) {
    EXPECT_EQ(response.skyline.skyline[i].candidate,
              direct.members[i].candidate);
    EXPECT_EQ(response.skyline.skyline[i].influence,
              direct.members[i].influence);
    EXPECT_EQ(response.skyline.skyline[i].cost, direct.members[i].cost);
  }
}

TEST(ServiceTest, DiversifiedMatchesDirectSelection) {
  const ProblemInstance instance = RandomInstance(24);
  ServiceOptions options = TestOptions();
  options.solve_threads = 3;
  InfluenceService service(instance, DefaultConfig(), options);
  const SnapshotPtr snap = service.snapshot();

  Request request;
  request.type = RequestType::kDiversified;
  request.diversified.k = 4;
  request.diversified.min_separation = 6000.0;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kDiversified);
  EXPECT_EQ(response.diverse.epoch, snap->epoch);

  const query::DiversifiedResult direct =
      query::SelectDiversified(snap->prepared, 4, 6000.0);
  EXPECT_EQ(response.diverse.gain_evaluations,
            static_cast<uint64_t>(direct.gain_evaluations));
  ASSERT_EQ(response.diverse.selected.size(), direct.selected.size());
  for (size_t i = 0; i < direct.selected.size(); ++i) {
    EXPECT_EQ(response.diverse.selected[i].candidate, direct.selected[i]);
    EXPECT_EQ(response.diverse.selected[i].coverage, direct.coverage[i]);
  }
}

TEST(ServiceTest, DiversifiedRejectsNegativeSeparationAndClampsK) {
  InfluenceService service(RandomInstance(25), DefaultConfig(),
                           TestOptions());
  Request request;
  request.type = RequestType::kDiversified;
  request.diversified.k = 1;
  request.diversified.min_separation = -1.0;
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  // k = 0 is clamped up to 1 rather than rejected.
  request.diversified.k = 0;
  request.diversified.min_separation = 0.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kDiversified);
  EXPECT_EQ(response.diverse.selected.size(), 1u);
}

TEST(ServiceTest, StatsCountSkylineAndDiverseRequests) {
  InfluenceService service(RandomInstance(26), DefaultConfig(),
                           TestOptions());
  Request skyline;
  skyline.type = RequestType::kSkyline;
  skyline.skyline.cost_origin = Point{0.0, 0.0};
  service.Execute(skyline);
  service.Execute(skyline);
  Request diverse;
  diverse.type = RequestType::kDiversified;
  diverse.diversified.k = 2;
  service.Execute(diverse);

  Request stats;
  stats.type = RequestType::kStats;
  const Response response = service.Execute(stats);
  ASSERT_EQ(response.type, ResponseType::kStats);
  EXPECT_EQ(response.stats.skyline_requests, 2u);
  EXPECT_EQ(response.stats.diverse_requests, 1u);
  EXPECT_EQ(response.stats.error_responses, 0u);
}

TEST(ServiceTest, CoalescedUpdatesBuildMonotonicEpochs) {
  InfluenceService service(RandomInstance(19), DefaultConfig(),
                           TestOptions());
  for (int round = 0; round < 5; ++round) {
    Request request;
    request.type = RequestType::kUpdate;
    UpdateObject object;
    object.object_id = static_cast<uint32_t>(10000 + round);
    object.positions = {{round * 10.0, round * 20.0}};
    request.update.objects.push_back(object);
    const Response response = service.Execute(request);
    ASSERT_EQ(response.type, ResponseType::kUpdate);
  }
  service.DrainUpdates();
  const SnapshotPtr snap = service.snapshot();
  // Bursts may coalesce into fewer swaps, but every accepted object must
  // be present and the epoch must have advanced at least once.
  EXPECT_GE(snap->epoch, 2u);
  EXPECT_LE(snap->epoch, 6u);
  size_t appended = 0;
  for (const MovingObject& object : snap->instance.objects) {
    if (object.id >= 10000) ++appended;
  }
  EXPECT_EQ(appended, 5u);
}

// ------------------------------------------------------------- streaming

TEST(ServiceTest, ObserveRejectedWhenStreamingDisabled) {
  InfluenceService service(RandomInstance(3), DefaultConfig(), TestOptions());
  Request request;
  request.type = RequestType::kObserve;
  request.observe.observations = {{1, 0.0, {10.0, 10.0}}};
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = 1.0;
  EXPECT_EQ(service.Execute(advance).type, ResponseType::kError);
}

TEST(ServiceTest, ObserveMatchesDirectStreamingEngine) {
  const ProblemInstance instance = RandomInstance(17);
  ServiceOptions options = TestOptions();
  options.stream_window_seconds = 100.0;
  InfluenceService service(instance, DefaultConfig(), options);

  // The reference engine runs over the same candidates and config.
  StreamingPrimeLS::Options stream_options;
  stream_options.config = DefaultConfig();
  stream_options.config.top_k = std::max<size_t>(1, options.prepared_top_k);
  stream_options.window_seconds = options.stream_window_seconds;
  StreamingPrimeLS reference(instance.candidates, stream_options);

  Rng rng(5);
  double now = 0.0;
  for (int batch = 0; batch < 10; ++batch) {
    Request request;
    request.type = RequestType::kObserve;
    for (int i = 0; i < 8; ++i) {
      now += rng.Uniform(0.0, 5.0);
      Observation o;
      o.object_id = static_cast<uint32_t>(rng.UniformInt(0, 5));
      o.time = now;
      o.position = Point{rng.Uniform(0, 30000), rng.Uniform(0, 30000)};
      request.observe.observations.push_back(o);
      reference.Observe(o.object_id, o.time, o.position);
    }
    const Response response = service.Execute(request);
    ASSERT_EQ(response.type, ResponseType::kStream);
    const StreamResponse& s = response.stream;
    EXPECT_EQ(s.applied, 8u);
    EXPECT_EQ(s.now, reference.now());
    EXPECT_EQ(s.live_objects, reference.NumLiveObjects());
    EXPECT_EQ(s.live_positions, reference.NumLivePositions());
    const auto best = reference.Best();
    ASSERT_EQ(s.has_best, best.has_value());
    if (best.has_value()) {
      EXPECT_EQ(s.best_candidate, best->first);
      EXPECT_EQ(s.best_influence, best->second);
    }
  }

  // Advance far past the window: everything expires on both sides.
  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = now + 10 * options.stream_window_seconds;
  reference.AdvanceTo(advance.advance.time);
  const Response response = service.Execute(advance);
  ASSERT_EQ(response.type, ResponseType::kStream);
  EXPECT_EQ(response.stream.live_objects, 0u);
  EXPECT_EQ(response.stream.live_positions, 0u);
  // Best() reports a zero-influence candidate for an empty window (it is
  // nullopt only when no live candidate exists) — same as the reference.
  ASSERT_EQ(response.stream.has_best, reference.Best().has_value());
  EXPECT_EQ(response.stream.best_influence, 0);
}

TEST(ServiceTest, ObserveBatchIsAllOrNothingOnBadTimes) {
  ServiceOptions options = TestOptions();
  options.stream_window_seconds = 50.0;
  InfluenceService service(RandomInstance(7), DefaultConfig(), options);

  Request good;
  good.type = RequestType::kObserve;
  good.observe.observations = {{1, 10.0, {5.0, 5.0}}};
  ASSERT_EQ(service.Execute(good).type, ResponseType::kStream);

  // A batch that goes back in time mid-way is rejected and applies
  // nothing — the engine's state (including live counts) is unchanged.
  Request bad;
  bad.type = RequestType::kObserve;
  bad.observe.observations = {{2, 20.0, {6.0, 6.0}}, {3, 15.0, {7.0, 7.0}}};
  const Response rejected = service.Execute(bad);
  ASSERT_EQ(rejected.type, ResponseType::kError);
  EXPECT_EQ(rejected.error.code, ErrorCode::kBadRequest);

  // A batch older than the stream clock is also rejected up front.
  Request stale;
  stale.type = RequestType::kObserve;
  stale.observe.observations = {{4, 5.0, {8.0, 8.0}}};
  EXPECT_EQ(service.Execute(stale).type, ResponseType::kError);

  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = 5.0;  // < stream clock
  EXPECT_EQ(service.Execute(advance).type, ResponseType::kError);

  Request stats;
  stats.type = RequestType::kStats;
  const Response after = service.Execute(stats);
  ASSERT_EQ(after.type, ResponseType::kStats);
  EXPECT_EQ(after.stats.stream_observations, 1u);
  EXPECT_EQ(after.stats.stream_live_positions, 1u);
  EXPECT_EQ(after.stats.stream_live_objects, 1u);
  EXPECT_EQ(after.stats.observe_requests, 3u);
  EXPECT_EQ(after.stats.advance_requests, 1u);
  EXPECT_EQ(after.stats.stream_window_seconds, 50.0);
}

TEST(ServiceTest, ApproxTopKMatchesDirectApproxSolveOnTheSameSnapshot) {
  const ProblemInstance instance =
      RandomInstance(31, InstanceOptions{.num_objects = 200});
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  const SnapshotPtr snap = service.snapshot();

  Request request;
  request.type = RequestType::kApproxTopK;
  request.approx.k = 5;
  request.approx.epsilon = 0.2;
  request.approx.delta = 0.05;
  request.approx.seed = 99;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kApprox);
  EXPECT_EQ(response.approx.epoch, snap->epoch);
  EXPECT_EQ(response.approx.num_objects, snap->prepared.num_objects());
  EXPECT_EQ(response.approx.num_candidates, snap->prepared.num_candidates());

  const ApproxTopKResult direct =
      SolveApproxTopK(snap->prepared, 5, {0.2, 0.05, 99});
  ASSERT_EQ(response.approx.entries.size(), direct.entries.size());
  for (size_t i = 0; i < direct.entries.size(); ++i) {
    EXPECT_EQ(response.approx.entries[i].candidate,
              direct.entries[i].candidate);
    EXPECT_EQ(response.approx.entries[i].estimate, direct.entries[i].estimate);
    EXPECT_EQ(response.approx.entries[i].lo, direct.entries[i].lo);
    EXPECT_EQ(response.approx.entries[i].hi, direct.entries[i].hi);
    EXPECT_EQ(response.approx.entries[i].exact, direct.entries[i].exact);
  }

  // Approximate answers are deterministic: the same request against the
  // same epoch is bit-identical.
  const Response again = service.Execute(request);
  ASSERT_EQ(again.type, ResponseType::kApprox);
  ASSERT_EQ(again.approx.entries.size(), response.approx.entries.size());
  for (size_t i = 0; i < again.approx.entries.size(); ++i) {
    EXPECT_EQ(again.approx.entries[i].estimate,
              response.approx.entries[i].estimate);
  }

  Request stats;
  stats.type = RequestType::kStats;
  const Response after = service.Execute(stats);
  ASSERT_EQ(after.type, ResponseType::kStats);
  EXPECT_EQ(after.stats.approx_requests, 2u);
}

TEST(ServiceTest, ApproxTopKBracketsContainExactInfluence) {
  const ProblemInstance instance =
      RandomInstance(32, InstanceOptions{.num_objects = 300});
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  const SnapshotPtr snap = service.snapshot();
  const SolverResult exact = NaiveSolver().Solve(snap->prepared);

  Request request;
  request.type = RequestType::kApproxTopK;
  request.approx.k = 4;
  request.approx.epsilon = 0.15;
  request.approx.delta = 0.05;
  request.approx.seed = 7;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kApprox);
  for (const ApproxRankedCandidate& e : response.approx.entries) {
    EXPECT_LE(e.lo, exact.influence[e.candidate]) << e.candidate;
    EXPECT_GE(e.hi, exact.influence[e.candidate]) << e.candidate;
  }
}

TEST(ServiceTest, ApproxTopKRejectsOutOfRangeParameters) {
  InfluenceService service(RandomInstance(33), DefaultConfig(), TestOptions());
  Request request;
  request.type = RequestType::kApproxTopK;
  request.approx.k = 2;
  request.approx.epsilon = 0.0;
  request.approx.delta = 0.5;
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);
  request.approx.epsilon = 0.1;
  request.approx.delta = 1.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);
}

TEST(ServiceTest, ApproxDefaultTopKReturnsExactInfluences) {
  const ProblemInstance instance =
      RandomInstance(34, InstanceOptions{.num_objects = 200});
  ServiceOptions options = TestOptions();
  options.approx_default = true;
  options.approx_epsilon = 0.2;
  options.approx_delta = 0.05;
  options.approx_seed = 17;
  InfluenceService service(instance, DefaultConfig(), options);
  const SnapshotPtr snap = service.snapshot();
  const SolverResult exact = NaiveSolver().Solve(snap->prepared);

  Request request;
  request.type = RequestType::kTopK;
  request.top_k.k = 5;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kSolve);
  ASSERT_EQ(response.solve.topk.size(), 5u);
  // Selection is approximate, but every reported influence is exact and
  // flagged as such, and entries are influence-descending.
  for (size_t i = 0; i < response.solve.topk.size(); ++i) {
    const RankedCandidate& rc = response.solve.topk[i];
    EXPECT_TRUE(rc.exact);
    EXPECT_EQ(rc.influence, exact.influence[rc.candidate]);
    if (i > 0) {
      EXPECT_GE(response.solve.topk[i - 1].influence, rc.influence);
    }
  }
  EXPECT_EQ(response.solve.best_candidate, response.solve.topk[0].candidate);
  EXPECT_EQ(response.solve.best_influence, response.solve.topk[0].influence);
}

}  // namespace
}  // namespace serve
}  // namespace pinocchio
