#include "core/prepared_instance.h"

#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {

ObjectStore PreparedInstance::BuildStore(
    const std::vector<MovingObject>& objects, const SolverConfig& config,
    PreparedBuildStats* stats) {
  PINO_CHECK(config.pf != nullptr);
  Stopwatch watch;
  ObjectStore store(objects, *config.pf, config.tau);
  stats->store_seconds = watch.ElapsedSeconds();
  ++stats->store_builds;
  return store;
}

PreparedInstance::PreparedInstance(const ProblemInstance& instance,
                                   const SolverConfig& config)
    : config_(config),
      store_(BuildStore(instance.objects, config, &build_stats_)),
      entries_(MakeCandidateEntries(instance.candidates)) {
  BuildBoundTable();
  BuildRTree();
  RefreshStoreStats();
  build_stats_.build_seconds =
      build_stats_.store_seconds + build_stats_.rtree_seconds;
}

PreparedInstance::PreparedInstance(const std::vector<MovingObject>& objects,
                                   const SolverConfig& config)
    : config_(config),
      store_(BuildStore(objects, config, &build_stats_)),
      rtree_(config.rtree_fanout) {
  BuildBoundTable();
  RefreshStoreStats();
  build_stats_.build_seconds = build_stats_.store_seconds;
}

void PreparedInstance::BuildBoundTable() {
  Stopwatch watch;
  bound_table_ = MakeInfluenceBoundTable(*config_.pf, config_.tau);
  build_stats_.store_seconds += watch.ElapsedSeconds();
}

void PreparedInstance::BuildRTree() {
  Stopwatch watch;
  rtree_ = RTree::BulkLoad(entries_, config_.rtree_fanout);
  build_stats_.rtree_seconds = watch.ElapsedSeconds();
  build_stats_.rtree_height = rtree_.Height();
  build_stats_.rtree_nodes = rtree_.NodeCount();
  ++build_stats_.rtree_builds;
}

void PreparedInstance::RefreshStoreStats() {
  build_stats_.radius_memo_hits = store_.radius_memo_hits();
  build_stats_.radius_memo_entries = store_.radius_by_n().size();
}

void PreparedInstance::Reprepare(const SolverConfig& new_config) {
  PINO_CHECK(new_config.pf != nullptr);
  const bool semantics_changed =
      new_config.pf.get() != config_.pf.get() || new_config.tau != config_.tau;
  const bool fanout_changed = new_config.rtree_fanout != config_.rtree_fanout;
  config_ = new_config;
  double rebuilt_seconds = 0.0;
  if (semantics_changed) {
    Stopwatch watch;
    store_.Retune(*config_.pf, config_.tau);
    build_stats_.store_seconds = watch.ElapsedSeconds();
    BuildBoundTable();
    ++build_stats_.store_builds;
    RefreshStoreStats();
    rebuilt_seconds += build_stats_.store_seconds;
  }
  if (fanout_changed) {
    BuildRTree();
    rebuilt_seconds += build_stats_.rtree_seconds;
  }
  build_stats_.build_seconds = rebuilt_seconds;
}

}  // namespace pinocchio
