#include "core/s2t_clustering.h"

#include <chrono>

#include "rtree/mem_rtree3d.h"

namespace hermes::core {

namespace {
int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void S2TTimings::ExportTo(exec::ExecStats* stats) const {
  stats->RecordPhaseUs("s2t_arena_build", arena_build_us);
  stats->RecordPhaseUs("s2t_index_build", index_build_us);
  stats->RecordPhaseUs("s2t_voting", voting_us);
  stats->RecordPhaseUs("s2t_voting_probe", voting_probe_us);
  stats->RecordPhaseUs("s2t_voting_kernel", voting_kernel_us);
  stats->RecordPhaseUs("s2t_segmentation", segmentation_us);
  stats->RecordPhaseUs("s2t_segmentation_dp", segmentation_dp_us);
  stats->RecordPhaseUs("s2t_segmentation_materialize",
                       segmentation_materialize_us);
  stats->RecordPhaseUs("s2t_sampling", sampling_us);
  stats->RecordPhaseUs("s2t_clustering", clustering_us);
}

StatusOr<S2TResult> S2TClustering::Run(const traj::TrajectoryStore& store,
                                       exec::ExecContext* ctx) const {
  S2TResult result;
  int64_t t0 = NowUs();
  const traj::SegmentArena arena = traj::SegmentArena::Build(store, ctx);
  result.timings.arena_build_us = NowUs() - t0;

  // Phase 1a: voting, on an in-memory STR R-tree over the arena unless the
  // naive all-pairs engine is asked for.
  std::unique_ptr<rtree::MemRTree3D> index;
  if (params_.use_index) {
    t0 = NowUs();
    index = rtree::BuildMemSegmentIndex(arena, /*fill_factor=*/0.9, ctx);
    result.timings.index_build_us = NowUs() - t0;
  }
  t0 = NowUs();
  HERMES_ASSIGN_OR_RETURN(
      result.voting,
      index != nullptr ? voting::ComputeVotingIndexed(arena, store, *index,
                                                      params_.voting, ctx)
                       : voting::ComputeVotingNaive(arena, store,
                                                    params_.voting, ctx));
  result.timings.voting_us = NowUs() - t0;
  result.timings.voting_probe_us = result.voting.probe_us;
  result.timings.voting_kernel_us = result.voting.kernel_us;

  // Phase 1b: segmentation into homogeneous sub-trajectories.
  t0 = NowUs();
  segmentation::SegmentationTimings seg_timings;
  result.sub_trajectories = segmentation::SegmentStore(
      store, result.voting, params_.segmentation, ctx, &seg_timings);
  result.timings.segmentation_us = NowUs() - t0;
  result.timings.segmentation_dp_us = seg_timings.dp_us;
  result.timings.segmentation_materialize_us = seg_timings.materialize_us;

  // Phase 2a: sampling of representatives.
  t0 = NowUs();
  result.representatives = sampling::SelectRepresentatives(
      result.sub_trajectories, params_.sampling);
  result.timings.sampling_us = NowUs() - t0;

  // Phase 2b: greedy clustering + outlier isolation.
  t0 = NowUs();
  result.clustering = clustering::ClusterAroundRepresentatives(
      result.sub_trajectories, result.representatives, params_.clustering);
  result.timings.clustering_us = NowUs() - t0;

  if (ctx != nullptr) result.timings.ExportTo(&ctx->stats());
  return result;
}

}  // namespace hermes::core
