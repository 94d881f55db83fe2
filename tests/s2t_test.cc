#include <gtest/gtest.h>

#include <set>

#include "core/s2t_clustering.h"
#include "traj/distance.h"
#include "datagen/noise.h"
#include "rtree/mem_rtree3d.h"

namespace hermes::core {
namespace {

S2TParams LaneParams() {
  S2TParams p;
  p.SetSigma(30.0).SetEpsilon(60.0);
  p.segmentation.min_part_length = 3;
  p.sampling.max_representatives = 16;
  p.sampling.min_overlap_ratio = 0.5;
  // Coverage bandwidth: pieces within ~2 lane widths count as covered, so
  // greedy sampling stops after one representative per lane.
  p.sampling.sigma = 120.0;
  p.sampling.gain_stop_ratio = 0.2;
  p.clustering.min_overlap_ratio = 0.5;
  return p;
}

TEST(S2TTest, DiscoversParallelLanes) {
  // 3 lanes, 4 objects each, lanes 800m apart, objects 15m apart in lane.
  traj::TrajectoryStore store;
  for (int lane = 0; lane < 3; ++lane) {
    for (int k = 0; k < 4; ++k) {
      traj::Trajectory t(lane * 4 + k);
      for (int i = 0; i <= 30; ++i) {
        ASSERT_TRUE(
            t.Append({i * 30.0, lane * 800.0 + k * 15.0, i * 3.0}).ok());
      }
      ASSERT_TRUE(store.Add(std::move(t)).ok());
    }
  }
  S2TClustering s2t(LaneParams());
  auto result = s2t.Run(store);
  ASSERT_TRUE(result.ok());
  // Expect (close to) one cluster per lane and few outliers.
  EXPECT_GE(result->NumClusters(), 3u);
  EXPECT_LE(result->NumClusters(), 6u);
  EXPECT_LE(result->NumOutliers(), 2u);

  // All members of any single cluster must come from one lane.
  for (const auto& cluster : result->clustering.clusters) {
    std::set<int> lanes;
    for (size_t m : cluster.members) {
      lanes.insert(
          static_cast<int>(result->sub_trajectories[m].object_id) / 4);
    }
    EXPECT_EQ(lanes.size(), 1u);
  }
}

TEST(S2TTest, IsolatesNoiseAsOutliers) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 4, 1000.0, 900.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/2.0);
  // Inject random wanderers far from the lanes.
  geom::Mbb3D noise_bounds(0, 4000, 0, 2000, 9000, 90);
  ASSERT_TRUE(datagen::AddNoiseTrajectories(&store, 3, noise_bounds, 15.0,
                                            10.0, 99, 100)
                  .ok());
  S2TClustering s2t(LaneParams());
  auto result = s2t.Run(store);
  ASSERT_TRUE(result.ok());
  // Noise objects (ids >= 100) must be outliers.
  std::set<traj::ObjectId> outlier_objects;
  for (size_t o : result->clustering.outliers) {
    outlier_objects.insert(result->sub_trajectories[o].object_id);
  }
  int noise_as_outlier = 0;
  for (traj::ObjectId id = 100; id < 103; ++id) {
    noise_as_outlier += outlier_objects.count(id);
  }
  EXPECT_GE(noise_as_outlier, 2);
}

TEST(S2TTest, IndexedAndNaivePathsAgree) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      3, 3, 500.0, 600.0, 10.0, 10.0, /*seed=*/7, /*jitter=*/1.0);
  S2TParams params = LaneParams();
  params.use_index = true;
  S2TClustering indexed(params);
  params.use_index = false;
  S2TClustering naive(params);
  auto a = indexed.Run(store);
  auto b = naive.Run(store);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->NumClusters(), b->NumClusters());
  EXPECT_EQ(a->NumOutliers(), b->NumOutliers());
  EXPECT_EQ(a->sub_trajectories.size(), b->sub_trajectories.size());
}

TEST(S2TTest, RunVotesOnItsOwnInMemoryIndex) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 3, 400.0, 500.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  S2TClustering s2t(LaneParams());
  exec::ExecContext one(1);
  auto result = s2t.Run(store, &one);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->NumClusters(), 2u);
  EXPECT_GT(one.stats().Counter("voting_probe_handles"), 0);

  // The votes are the indexed engine's on an STR tree over the arena.
  const traj::SegmentArena arena = traj::SegmentArena::Build(store);
  const auto index = rtree::BuildMemSegmentIndex(arena);
  auto votes = voting::ComputeVotingIndexed(arena, store, *index,
                                            LaneParams().voting);
  ASSERT_TRUE(votes.ok());
  EXPECT_EQ(result->voting.votes, votes->votes);
  EXPECT_EQ(result->voting.pairs_evaluated, votes->pairs_evaluated);
}

TEST(S2TTest, RunProbesInParallelBitIdentically) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      3, 4, 700.0, 600.0, 10.0, 10.0, /*seed=*/11, /*jitter=*/2.0);
  S2TClustering s2t(LaneParams());
  exec::ExecContext one(1);
  exec::ExecContext four(4);
  auto base = s2t.Run(store, &one);
  auto run = s2t.Run(store, &four);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(base->voting.votes, run->voting.votes);
  EXPECT_EQ(base->voting.pairs_evaluated, run->voting.pairs_evaluated);
  EXPECT_EQ(base->representatives, run->representatives);
  ASSERT_EQ(base->NumClusters(), run->NumClusters());
  for (size_t c = 0; c < base->NumClusters(); ++c) {
    EXPECT_EQ(base->clustering.clusters[c].members,
              run->clustering.clusters[c].members);
  }
  EXPECT_EQ(base->clustering.outliers, run->clustering.outliers);
  EXPECT_GT(four.stats().Counter("voting_probe_handles"), 0);
}

TEST(S2TTest, TimingsArePopulated) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 3, 400.0, 500.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  S2TClustering s2t(LaneParams());
  auto result = s2t.Run(store);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->timings.voting_us, 0);
  EXPECT_GE(result->timings.TotalUs(), result->timings.voting_us);
}

TEST(S2TTest, EveryMemberWithinEpsilonOfItsRep) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      3, 4, 700.0, 600.0, 10.0, 10.0, /*seed=*/11, /*jitter=*/2.0);
  S2TParams params = LaneParams();
  S2TClustering s2t(params);
  auto result = s2t.Run(store);
  ASSERT_TRUE(result.ok());
  for (const auto& cluster : result->clustering.clusters) {
    const auto& rep = result->sub_trajectories[cluster.representative];
    for (size_t m : cluster.members) {
      if (m == cluster.representative) continue;
      const double d = traj::ClusteringDistance(
          result->sub_trajectories[m].points, rep.points,
          params.clustering.min_overlap_ratio);
      EXPECT_LE(d, params.clustering.epsilon + 1e-9);
    }
  }
}

TEST(S2TTest, SubTrajectoryPartitionCoversAllSegments) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 2, 300.0, 500.0, 10.0, 10.0, /*seed=*/13, /*jitter=*/1.0);
  S2TClustering s2t(LaneParams());
  auto result = s2t.Run(store);
  ASSERT_TRUE(result.ok());
  // Count samples per source trajectory: sub-trajectories share boundary
  // samples, so sum(sizes) = traj.size + (parts-1).
  std::vector<size_t> sample_sum(store.NumTrajectories(), 0);
  std::vector<size_t> parts(store.NumTrajectories(), 0);
  for (const auto& st : result->sub_trajectories) {
    sample_sum[st.source_trajectory] += st.points.size();
    parts[st.source_trajectory] += 1;
  }
  for (traj::TrajectoryId tid = 0; tid < store.NumTrajectories(); ++tid) {
    EXPECT_EQ(sample_sum[tid], store.Get(tid).size() + parts[tid] - 1);
  }
}

TEST(S2TTest, DifferentParamsDifferentRepresentatives) {
  // The Fig. 3 scenario: two S2T runs with different bandwidths produce
  // comparable but distinct representative sets.
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      4, 3, 300.0, 800.0, 10.0, 10.0, /*seed=*/21, /*jitter=*/3.0);
  S2TParams run_a = LaneParams();
  S2TParams run_b = LaneParams();
  run_b.SetSigma(150.0).SetEpsilon(400.0);
  auto a = S2TClustering(run_a).Run(store);
  auto b = S2TClustering(run_b).Run(store);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(a->representatives.size(), 1u);
  EXPECT_GE(b->representatives.size(), 1u);
  // The wider bandwidth merges lanes: fewer or equal clusters.
  EXPECT_LE(b->NumClusters(), a->NumClusters());
}

}  // namespace
}  // namespace hermes::core
