#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baselines/convoys.h"
#include "baselines/dbscan.h"
#include "baselines/range_rebuild.h"
#include "baselines/toptics.h"
#include "baselines/traclus.h"
#include "common/rng.h"
#include "datagen/noise.h"
#include "rtree/str_bulk_load.h"
#include "storage/env.h"

namespace hermes::baselines {
namespace {

// ---------------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------------

TEST(DbscanTest, TwoBlobsAndNoise) {
  std::vector<geom::Point2D> points;
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    points.push_back({rng.NextGaussian() * 2, rng.NextGaussian() * 2});
  }
  for (int i = 0; i < 30; ++i) {
    points.push_back(
        {100 + rng.NextGaussian() * 2, 100 + rng.NextGaussian() * 2});
  }
  points.push_back({50, 50});  // Lone noise point.
  const Labels labels = DbscanPoints(points, 5.0, 4);
  std::set<int> clusters;
  for (int i = 0; i < 60; ++i) {
    EXPECT_GE(labels[i], 0);
    clusters.insert(labels[i]);
  }
  EXPECT_EQ(clusters.size(), 2u);
  EXPECT_EQ(labels[60], -1);
  // The blobs are separated.
  EXPECT_NE(labels[0], labels[30]);
}

TEST(DbscanTest, AllNoiseWhenSparse) {
  std::vector<geom::Point2D> points;
  for (int i = 0; i < 10; ++i) points.push_back({i * 1000.0, 0});
  const Labels labels = DbscanPoints(points, 5.0, 3);
  for (int l : labels) EXPECT_EQ(l, -1);
}

TEST(DbscanTest, ChainConnectivity) {
  // A chain of points each within eps of the next forms one cluster.
  std::vector<geom::Point2D> points;
  for (int i = 0; i < 20; ++i) points.push_back({i * 4.0, 0});
  const Labels labels = DbscanPoints(points, 5.0, 3);
  for (int l : labels) EXPECT_EQ(l, 0);
}

TEST(DbscanTest, EmptyInput) {
  EXPECT_TRUE(DbscanPoints({}, 1.0, 3).empty());
}

TEST(DbscanTest, GenericOracleVariant) {
  // 6 items in two triangles of mutual neighbors.
  auto neighbors = [](size_t i) -> std::vector<size_t> {
    if (i < 3) {
      std::vector<size_t> out;
      for (size_t j = 0; j < 3; ++j) {
        if (j != i) out.push_back(j);
      }
      return out;
    }
    std::vector<size_t> out;
    for (size_t j = 3; j < 6; ++j) {
      if (j != i) out.push_back(j);
    }
    return out;
  };
  const Labels labels = DbscanGeneric(6, neighbors, 3);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

// ---------------------------------------------------------------------------
// TRACLUS
// ---------------------------------------------------------------------------

traj::Trajectory LShape(traj::ObjectId id, double jitter_seed) {
  // Right angle: east 10 steps, then north 10 steps.
  Rng rng(static_cast<uint64_t>(jitter_seed));
  traj::Trajectory t(id);
  double time = 0;
  for (int i = 0; i <= 10; ++i) {
    EXPECT_TRUE(
        t.Append({i * 100.0, rng.NextGaussian() * 2.0, time}).ok());
    time += 10;
  }
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(
        t.Append({1000.0 + rng.NextGaussian() * 2.0, i * 100.0, time}).ok());
    time += 10;
  }
  return t;
}

TEST(TraclusTest, PartitioningFindsTheCorner) {
  const traj::Trajectory t = LShape(1, 7);
  const auto cps = PartitionCharacteristicPoints(t);
  ASSERT_GE(cps.size(), 3u);
  EXPECT_EQ(cps.front(), 0u);
  EXPECT_EQ(cps.back(), t.size() - 1);
  // One characteristic point near the corner (index 10).
  bool corner = false;
  for (size_t cp : cps) {
    if (cp >= 8 && cp <= 12) corner = true;
  }
  EXPECT_TRUE(corner);
}

TEST(TraclusTest, StraightLinePartitionsMinimally) {
  traj::Trajectory t(1);
  for (int i = 0; i <= 20; ++i) {
    ASSERT_TRUE(t.Append({i * 50.0, 0.0, i * 10.0}).ok());
  }
  const auto cps = PartitionCharacteristicPoints(t);
  EXPECT_LE(cps.size(), 3u);  // Perfectly straight: start + end (±1).
}

TEST(TraclusTest, GroupsParallelBundle) {
  traj::TrajectoryStore store;
  for (int k = 0; k < 6; ++k) {
    traj::Trajectory t(k);
    for (int i = 0; i <= 20; ++i) {
      ASSERT_TRUE(t.Append({i * 50.0, k * 10.0, i * 10.0}).ok());
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  TraclusParams params;
  params.eps = 80.0;
  params.min_lns = 3;
  const TraclusResult result = RunTraclus(store, params);
  ASSERT_GE(result.clusters.size(), 1u);
  // The bundle cluster must draw from most trajectories.
  size_t biggest = 0;
  for (const auto& c : result.clusters) {
    biggest = std::max(biggest, c.distinct_trajectories);
  }
  EXPECT_GE(biggest, 5u);
}

TEST(TraclusTest, IgnoresTimeByDesign) {
  // Same corridor but hours apart: TRACLUS clusters them anyway — the
  // paper's motivating limitation.
  traj::TrajectoryStore store;
  for (int k = 0; k < 6; ++k) {
    traj::Trajectory t(k);
    const double t0 = k * 10000.0;  // Temporally disjoint!
    for (int i = 0; i <= 20; ++i) {
      ASSERT_TRUE(t.Append({i * 50.0, k * 5.0, t0 + i * 10.0}).ok());
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  TraclusParams params;
  params.eps = 80.0;
  params.min_lns = 3;
  const TraclusResult result = RunTraclus(store, params);
  ASSERT_GE(result.clusters.size(), 1u);
  size_t biggest = 0;
  for (const auto& c : result.clusters) {
    biggest = std::max(biggest, c.distinct_trajectories);
  }
  EXPECT_GE(biggest, 5u);  // Clusters despite zero co-existence.
}

TEST(TraclusTest, RepresentativeFollowsBundle) {
  traj::TrajectoryStore store;
  for (int k = 0; k < 5; ++k) {
    traj::Trajectory t(k);
    for (int i = 0; i <= 20; ++i) {
      ASSERT_TRUE(t.Append({i * 50.0, k * 8.0, i * 10.0}).ok());
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  TraclusParams params;
  params.eps = 60.0;
  params.min_lns = 3;
  params.sweep_min_lines = 3;
  const TraclusResult result = RunTraclus(store, params);
  ASSERT_FALSE(result.clusters.empty());
  const auto& rep = result.clusters[0].representative;
  ASSERT_GE(rep.size(), 2u);
  // Representative stays inside the bundle's y band [0, 32].
  for (const auto& p : rep) {
    EXPECT_GE(p.y, -10.0);
    EXPECT_LE(p.y, 42.0);
  }
}

TEST(TraclusTest, NoiseSegmentsReported) {
  traj::TrajectoryStore store;
  for (int k = 0; k < 4; ++k) {
    traj::Trajectory t(k);
    for (int i = 0; i <= 10; ++i) {
      ASSERT_TRUE(t.Append({i * 50.0, k * 10.0, i * 10.0}).ok());
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  // One lone trajectory far away.
  traj::Trajectory lone(9);
  for (int i = 0; i <= 10; ++i) {
    ASSERT_TRUE(lone.Append({i * 50.0, 99000.0, i * 10.0}).ok());
  }
  ASSERT_TRUE(store.Add(std::move(lone)).ok());
  TraclusParams params;
  params.eps = 60.0;
  params.min_lns = 3;
  const TraclusResult result = RunTraclus(store, params);
  bool lone_is_noise = false;
  for (size_t si : result.noise) {
    if (result.segments[si].source == 4) lone_is_noise = true;
  }
  EXPECT_TRUE(lone_is_noise);
}

// ---------------------------------------------------------------------------
// T-OPTICS
// ---------------------------------------------------------------------------

TEST(TOpticsTest, SeparatesTemporalGroups) {
  // Two groups sharing space but not time: T-OPTICS (time-aware) must
  // keep them apart — unlike TRACLUS above.
  traj::TrajectoryStore store;
  for (int k = 0; k < 5; ++k) {  // Group A at t in [0, 200].
    traj::Trajectory t(k);
    for (int i = 0; i <= 20; ++i) {
      ASSERT_TRUE(t.Append({i * 50.0, k * 10.0, i * 10.0}).ok());
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  for (int k = 5; k < 10; ++k) {  // Group B at t in [10000, 10200].
    traj::Trajectory t(k);
    for (int i = 0; i <= 20; ++i) {
      ASSERT_TRUE(
          t.Append({i * 50.0, (k - 5) * 10.0, 10000.0 + i * 10.0}).ok());
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  TOpticsParams params;
  params.eps = 100.0;
  params.min_pts = 3;
  const TOpticsResult result = RunTOptics(store, params);
  EXPECT_GE(result.num_clusters, 2u);
  // No cluster mixes the groups.
  for (int label = 0; label < static_cast<int>(result.num_clusters);
       ++label) {
    bool a = false, b = false;
    for (size_t i = 0; i < 10; ++i) {
      if (result.labels[i] == label) {
        (i < 5 ? a : b) = true;
      }
    }
    EXPECT_FALSE(a && b);
  }
}

TEST(TOpticsTest, OrderingVisitsEveryTrajectory) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 4, 200.0, 500.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  TOpticsParams params;
  params.eps = 300.0;
  params.min_pts = 3;
  const TOpticsResult result = RunTOptics(store, params);
  EXPECT_EQ(result.ordering.size(), store.NumTrajectories());
  EXPECT_EQ(result.reachability.size(), store.NumTrajectories());
  std::set<traj::TrajectoryId> seen(result.ordering.begin(),
                                    result.ordering.end());
  EXPECT_EQ(seen.size(), store.NumTrajectories());
}

TEST(TOpticsTest, IsolatedTrajectoryIsNoise) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      1, 5, 0.0, 500.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
  traj::Trajectory lone(99);
  for (int i = 0; i <= 10; ++i) {
    ASSERT_TRUE(lone.Append({i * 50.0, 90000.0, i * 5.0}).ok());
  }
  auto lone_id = store.Add(std::move(lone));
  ASSERT_TRUE(lone_id.ok());
  TOpticsParams params;
  params.eps = 100.0;
  params.min_pts = 3;
  const TOpticsResult result = RunTOptics(store, params);
  EXPECT_EQ(result.labels[*lone_id], -1);
}

TEST(TOpticsTest, EmptyStore) {
  traj::TrajectoryStore store;
  const TOpticsResult result = RunTOptics(store, TOpticsParams{});
  EXPECT_TRUE(result.ordering.empty());
  EXPECT_EQ(result.num_clusters, 0u);
}

// ---------------------------------------------------------------------------
// Convoys
// ---------------------------------------------------------------------------

TEST(ConvoyTest, DiscoversCoMovingGroup) {
  traj::TrajectoryStore store;
  for (int k = 0; k < 5; ++k) {
    traj::Trajectory t(k);
    for (int i = 0; i <= 30; ++i) {
      ASSERT_TRUE(t.Append({i * 20.0, k * 10.0, i * 10.0}).ok());
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  ConvoyParams params;
  params.eps = 60.0;
  params.m = 3;
  params.k = 3;
  params.snapshot_dt = 30.0;
  const auto convoys = DiscoverConvoys(store, params);
  ASSERT_GE(convoys.size(), 1u);
  // The big convoy contains all five objects for (almost) the whole span.
  size_t best = 0;
  for (const auto& c : convoys) best = std::max(best, c.objects.size());
  EXPECT_EQ(best, 5u);
}

TEST(ConvoyTest, RequiresConsecutiveLifetime) {
  // Objects together only for 2 snapshots while k=3: no convoy.
  traj::TrajectoryStore store;
  for (int k = 0; k < 4; ++k) {
    traj::Trajectory t(k);
    // Converge at t in [100, 150] only.
    ASSERT_TRUE(t.Append({k * 5000.0, 0, 0}).ok());
    ASSERT_TRUE(t.Append({0, k * 10.0, 100}).ok());
    ASSERT_TRUE(t.Append({50, k * 10.0, 150}).ok());
    ASSERT_TRUE(t.Append({k * 5000.0, 0, 300}).ok());
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  }
  ConvoyParams params;
  params.eps = 60.0;
  params.m = 3;
  params.k = 3;
  params.snapshot_dt = 25.0;
  const auto convoys = DiscoverConvoys(store, params);
  for (const auto& c : convoys) {
    EXPECT_LT(c.Lifetime(params.snapshot_dt), 5u);
  }
}

TEST(ConvoyTest, SeparateGroupsSeparateConvoys) {
  traj::TrajectoryStore store;
  for (int g = 0; g < 2; ++g) {
    for (int k = 0; k < 3; ++k) {
      traj::Trajectory t(g * 10 + k);
      for (int i = 0; i <= 20; ++i) {
        ASSERT_TRUE(
            t.Append({i * 20.0, g * 50000.0 + k * 10.0, i * 10.0}).ok());
      }
      ASSERT_TRUE(store.Add(std::move(t)).ok());
    }
  }
  ConvoyParams params;
  params.eps = 60.0;
  params.m = 3;
  params.k = 3;
  params.snapshot_dt = 40.0;
  const auto convoys = DiscoverConvoys(store, params);
  ASSERT_GE(convoys.size(), 2u);
  for (const auto& c : convoys) {
    bool low = false, high = false;
    for (traj::ObjectId id : c.objects) {
      (id < 10 ? low : high) = true;
    }
    EXPECT_FALSE(low && high);
  }
}

TEST(ConvoyTest, EmptyStoreNoConvoys) {
  traj::TrajectoryStore store;
  EXPECT_TRUE(DiscoverConvoys(store, ConvoyParams{}).empty());
}

// ---------------------------------------------------------------------------
// Range + rebuild + S2T baseline
// ---------------------------------------------------------------------------

class RangeRebuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = datagen::MakeParallelLanes(2, 5, 2000.0, 1500.0, 10.0, 10.0,
                                        /*seed=*/7, /*jitter=*/1.0);
    env_ = storage::Env::NewMemEnv();
    auto index = rtree::BuildSegmentIndex(env_.get(), "g.idx", store_);
    ASSERT_TRUE(index.ok());
    index_ = std::move(index).value();
    params_.SetSigma(30.0).SetEpsilon(60.0);
    params_.segmentation.min_part_length = 2;
    params_.sampling.sigma = 120.0;
    params_.sampling.gain_stop_ratio = 0.2;
  }
  traj::TrajectoryStore store_;
  std::unique_ptr<storage::Env> env_;
  std::unique_ptr<rtree::RTree3D> index_;
  core::S2TParams params_;
};

TEST_F(RangeRebuildTest, MaterializesOnlyWindow) {
  auto result = RunRangeRebuild(store_, *index_, 30.0, 90.0, params_);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->window_store.NumTrajectories(), 0u);
  const auto [t0, t1] = result->window_store.TimeDomain();
  EXPECT_GE(t0, 30.0 - 1e-6);
  EXPECT_LE(t1, 90.0 + 1e-6);
}

TEST_F(RangeRebuildTest, FindsLanesInWindow) {
  auto result = RunRangeRebuild(store_, *index_, 0.0, 150.0, params_);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->s2t.NumClusters(), 2u);
}

TEST_F(RangeRebuildTest, TimingsPopulated) {
  auto result = RunRangeRebuild(store_, *index_, 0.0, 150.0, params_);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->timings.TotalUs(), 0);
  EXPECT_GT(result->timings.s2t_us, 0);
  EXPECT_EQ(result->timings.index_build_us,
            result->s2t.timings.index_build_us);
}

TEST_F(RangeRebuildTest, S2TIsTheRunOfItsWindowStore) {
  // The window cuts every trajectory (each lives over t = 0..150).
  auto result = RunRangeRebuild(store_, *index_, 35.0, 115.0, params_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->window_store.NumTrajectories(), store_.NumTrajectories());
  for (traj::TrajectoryId tid = 0;
       tid < result->window_store.NumTrajectories(); ++tid) {
    EXPECT_LT(result->window_store.Get(tid).size(),
              store_.Get(tid).size());
  }
  auto direct = core::S2TClustering(params_).Run(result->window_store);
  ASSERT_TRUE(direct.ok());
  const core::S2TResult& s2t = result->s2t;
  ASSERT_GT(s2t.NumClusters(), 0u);

  ASSERT_EQ(s2t.sub_trajectories.size(), direct->sub_trajectories.size());
  for (size_t i = 0; i < s2t.sub_trajectories.size(); ++i) {
    const traj::SubTrajectory& a = s2t.sub_trajectories[i];
    const traj::SubTrajectory& b = direct->sub_trajectories[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.source_trajectory, b.source_trajectory);
    EXPECT_EQ(a.object_id, b.object_id);
    EXPECT_EQ(a.first_sample_index, b.first_sample_index);
    EXPECT_EQ(a.mean_voting, b.mean_voting);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t p = 0; p < a.points.size(); ++p) {
      EXPECT_EQ(a.points[p].x, b.points[p].x);
      EXPECT_EQ(a.points[p].y, b.points[p].y);
      EXPECT_EQ(a.points[p].t, b.points[p].t);
    }
  }
  EXPECT_EQ(s2t.representatives, direct->representatives);
  ASSERT_EQ(s2t.NumClusters(), direct->NumClusters());
  for (size_t c = 0; c < s2t.NumClusters(); ++c) {
    EXPECT_EQ(s2t.clustering.clusters[c].representative,
              direct->clustering.clusters[c].representative);
    EXPECT_EQ(s2t.clustering.clusters[c].members,
              direct->clustering.clusters[c].members);
  }
  EXPECT_EQ(s2t.clustering.outliers, direct->clustering.outliers);
  EXPECT_EQ(s2t.voting.votes, direct->voting.votes);
  EXPECT_EQ(s2t.voting.pairs_evaluated, direct->voting.pairs_evaluated);
}

TEST_F(RangeRebuildTest, RejectsEmptyWindow) {
  EXPECT_TRUE(
      RunRangeRebuild(store_, *index_, 50.0, 50.0, params_).status()
          .IsInvalidArgument());
}

TEST_F(RangeRebuildTest, EmptyWindowResultNoTrajectories) {
  auto result = RunRangeRebuild(store_, *index_, 1e7, 2e7, params_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->window_store.NumTrajectories(), 0u);
  EXPECT_EQ(result->s2t.NumClusters(), 0u);
}

}  // namespace
}  // namespace hermes::baselines
