#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baselines/range_rebuild.h"
#include "core/qut_clustering.h"
#include "core/retratree.h"
#include "datagen/noise.h"
#include "rtree/str_bulk_load.h"
#include "storage/env.h"

namespace hermes::core {
namespace {

ReTraTreeParams TreeParams() {
  ReTraTreeParams p;
  p.tau = 400.0;
  p.delta = 100.0;
  p.t_align = 30.0;
  p.d_assign = 80.0;
  p.gamma = 8;
  p.min_new_cluster_size = 2;
  p.s2t.SetSigma(40.0).SetEpsilon(80.0);
  p.s2t.segmentation.min_part_length = 2;
  p.s2t.sampling.sigma = 120.0;
  p.s2t.sampling.gain_stop_ratio = 0.2;
  return p;
}

/// A lane of `n` co-moving objects along x at `y0`, over [t0, t1].
void AddLane(traj::TrajectoryStore* store, int first_id, int n, double y0,
             double t0, double t1) {
  for (int k = 0; k < n; ++k) {
    traj::Trajectory t(first_id + k);
    for (double now = t0; now <= t1 + 1e-9; now += 10.0) {
      ASSERT_TRUE(
          t.Append({(now - t0) * 10.0, y0 + k * 10.0, now}).ok());
    }
    ASSERT_TRUE(store->Add(std::move(t)).ok());
  }
}

class QuTTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = storage::Env::NewMemEnv();
    // Two lanes over [0, 795]: continuous movement across 8 sub-chunks.
    AddLane(&store_, 0, 10, 0.0, 0, 795);
    AddLane(&store_, 100, 10, 5000.0, 0, 795);
    auto tree = ReTraTree::Open(env_.get(), "qut_tree", TreeParams());
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
    ASSERT_TRUE(tree_->InsertStore(store_).ok());
  }

  traj::TrajectoryStore store_;
  std::unique_ptr<storage::Env> env_;
  std::unique_ptr<ReTraTree> tree_;
};

TEST_F(QuTTest, RejectsEmptyWindow) {
  QuTClustering qut(tree_.get());
  EXPECT_TRUE(qut.Query(100, 100).status().IsInvalidArgument());
  EXPECT_TRUE(qut.Query(200, 100).status().IsInvalidArgument());
}

TEST_F(QuTTest, FullWindowFindsBothLanes) {
  QuTClustering qut(tree_.get());
  auto result = qut.Query(0, 800);
  ASSERT_TRUE(result.ok());
  // The two lanes are 5 km apart: they can never stitch together.
  EXPECT_GE(result->clusters.size(), 2u);
  EXPECT_GT(result->TotalMembers(), 0u);
  // All visited sub-chunks are fully covered: the progressive fast path.
  EXPECT_EQ(result->stats.sub_chunks_partial, 0u);
  EXPECT_GT(result->stats.sub_chunks_full, 0u);
}

TEST_F(QuTTest, ClustersSeparateTheLanes) {
  QuTClustering qut(tree_.get());
  auto result = qut.Query(0, 800);
  ASSERT_TRUE(result.ok());
  for (const auto& cluster : result->clusters) {
    bool low = false, high = false;
    for (const auto& m : cluster.members) {
      // Lane ids: 0..9 at y~0, 100..109 at y~5000.
      if (m.object_id < 50) low = true;
      if (m.object_id >= 100) high = true;
    }
    EXPECT_FALSE(low && high) << "lanes mixed in one cluster";
  }
}

TEST_F(QuTTest, BoundaryWindowTrimsMembers) {
  QuTClustering qut(tree_.get());
  // Window cutting sub-chunks [0,100) and [100,200) in half each.
  auto result = qut.Query(50, 150);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.sub_chunks_partial, 2u);
  EXPECT_EQ(result->stats.sub_chunks_full, 0u);
  for (const auto& cluster : result->clusters) {
    for (const auto& m : cluster.members) {
      EXPECT_GE(m.StartTime(), 50.0 - 1e-6);
      EXPECT_LE(m.EndTime(), 150.0 + 1e-6);
    }
  }
  for (const auto& o : result->outliers) {
    EXPECT_GE(o.StartTime(), 50.0 - 1e-6);
    EXPECT_LE(o.EndTime(), 150.0 + 1e-6);
  }
}

TEST_F(QuTTest, StitchingChainsAcrossSubChunks) {
  QuTClustering qut(tree_.get());
  auto result = qut.Query(0, 800);
  ASSERT_TRUE(result.ok());
  // The lanes move continuously; their per-sub-chunk cluster pieces must
  // be stitched into long chains rather than returned per sub-chunk.
  size_t max_chain = 0;
  for (const auto& cluster : result->clusters) {
    max_chain = std::max(max_chain, cluster.representatives.size());
  }
  EXPECT_GE(max_chain, 2u);
  EXPECT_GT(result->stats.stitches, 0u);
}

TEST_F(QuTTest, WideningWindowMonotoneMembers) {
  QuTClustering qut(tree_.get());
  size_t prev_members = 0;
  for (double we = 100; we <= 800; we += 100) {
    auto result = qut.Query(0, we);
    ASSERT_TRUE(result.ok());
    const size_t members = result->TotalMembers() + result->outliers.size();
    EXPECT_GE(members, prev_members);
    prev_members = members;
  }
}

TEST_F(QuTTest, DisjointWindowEmptyAnswer) {
  QuTClustering qut(tree_.get());
  auto result = qut.Query(5000, 6000);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clusters.empty());
  EXPECT_TRUE(result->outliers.empty());
  EXPECT_EQ(result->stats.sub_chunks_visited, 0u);
}

TEST_F(QuTTest, AnswerRestrictedToWindow) {
  QuTClustering qut(tree_.get());
  auto result = qut.Query(200, 400);
  ASSERT_TRUE(result.ok());
  for (const auto& cluster : result->clusters) {
    EXPECT_GE(cluster.StartTime(), 200.0 - 1e-6);
    EXPECT_LE(cluster.EndTime(), 400.0 + 1e-6);
  }
}

TEST_F(QuTTest, AgreesWithFromScratchS2TOnMembership) {
  // QuT's answer over a window should roughly match running S2T from
  // scratch on the same window: same lane structure (2 groups), similar
  // member counts.
  QuTClustering qut(tree_.get());
  auto qut_result = qut.Query(0, 400);
  ASSERT_TRUE(qut_result.ok());

  auto genv = storage::Env::NewMemEnv();
  auto global_index =
      rtree::BuildSegmentIndex(genv.get(), "glob.idx", store_);
  ASSERT_TRUE(global_index.ok());
  auto baseline = baselines::RunRangeRebuild(store_, **global_index, 0, 400,
                                             TreeParams().s2t);
  ASSERT_TRUE(baseline.ok());

  // Both see two lanes (allowing minor fragmentation).
  EXPECT_GE(qut_result->clusters.size(), 2u);
  EXPECT_GE(baseline->s2t.NumClusters(), 2u);
  // Coverage: the majority of objects clustered by the baseline are also
  // clustered by QuT.
  std::set<traj::ObjectId> qut_objects;
  for (const auto& c : qut_result->clusters) {
    for (const auto& m : c.members) qut_objects.insert(m.object_id);
  }
  std::set<traj::ObjectId> base_objects;
  for (const auto& c : baseline->s2t.clustering.clusters) {
    for (size_t m : c.members) {
      base_objects.insert(baseline->s2t.sub_trajectories[m].object_id);
    }
  }
  size_t common = 0;
  for (traj::ObjectId id : base_objects) common += qut_objects.count(id);
  EXPECT_GE(common * 10, base_objects.size() * 7);  // >= 70% agreement.
}

TEST_F(QuTTest, StatsReportWork) {
  QuTClustering qut(tree_.get());
  auto result = qut.Query(0, 800);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.sub_chunks_visited,
            result->stats.sub_chunks_full + result->stats.sub_chunks_partial);
  EXPECT_GT(result->stats.members_read, 0u);
  EXPECT_GE(result->stats.elapsed_us, 0);
}

TEST_F(QuTTest, WarmHotTierProbesWithoutColdIoOrLocks) {
  QuTClustering qut(tree_.get());
  // First pass promotes every partition the window touches (full and
  // boundary sub-chunks both, so ReadMembers, ReadMembersInWindow, and
  // ReadOutliers all go hot).
  ASSERT_TRUE(qut.Query(50, 750).ok());
  const ColdIoStats io_before = tree_->cold_io_stats();
  const HotTierStats hot_before = tree_->hot_stats();
  auto result = qut.Query(50, 750);
  ASSERT_TRUE(result.ok());
  const ColdIoStats io_after = tree_->cold_io_stats();
  const HotTierStats hot_after = tree_->hot_stats();
  // The tier's acceptance bar: a warm QUT probe performs zero heap-file
  // page reads, zero Gist node visits/page reads, and zero per-partition
  // lock acquisitions — the probe path is one atomic snapshot load.
  EXPECT_EQ(io_after.heap_page_fetches, io_before.heap_page_fetches);
  EXPECT_EQ(io_after.heap_lock_acquisitions, io_before.heap_lock_acquisitions);
  EXPECT_EQ(io_after.index_nodes_visited, io_before.index_nodes_visited);
  EXPECT_EQ(io_after.index_page_fetches, io_before.index_page_fetches);
  EXPECT_EQ(io_after.index_lock_acquisitions,
            io_before.index_lock_acquisitions);
  EXPECT_GT(hot_after.qut_hot_probes, hot_before.qut_hot_probes);
  EXPECT_EQ(hot_after.qut_cold_probes, hot_before.qut_cold_probes);
  EXPECT_GT(hot_after.hot_index_bytes, 0u);
  EXPECT_GT(hot_after.hot_partitions, 0u);
}

TEST_F(QuTTest, ZeroBudgetDisablesAndDemotesHotTier) {
  QuTClustering qut(tree_.get());
  ASSERT_TRUE(qut.Query(0, 800).ok());  // Promote.
  ASSERT_GT(tree_->hot_stats().hot_index_bytes, 0u);
  tree_->SetHotIndexBudget(0);  // Demote everything, disable promotion.
  const HotTierStats demoted = tree_->hot_stats();
  EXPECT_EQ(demoted.hot_index_bytes, 0u);
  EXPECT_GT(demoted.hot_demotions, 0u);
  const uint64_t hot_probes = demoted.qut_hot_probes;
  auto result = qut.Query(0, 800);
  ASSERT_TRUE(result.ok());
  const HotTierStats after = tree_->hot_stats();
  EXPECT_EQ(after.qut_hot_probes, hot_probes);  // All probes went cold.
  EXPECT_GT(after.qut_cold_probes, demoted.qut_cold_probes);
  EXPECT_EQ(after.hot_index_bytes, 0u);
}

TEST_F(QuTTest, OverBudgetPartitionDoesNotRepayPromotionPerWindowRead) {
  // A tiny nonzero budget keeps the tier enabled but nothing fits.
  const RepresentativeEntry* entry = nullptr;
  for (const auto& [ci, chunk] : tree_->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      for (const auto& e : sc.representatives) {
        if (entry == nullptr && e->member_count > 0) entry = e.get();
      }
    }
  }
  ASSERT_NE(entry, nullptr);
  tree_->SetHotIndexBudget(1);
  const uint64_t promotions = tree_->hot_stats().hot_promotions;

  // First window read pays the promote-on-read full scan, discovers the
  // snapshot can never fit, and memoizes that.
  const uint64_t read0 = tree_->stats().records_read;
  auto first = tree_->ReadMembersInWindow(*entry, 0, 800);
  ASSERT_TRUE(first.ok());
  const uint64_t read1 = tree_->stats().records_read;
  ASSERT_GT(first->size(), 0u);
  EXPECT_GT(read1 - read0, first->size());  // Scan + cold windowed read.

  // Later window reads skip the scan and go straight to the cold path:
  // exactly the window's records, nothing else.
  auto second = tree_->ReadMembersInWindow(*entry, 0, 800);
  ASSERT_TRUE(second.ok());
  const uint64_t read2 = tree_->stats().records_read;
  EXPECT_EQ(second->size(), first->size());
  EXPECT_EQ(read2 - read1, second->size());
  EXPECT_EQ(tree_->hot_stats().hot_promotions, promotions);

  // Raising the budget clears the memo: the next read promotes and
  // serves hot.
  tree_->SetHotIndexBudget(size_t{64} << 20);
  auto third = tree_->ReadMembersInWindow(*entry, 0, 800);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->size(), first->size());
  EXPECT_GT(tree_->hot_stats().hot_promotions, promotions);
}

TEST_F(QuTTest, HotSnapshotsReleaseTheirPins) {
  QuTClustering qut(tree_.get());
  ASSERT_TRUE(qut.Query(0, 800).ok());  // Promote.
  const auto& pins = tree_->hot_pin_registry();
  EXPECT_GT(pins->live.load(), 0u);
  EXPECT_GE(pins->total.load(), pins->live.load());
  tree_->SetHotIndexBudget(0);  // Demote: the only owners let go.
  EXPECT_EQ(pins->live.load(), 0u);
}

// Window-size sweep: QuT never reads more members than exist, and the
// boundary work scales with the boundary, not the window.
class QuTWindowSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuTWindowSweep, BoundaryWorkBounded) {
  auto env = storage::Env::NewMemEnv();
  traj::TrajectoryStore store;
  AddLane(&store, 0, 10, 0.0, 0, 795);
  auto tree = ReTraTree::Open(env.get(), "sweep_tree", TreeParams());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->InsertStore(store).ok());
  QuTClustering qut(tree->get());
  const double we = GetParam();
  auto result = qut.Query(25, we);  // Always one leading partial sub-chunk.
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->stats.sub_chunks_partial, 2u);
}

INSTANTIATE_TEST_SUITE_P(Windows, QuTWindowSweep,
                         ::testing::Values(125.0, 325.0, 525.0, 800.0));

}  // namespace
}  // namespace hermes::core
