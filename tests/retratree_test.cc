#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/retratree.h"
#include "datagen/noise.h"
#include "exec/exec_context.h"
#include "storage/env.h"
#include "traj/distance.h"

namespace hermes::core {
namespace {

ReTraTreeParams SmallTreeParams() {
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

/// Straight-line trajectory along x at height y over [t0, t1].
traj::Trajectory Line(traj::ObjectId id, double y, double t0, double t1,
                      double dt = 10.0) {
  traj::Trajectory t(id);
  for (double now = t0; now <= t1 + 1e-9; now += dt) {
    EXPECT_TRUE(t.Append({(now - t0) * 10.0, y, now}).ok());
  }
  return t;
}

class ReTraTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = storage::Env::NewMemEnv();
    auto tree = ReTraTree::Open(env_.get(), "tree", SmallTreeParams());
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
  }
  std::unique_ptr<storage::Env> env_;
  std::unique_ptr<ReTraTree> tree_;
};

TEST_F(ReTraTreeTest, OpenValidatesParameters) {
  ReTraTreeParams bad = SmallTreeParams();
  bad.tau = -1.0;
  EXPECT_FALSE(ReTraTree::Open(env_.get(), "bad1", bad).ok());
  bad = SmallTreeParams();
  bad.delta = bad.tau * 2;
  EXPECT_FALSE(ReTraTree::Open(env_.get(), "bad2", bad).ok());
}

TEST_F(ReTraTreeTest, DeltaSnapsToDivideTau) {
  ReTraTreeParams p = SmallTreeParams();
  p.tau = 100.0;
  p.delta = 33.0;  // Snaps to 100/3.
  auto tree = ReTraTree::Open(env_.get(), "snap", p);
  ASSERT_TRUE(tree.ok());
  EXPECT_NEAR((*tree)->params().delta, 100.0 / 3.0, 1e-9);
}

TEST_F(ReTraTreeTest, InsertSplitsAtSubChunkBoundaries) {
  // A trajectory spanning [0, 350] with delta=100 creates sub-chunks
  // 0..3 inside chunk 0.
  ASSERT_TRUE(tree_->Insert(Line(1, 0, 0, 350), 0).ok());
  ASSERT_EQ(tree_->chunks().size(), 1u);
  const Chunk& chunk = tree_->chunks().begin()->second;
  EXPECT_EQ(chunk.sub_chunks.size(), 4u);
  // Pieces land in the outlier partitions (no representatives yet).
  EXPECT_EQ(tree_->stats().sent_to_outliers, 4u);
  EXPECT_EQ(tree_->stats().assigned_to_existing, 0u);
}

TEST_F(ReTraTreeTest, InsertSpanningChunks) {
  ASSERT_TRUE(tree_->Insert(Line(1, 0, 300, 500), 0).ok());
  EXPECT_EQ(tree_->chunks().size(), 2u);  // Chunks 0 and 1.
}

TEST_F(ReTraTreeTest, RejectsDegenerateTrajectory) {
  traj::Trajectory t(1);
  ASSERT_TRUE(t.Append({0, 0, 0}).ok());
  EXPECT_TRUE(tree_->Insert(t, 0).IsInvalidArgument());
}

TEST_F(ReTraTreeTest, GammaTriggersS2TAndCreatesRepresentatives) {
  // 12 co-moving objects in one sub-chunk: after gamma=8 buffered
  // outliers, S2T runs and back-propagates representatives.
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(tree_->Insert(Line(k, k * 10.0, 0, 95), k).ok());
  }
  EXPECT_GE(tree_->stats().s2t_runs, 1u);
  EXPECT_GE(tree_->TotalRepresentatives(), 1u);
  // Later arrivals are assigned directly to the new representative.
  ASSERT_TRUE(tree_->Insert(Line(50, 55.0, 0, 95), 50).ok());
  EXPECT_GE(tree_->stats().assigned_to_existing, 1u);
  ASSERT_TRUE(tree_->Validate().ok());
}

TEST_F(ReTraTreeTest, MembersArePersistedAndReadable) {
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(tree_->Insert(Line(k, k * 10.0, 0, 95), k).ok());
  }
  ASSERT_GE(tree_->TotalRepresentatives(), 1u);
  size_t total_members = 0;
  for (const auto& [ci, chunk] : tree_->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& entry : sc.representatives) {
        auto members = tree_->ReadMembers(*entry);
        ASSERT_TRUE(members.ok());
        EXPECT_EQ(members->size(), entry->member_count);
        total_members += members->size();
        for (const auto& m : *members) {
          EXPECT_GE(m.points.size(), 2u);
          // Members live inside the sub-chunk's interval.
          EXPECT_GE(m.StartTime(), sc.start - 1e-6);
          EXPECT_LE(m.EndTime(), sc.end + 1e-6);
        }
      }
    }
  }
  EXPECT_GT(total_members, 0u);

  // A partition is its heap file alone: the flushed tree holds no index.
  ASSERT_TRUE(tree_->Flush().ok());
  auto files = env_->ListDir("tree");
  ASSERT_TRUE(files.ok());
  EXPECT_FALSE(files->empty());
  for (const std::string& name : *files) {
    EXPECT_EQ(name.find(".idx"), std::string::npos) << name;
  }
}

TEST_F(ReTraTreeTest, ReadMembersInWindowFiltersByTime) {
  ReTraTreeParams p = SmallTreeParams();
  p.delta = 400.0;  // One sub-chunk = one chunk for this test.
  p.t_align = 400.0;
  auto tree = ReTraTree::Open(env_.get(), "win", p);
  ASSERT_TRUE(tree.ok());
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE((*tree)->Insert(Line(k, k * 10.0, 0, 395), k).ok());
  }
  ASSERT_GE((*tree)->TotalRepresentatives(), 1u);
  const auto& chunk = (*tree)->chunks().begin()->second;
  const auto& sc = chunk.sub_chunks.begin()->second;
  common::ReaderMutexLock lock(&sc.mu);
  const auto& entry = sc.representatives.front();
  auto all = (*tree)->ReadMembers(*entry);
  auto windowed = (*tree)->ReadMembersInWindow(*entry, 0.0, 50.0);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(windowed.ok());
  // The index read must return exactly the members whose lifespan
  // intersects [0, 50] (re-segmentation can produce later-starting ones).
  size_t expected = 0;
  for (const auto& m : *all) {
    if (m.StartTime() <= 50.0 && m.EndTime() >= 0.0) ++expected;
  }
  EXPECT_EQ(windowed->size(), expected);
  EXPECT_LE(windowed->size(), all->size());
  auto empty = (*tree)->ReadMembersInWindow(*entry, 10000.0, 20000.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// A window probe tests each member's box against the closed window, in
// member order, whether it scans a hot snapshot, a cold heap file, or a
// heap file whose snapshot does not fit the budget. Members whose box
// ends exactly at the window's start or starts exactly at its end are
// in, and a partition of more than 64 members comes back in the order of
// the cold read.
TEST_F(ReTraTreeTest, HotWindowReadsMatchColdOnClosedEdges) {
  ReTraTreeParams p = SmallTreeParams();
  p.delta = 400.0;  // One sub-chunk = one chunk for this test.
  p.t_align = 400.0;
  auto tree = std::move(ReTraTree::Open(env_.get(), "edges", p)).value();
  // Co-moving along x = 10 t over [from, to], sampled every 10 s.
  auto along = [](traj::ObjectId id, double y, double from, double to) {
    traj::Trajectory t(id);
    for (double now = from; now <= to + 1e-9; now += 10.0) {
      EXPECT_TRUE(t.Append({now * 10.0, y, now}).ok());
    }
    return t;
  };
  // 12 objects found the cluster; 80 more join it, each over its own
  // stretch, starting at 0..70 s and ending at 330..390 s.
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(tree->Insert(along(k, k * 10.0, 0, 390), k).ok());
  }
  for (int k = 0; k < 80; ++k) {
    ASSERT_TRUE(tree->Insert(along(100 + k, 20.0 + (k % 9) * 5.0,
                                   10.0 * (k % 8), 390.0 - 10.0 * (k % 7)),
                             100 + k)
                    .ok());
  }
  const RepresentativeEntry* big = nullptr;
  const SubChunk& sc = tree->chunks().begin()->second.sub_chunks.begin()->second;
  common::ReaderMutexLock lock(&sc.mu);
  for (const auto& e : sc.representatives) {
    if (e->member_count > 64) big = e.get();
  }
  ASSERT_NE(big, nullptr);

  const std::vector<std::pair<double, double>> windows = {
      {-50, 0}, {0, 10}, {100, 200}, {380, 390}, {390, 400}};
  auto records = [](const PartitionRead& read) {
    std::vector<std::string> out;
    for (const auto& m : read) out.push_back(EncodeSubTrajectory(m));
    return out;
  };
  // Budget 0: every read scans the heap file and filters its records.
  tree->SetHotIndexBudget(0);
  std::vector<std::vector<std::string>> cold;
  bool ends_at_start = false, starts_at_end = false;
  for (const auto& [t0, t1] : windows) {
    auto read = tree->ReadMembersInWindow(*big, t0, t1);
    ASSERT_TRUE(read.ok());
    for (const auto& m : *read) {
      ends_at_start = ends_at_start || m.Bounds().max_t == t0;
      starts_at_end = starts_at_end || m.Bounds().min_t == t1;
    }
    cold.push_back(records(*read));
  }
  EXPECT_TRUE(ends_at_start);
  EXPECT_TRUE(starts_at_end);
  EXPECT_LT(cold.back().size(), big->member_count);
  EXPECT_FALSE(cold.back().empty());

  // Budget 1: the tier is on, but no snapshot fits, so each read tries to
  // promote and then filters its scan like a cold read.
  tree->SetHotIndexBudget(1);
  for (size_t k = 0; k < windows.size(); ++k) {
    auto read =
        tree->ReadMembersInWindow(*big, windows[k].first, windows[k].second);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(records(*read), cold[k]) << "window " << k;
  }
  ASSERT_EQ(std::atomic_load(&big->hot), nullptr);

  tree->SetHotIndexBudget(kDefaultHotIndexBudget);
  ASSERT_TRUE(tree->ReadMembers(*big).ok());  // Promotes.
  const HotTierStats before = tree->hot_stats();
  for (size_t k = 0; k < windows.size(); ++k) {
    auto read =
        tree->ReadMembersInWindow(*big, windows[k].first, windows[k].second);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(records(*read), cold[k]) << "window " << k;
  }
  const HotTierStats after = tree->hot_stats();
  EXPECT_EQ(after.qut_cold_probes, before.qut_cold_probes);
  EXPECT_EQ(after.qut_hot_probes, before.qut_hot_probes + windows.size());
}

// A cold read that promotes serves its answer from the snapshot it just
// published: the decoded records move in, so the read pins the snapshot
// and keeps it counted until it is released.
TEST_F(ReTraTreeTest, PromotingReadSharesTheSnapshot) {
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(tree_->Insert(Line(k, k * 10.0, 0, 95), k).ok());
  }
  ASSERT_TRUE(tree_->Insert(Line(99, 90000.0, 0, 95), 99).ok());  // Outlier.
  const SubChunk& sc = tree_->chunks().begin()->second.sub_chunks.begin()->second;
  common::ReaderMutexLock lock(&sc.mu);
  ASSERT_FALSE(sc.representatives.empty());
  ASSERT_GT(sc.outlier_count, 0u);
  const RepresentativeEntry& entry = *sc.representatives.front();
  using Reader = std::function<StatusOr<PartitionRead>()>;
  const std::vector<std::pair<const std::shared_ptr<const HotPartition>*,
                              Reader>>
      reads = {{&entry.hot, [&] { return tree_->ReadMembers(entry); }},
               {&sc.hot_outliers, [&] { return tree_->ReadOutliers(sc); }}};
  for (const auto& [slot, read_it] : reads) {
    tree_->SetHotIndexBudget(kDefaultHotIndexBudget);
    ASSERT_EQ(std::atomic_load(slot), nullptr);
    const uint64_t promotions = tree_->hot_stats().hot_promotions;
    {
      auto read = read_it();
      ASSERT_TRUE(read.ok());
      ASSERT_GT(read->size(), 0u);
      EXPECT_EQ(tree_->hot_stats().hot_promotions, promotions + 1);
      {
        auto hot = std::atomic_load(slot);
        ASSERT_NE(hot, nullptr);
        EXPECT_EQ(read->storage.get(), static_cast<const void*>(hot.get()));
        ASSERT_EQ(read->size(), hot->members.size());
        for (size_t i = 0; i < read->size(); ++i) {
          EXPECT_EQ(&(*read)[i], &hot->members[i]);
        }
      }
      tree_->SetHotIndexBudget(0);  // Demotes: the read is the last owner.
      EXPECT_EQ(std::atomic_load(slot), nullptr);
      EXPECT_EQ(tree_->hot_stats().hot_partitions, 1u);
    }
    EXPECT_EQ(tree_->hot_stats().hot_partitions, 0u);
  }
}

TEST_F(ReTraTreeTest, OutliersStayBufferedWhenNoClusterForms) {
  // Far-apart objects cannot form clusters: everything stays outlier.
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(tree_->Insert(Line(k, k * 5000.0, 0, 95), k).ok());
  }
  EXPECT_EQ(tree_->TotalRepresentatives(), 0u);
  const auto subchunks = tree_->SubChunksIn(0, 100);
  ASSERT_EQ(subchunks.size(), 1u);
  auto outliers = tree_->ReadOutliers(*subchunks[0]);
  ASSERT_TRUE(outliers.ok());
  EXPECT_EQ(outliers->size(), 6u);
}

// Re-clustering deletes the outlier partition it drained. Afterwards the
// buffer reads exactly the residues that re-entered it and none of the
// drained pieces; when no residue re-enters it, the sub-chunk has no
// outlier file at all.
TEST_F(ReTraTreeTest, ReclusterDeletesTheDrainedOutlierPartition) {
  // Sub-chunk 0: six co-moving objects and two far-off ones, so the run
  // the eighth outlier fires leaves two residues.
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(tree_->Insert(Line(k, k * 10.0, 0, 95), k).ok());
  }
  ASSERT_TRUE(tree_->Insert(Line(6, 9000.0, 0, 95), 6).ok());
  ASSERT_TRUE(tree_->Insert(Line(7, 20000.0, 0, 95), 7).ok());
  // Sub-chunk 1: eight co-moving objects, which one cluster takes whole.
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(
        tree_->Insert(Line(10 + k, k * 10.0, 100, 195), 10 + k).ok());
  }
  const ReTraTreeStats stats = tree_->stats();
  ASSERT_EQ(stats.s2t_runs, 2u);
  ASSERT_EQ(stats.reinserted_after_s2t, 2u);
  ASSERT_EQ(stats.sent_to_outliers, 8u + 8u + 2u);

  const SubChunkView view = tree_->SubChunksIn(0, 200);
  ASSERT_EQ(view.size(), 2u);
  auto residues = tree_->ReadOutliers(*view[0]);
  ASSERT_TRUE(residues.ok());
  ASSERT_EQ(residues->size(), 2u);
  for (const traj::SubTrajectory& r : *residues) {
    // A residue carries a derived id; the drained pieces had piece ids.
    EXPECT_NE(r.id & (uint64_t{1} << 63), 0u);
  }
  EXPECT_EQ((*residues)[0].source_trajectory, 6u);
  EXPECT_EQ((*residues)[1].source_trajectory, 7u);
  EXPECT_TRUE(env_->FileExists("tree/sc0_out.part"));

  auto none = tree_->ReadOutliers(*view[1]);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_FALSE(env_->FileExists("tree/sc1_out.part"));
  EXPECT_TRUE(env_->FileExists("tree/sc1_r0.part"));
}

TEST_F(ReTraTreeTest, SubChunksInSelectsWindow) {
  ASSERT_TRUE(tree_->Insert(Line(1, 0, 0, 795), 0).ok());
  EXPECT_EQ(tree_->SubChunksIn(0, 800).size(), 8u);
  EXPECT_EQ(tree_->SubChunksIn(0, 100).size(), 1u);
  EXPECT_EQ(tree_->SubChunksIn(150, 250).size(), 2u);
  EXPECT_TRUE(tree_->SubChunksIn(10000, 20000).empty());
  // Boundary: [100, 200) intersects only sub-chunk 1.
  EXPECT_EQ(tree_->SubChunksIn(100, 200).size(), 1u);
}

TEST_F(ReTraTreeTest, SerializationRoundTrip) {
  traj::SubTrajectory st;
  st.id = 77;
  st.source_trajectory = 5;
  st.object_id = 9;
  st.first_sample_index = 3;
  st.mean_voting = 2.25;
  st.points = Line(9, 42.0, 10, 60);
  const std::string bytes = EncodeSubTrajectory(st);
  auto back = DecodeSubTrajectory(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, 77u);
  EXPECT_EQ(back->source_trajectory, 5u);
  EXPECT_EQ(back->object_id, 9u);
  EXPECT_EQ(back->first_sample_index, 3u);
  EXPECT_DOUBLE_EQ(back->mean_voting, 2.25);
  ASSERT_EQ(back->points.size(), st.points.size());
  for (size_t i = 0; i < st.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(back->points[i].x, st.points[i].x);
    EXPECT_DOUBLE_EQ(back->points[i].t, st.points[i].t);
  }
}

TEST_F(ReTraTreeTest, DecodeRejectsCorruptBytes) {
  EXPECT_TRUE(DecodeSubTrajectory("garbage").status().IsCorruption());
  traj::SubTrajectory st;
  st.points = Line(1, 0, 0, 50);
  std::string bytes = EncodeSubTrajectory(st);
  bytes.resize(bytes.size() - 5);  // Truncate.
  EXPECT_TRUE(DecodeSubTrajectory(bytes).status().IsCorruption());
}

TEST_F(ReTraTreeTest, StatsAccounting) {
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(tree_->Insert(Line(k, k * 10.0, 0, 95), k).ok());
  }
  const ReTraTreeStats& s = tree_->stats();
  EXPECT_EQ(s.pieces_inserted,
            s.assigned_to_existing + s.sent_to_outliers);
  EXPECT_GT(s.records_written, 0u);
}

TEST_F(ReTraTreeTest, InsertStoreProcessesEverything) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 5, 50.0, 900.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(tree_->InsertStore(store).ok());
  EXPECT_GT(tree_->stats().pieces_inserted, 0u);
  ASSERT_TRUE(tree_->Validate().ok());
  // The batch path records its phase split even without an exec context.
  EXPECT_GE(tree_->stats().ingest_split_us, 0);
  EXPECT_GE(tree_->stats().ingest_apply_us, 0);
}

/// Shared comparison for the batch-vs-sequential edge cases below: same
/// counters, same structure, same persisted pieces.
void ExpectSameCatalog(const ReTraTree& a, const ReTraTree& b) {
  ASSERT_EQ(a.stats().pieces_inserted, b.stats().pieces_inserted);
  ASSERT_EQ(a.stats().sent_to_outliers, b.stats().sent_to_outliers);
  ASSERT_EQ(a.stats().assigned_to_existing, b.stats().assigned_to_existing);
  ASSERT_EQ(a.stats().s2t_runs, b.stats().s2t_runs);
  ASSERT_EQ(a.TotalRepresentatives(), b.TotalRepresentatives());
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  auto ac = a.chunks().begin();
  auto bc = b.chunks().begin();
  for (; ac != a.chunks().end(); ++ac, ++bc) {
    ASSERT_EQ(ac->first, bc->first);
    ASSERT_EQ(ac->second.sub_chunks.size(), bc->second.sub_chunks.size());
    auto as = ac->second.sub_chunks.begin();
    auto bs = bc->second.sub_chunks.begin();
    for (; as != ac->second.sub_chunks.end(); ++as, ++bs) {
      ASSERT_EQ(as->first, bs->first);
      common::ReaderMutexLock a_lock(&as->second.mu);
      common::ReaderMutexLock b_lock(&bs->second.mu);
      ASSERT_EQ(as->second.outlier_count, bs->second.outlier_count);
      auto a_out = a.ReadOutliers(as->second);
      auto b_out = b.ReadOutliers(bs->second);
      ASSERT_TRUE(a_out.ok());
      ASSERT_TRUE(b_out.ok());
      ASSERT_EQ(a_out->size(), b_out->size());
      for (size_t i = 0; i < a_out->size(); ++i) {
        ASSERT_EQ((*a_out)[i].id, (*b_out)[i].id);
        ASSERT_EQ((*a_out)[i].points.size(), (*b_out)[i].points.size());
      }
    }
  }
}

TEST_F(ReTraTreeTest, BatchInsertEmptyStoreIsNoOp) {
  traj::TrajectoryStore empty;
  exec::ExecContext ctx(4);
  ASSERT_TRUE(tree_->InsertStore(empty, &ctx).ok());
  EXPECT_TRUE(tree_->chunks().empty());
  EXPECT_EQ(tree_->stats().pieces_inserted, 0u);
}

TEST_F(ReTraTreeTest, BatchInsertRejectsDegenerateTrajectoryUpfront) {
  traj::TrajectoryStore store;
  traj::Trajectory ok_traj(1);
  ASSERT_TRUE(ok_traj.Append({0, 0, 0}).ok());
  ASSERT_TRUE(ok_traj.Append({10, 0, 10}).ok());
  ASSERT_TRUE(store.Add(std::move(ok_traj)).ok());
  traj::Trajectory lone(2);
  ASSERT_TRUE(lone.Append({0, 0, 50}).ok());
  ASSERT_TRUE(store.Add(std::move(lone)).ok());
  exec::ExecContext ctx(2);
  EXPECT_TRUE(tree_->InsertStore(store, &ctx).IsInvalidArgument());
  // The batch failed in the split phase: nothing was applied.
  EXPECT_EQ(tree_->stats().pieces_inserted, 0u);
}

TEST_F(ReTraTreeTest, BatchSingleTrajectoryMatchesSequentialInsert) {
  traj::TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(7, 20.0, 0, 350)).ok());
  auto seq_tree =
      std::move(ReTraTree::Open(env_.get(), "seq1", SmallTreeParams()))
          .value();
  ASSERT_TRUE(seq_tree->Insert(store.Get(0), 0).ok());
  exec::ExecContext ctx(4);
  ASSERT_TRUE(tree_->InsertStore(store, &ctx).ok());
  ExpectSameCatalog(*seq_tree, *tree_);
  EXPECT_EQ(tree_->stats().pieces_inserted, 4u);  // delta=100 over [0,350].
}

TEST_F(ReTraTreeTest, BatchSplitsLongPiecesAcrossManySubChunks) {
  // delta=500 with dt=1 puts ~500 samples in each sub-chunk: every
  // sub-chunk piece exceeds the 300-sample record bound and splits with
  // one overlapping sample, and the trajectory spans 4 sub-chunks.
  ReTraTreeParams p = SmallTreeParams();
  p.tau = 2000.0;
  p.delta = 500.0;
  p.gamma = 1000;  // No re-clustering: isolate the splitting behavior.
  auto seq_tree = std::move(ReTraTree::Open(env_.get(), "seqlong", p)).value();
  auto batch_tree =
      std::move(ReTraTree::Open(env_.get(), "batchlong", p)).value();

  traj::TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(3, 0.0, 0, 1999, /*dt=*/1.0)).ok());
  ASSERT_TRUE(seq_tree->Insert(store.Get(0), 0).ok());
  exec::ExecContext ctx(4);
  ASSERT_TRUE(batch_tree->InsertStore(store, &ctx).ok());

  ExpectSameCatalog(*seq_tree, *batch_tree);
  // 4 sub-chunks x (501 samples -> pieces of <=300 with 1-sample overlap).
  EXPECT_EQ(batch_tree->chunks().begin()->second.sub_chunks.size(), 4u);
  EXPECT_GT(batch_tree->stats().pieces_inserted, 4u);
  ASSERT_TRUE(batch_tree->Validate().ok());
}

TEST_F(ReTraTreeTest, ReclusterFiresInsideParallelApply) {
  // Co-moving objects across several sub-chunks with a tiny gamma: the
  // apply fan-out re-clusters inside its tasks (nested S2T fan-out) and
  // still matches the sequential loop.
  traj::TrajectoryStore store;
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(store.Add(Line(k, k * 10.0, 0, 395)).ok());
  }
  auto seq_tree =
      std::move(ReTraTree::Open(env_.get(), "seqrc", SmallTreeParams()))
          .value();
  for (traj::TrajectoryId tid = 0; tid < store.NumTrajectories(); ++tid) {
    ASSERT_TRUE(seq_tree->Insert(store.Get(tid), tid).ok());
  }
  ASSERT_GE(seq_tree->stats().s2t_runs, 1u);

  exec::ExecContext ctx(4);
  auto batch_tree =
      std::move(ReTraTree::Open(env_.get(), "batchrc", SmallTreeParams(),
                                &ctx))
          .value();
  ASSERT_TRUE(batch_tree->InsertStore(store).ok());  // Uses the tree's ctx.
  EXPECT_GE(batch_tree->stats().s2t_runs, 1u);
  ExpectSameCatalog(*seq_tree, *batch_tree);
  ASSERT_TRUE(batch_tree->Validate().ok());
  // Representatives discovered inside apply tasks carry derived ids
  // (bit 63) — disjoint from the prefix-sum piece-id space.
  for (const auto& [ci, chunk] : batch_tree->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& entry : sc.representatives) {
        EXPECT_NE(entry->representative.id & (uint64_t{1} << 63), 0u);
      }
    }
  }
}

// Catch-up into a fully promoted tree: the apply fan-out's tasks extend
// member and outlier snapshots and re-cluster (dropping outlier
// snapshots) concurrently. The result matches the sequential loop, and
// every snapshot still reads like the records on disk.
TEST_F(ReTraTreeTest, ParallelApplyExtendsHotSnapshots) {
  traj::TrajectoryStore store;
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(store.Add(Line(k, k * 10.0, 0, 395)).ok());
  }
  const size_t first_batch = store.NumTrajectories();
  // Joins the clusters, then enough far-off objects to re-cluster the
  // outlier buffers.
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(store.Add(Line(100 + k, 5.0 + k * 10.0, 0, 395)).ok());
  }
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(store.Add(Line(200 + k, 90000.0 + k * 10.0, 0, 395)).ok());
  }
  auto promote_all = [](const ReTraTree& tree) {
    for (const auto& [ci, chunk] : tree.chunks()) {
      for (const auto& [si, sc] : chunk.sub_chunks) {
        common::ReaderMutexLock lock(&sc.mu);
        EXPECT_TRUE(tree.ReadOutliers(sc).ok());
        for (const auto& e : sc.representatives) {
          EXPECT_TRUE(tree.ReadMembers(*e).ok());
        }
      }
    }
  };
  auto seq_tree =
      std::move(ReTraTree::Open(env_.get(), "seqhot", SmallTreeParams()))
          .value();
  exec::ExecContext ctx(4);
  auto batch_tree =
      std::move(ReTraTree::Open(env_.get(), "batchhot", SmallTreeParams(),
                                &ctx))
          .value();
  for (traj::TrajectoryId tid = 0; tid < first_batch; ++tid) {
    ASSERT_TRUE(seq_tree->Insert(store.Get(tid), tid).ok());
  }
  ASSERT_TRUE(batch_tree->InsertBatch(store, &ctx, 0, first_batch).ok());
  promote_all(*seq_tree);
  promote_all(*batch_tree);
  const HotTierStats promoted = batch_tree->hot_stats();
  const uint64_t s2t_runs = batch_tree->stats().s2t_runs;

  for (traj::TrajectoryId tid = first_batch; tid < store.NumTrajectories();
       ++tid) {
    ASSERT_TRUE(seq_tree->Insert(store.Get(tid), tid).ok());
  }
  ASSERT_TRUE(batch_tree
                  ->InsertBatch(store, &ctx, first_batch,
                                store.NumTrajectories() - first_batch)
                  .ok());
  ExpectSameCatalog(*seq_tree, *batch_tree);
  ASSERT_TRUE(batch_tree->Validate().ok());
  const HotTierStats caught_up = batch_tree->hot_stats();
  EXPECT_GT(batch_tree->stats().s2t_runs, s2t_runs);
  EXPECT_GT(caught_up.hot_demotions, promoted.hot_demotions);
  // Every published snapshot is a promotion or an extension.
  EXPECT_GT(caught_up.hot_pins_total - caught_up.hot_promotions,
            promoted.hot_pins_total - promoted.hot_promotions);

  std::vector<std::string> hot, cold;
  auto read_all = [&](std::vector<std::string>* out) {
    for (const auto& [ci, chunk] : batch_tree->chunks()) {
      for (const auto& [si, sc] : chunk.sub_chunks) {
        common::ReaderMutexLock lock(&sc.mu);
        auto outs = batch_tree->ReadOutliers(sc);
        ASSERT_TRUE(outs.ok());
        for (const auto& m : *outs) out->push_back(EncodeSubTrajectory(m));
        for (const auto& e : sc.representatives) {
          auto members = batch_tree->ReadMembers(*e);
          ASSERT_TRUE(members.ok());
          for (const auto& m : *members) {
            out->push_back(EncodeSubTrajectory(m));
          }
        }
      }
    }
  };
  read_all(&hot);
  batch_tree->SetHotIndexBudget(0);
  read_all(&cold);
  EXPECT_EQ(hot, cold);
}

// Apply tasks open partition files, and their re-clustering runs delete
// outlier files, while another thread sums the open files' counters.
// Run under TSan, this is the race gate of the tree's file registry.
TEST_F(ReTraTreeTest, ColdIoStatsRunBesideAParallelApply) {
  traj::TrajectoryStore store;
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(store.Add(Line(k, k * 10.0, 0, 395)).ok());
  }
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(store.Add(Line(200 + k, 90000.0 + k * 10.0, 0, 395)).ok());
  }
  exec::ExecContext ctx(4);
  auto tree = std::move(ReTraTree::Open(env_.get(), "stats",
                                        SmallTreeParams(), &ctx))
                  .value();
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) (void)tree->cold_io_stats();
  });
  const Status st = tree->InsertStore(store);
  done.store(true);
  observer.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(tree->stats().s2t_runs, 4u);
  EXPECT_GT(tree->cold_io_stats().resident_pages, 0u);
}

TEST_F(ReTraTreeTest, RepresentativeAssignmentRespectsDistance) {
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(tree_->Insert(Line(k, k * 10.0, 0, 95), k).ok());
  }
  ASSERT_GE(tree_->TotalRepresentatives(), 1u);
  const uint64_t outliers_before = tree_->stats().sent_to_outliers;
  // A trajectory far from every representative must buffer as outlier.
  ASSERT_TRUE(tree_->Insert(Line(99, 90000.0, 0, 95), 99).ok());
  EXPECT_EQ(tree_->stats().sent_to_outliers, outliers_before + 1);
}

}  // namespace
}  // namespace hermes::core
