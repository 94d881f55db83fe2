#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/range_rebuild.h"
#include "common/rng.h"
#include "core/qut_clustering.h"
#include "core/retratree.h"
#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/noise.h"
#include "datagen/urban.h"
#include "rtree/str_bulk_load.h"
#include "sql/query_functions.h"
#include "storage/env.h"
#include "traj/distance.h"

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
  // page reads and zero per-partition lock acquisitions — the probe path
  // is one atomic snapshot load.
  EXPECT_EQ(io_after.heap_page_fetches, io_before.heap_page_fetches);
  EXPECT_EQ(io_after.heap_lock_acquisitions, io_before.heap_lock_acquisitions);
  EXPECT_EQ(io_after.index_page_fetches, io_before.index_page_fetches);
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

// A read never creates a partition file: a cold QUT sweep over the built
// tree leaves its directory as it was, though some of the sub-chunks it
// reads have no outlier file.
TEST_F(QuTTest, ColdSweepCreatesNoFile) {
  tree_->SetHotIndexBudget(0);
  auto before = env_->ListDir("qut_tree");
  ASSERT_TRUE(before.ok());
  size_t without_outlier_file = 0;
  for (const auto& [ci, chunk] : tree_->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      without_outlier_file +=
          !env_->FileExists("qut_tree/" + sc.outlier_partition + ".part");
    }
  }
  EXPECT_GT(without_outlier_file, 0u);
  QuTClustering qut(tree_.get());
  for (double lo = 0; lo < 800; lo += 50) {
    ASSERT_TRUE(qut.Query(lo, lo + 175).ok());
  }
  ASSERT_TRUE(qut.Query(0, 800).ok());
  EXPECT_GT(tree_->hot_stats().qut_cold_probes, 0u);
  auto after = env_->ListDir("qut_tree");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST_F(QuTTest, OverBudgetPartitionDoesNotRepayPromotionPerWindowRead) {
  const RepresentativeEntry* entry = nullptr;
  double sub_chunk_end = 0;
  for (const auto& [ci, chunk] : tree_->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& e : sc.representatives) {
        if (entry == nullptr && e->member_count > 1) {
          entry = e.get();
          sub_chunk_end = sc.end;
        }
      }
    }
  }
  ASSERT_NE(entry, nullptr);
  auto records = [](const PartitionRead& read) {
    std::vector<std::string> out;
    for (const auto& m : read) out.push_back(EncodeSubTrajectory(m));
    return out;
  };
  // The whole partition, a window that ends inside it, and one that
  // starts after every member.
  const double mid = (entry->representative.StartTime() +
                      entry->representative.EndTime()) / 2;
  const std::vector<std::pair<double, double>> windows = {
      {0, 800}, {0, mid}, {sub_chunk_end + 1, 800}};
  std::vector<std::vector<std::string>> hot;
  for (const auto& [t0, t1] : windows) {
    auto read = tree_->ReadMembersInWindow(*entry, t0, t1);
    ASSERT_TRUE(read.ok());
    hot.push_back(records(*read));
  }
  ASSERT_NE(std::atomic_load(&entry->hot), nullptr);
  ASSERT_EQ(hot[0].size(), entry->member_count);
  ASSERT_FALSE(hot[1].empty());
  ASSERT_TRUE(hot[2].empty());

  // A tiny nonzero budget keeps the tier enabled but nothing fits. Each
  // window read then costs one scan of the partition, answers as the hot
  // read did, and promotes nothing.
  tree_->SetHotIndexBudget(1);
  ASSERT_EQ(std::atomic_load(&entry->hot), nullptr);
  const uint64_t promotions = tree_->hot_stats().hot_promotions;
  for (int round = 0; round < 2; ++round) {
    for (size_t k = 0; k < windows.size(); ++k) {
      const uint64_t read0 = tree_->stats().records_read;
      auto read =
          tree_->ReadMembersInWindow(*entry, windows[k].first,
                                     windows[k].second);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(tree_->stats().records_read - read0, entry->member_count);
      EXPECT_EQ(records(*read), hot[k]) << "window " << k;
      EXPECT_EQ(tree_->hot_stats().hot_promotions, promotions);
    }
  }

  // Raising the budget lets the next read promote and serve hot.
  tree_->SetHotIndexBudget(size_t{64} << 20);
  auto raised = tree_->ReadMembersInWindow(*entry, 0, 800);
  ASSERT_TRUE(raised.ok());
  EXPECT_EQ(records(*raised), hot[0]);
  EXPECT_GT(tree_->hot_stats().hot_promotions, promotions);
  EXPECT_NE(std::atomic_load(&entry->hot), nullptr);
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

// A snapshot costs its members plus one box per member: a fully promoted
// tree of small partitions holds a few KiB per resident snapshot.
TEST_F(QuTTest, HotBytesAreMembersPlusOneBoxEach) {
  QuTClustering qut(tree_.get());
  ASSERT_TRUE(qut.Query(0, 800).ok());  // Reads every partition in full.
  size_t resident = 0;
  auto check = [&](const std::shared_ptr<const HotPartition>& slot) {
    auto hot = std::atomic_load(&slot);
    if (hot == nullptr) return;
    ++resident;
    ASSERT_EQ(hot->boxes.size(), hot->members.size());
    for (size_t i = 0; i < hot->members.size(); ++i) {
      const geom::Mbb3D want = hot->members[i].Bounds();
      EXPECT_EQ(std::memcmp(&hot->boxes[i], &want, sizeof(want)), 0);
    }
  };
  for (const auto& [ci, chunk] : tree_->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      check(sc.hot_outliers);
      for (const auto& e : sc.representatives) check(e->hot);
    }
  }
  const HotTierStats s = tree_->hot_stats();
  ASSERT_GT(resident, 8u);
  EXPECT_EQ(s.hot_partitions, resident);
  EXPECT_GT(s.hot_index_bytes, 0u);
  EXPECT_LT(s.hot_index_bytes, resident * 8192);
}

// ---------------------------------------------------------------------------
// Exactness: the eager assembly as oracle
//
// `QuTClustering::Query` reads members and outliers in place, stitches only
// adjacent sub-chunk runs, and computes each cluster's bounds once. Below
// is the assembly as it was before — every read deep-copied, the all-pairs
// stitch scan, a root-keyed std::map merge, and a sort whose comparator
// rescans every member — frozen as the oracle the new path must equal bit
// for bit, down to the order of equal-start clusters the unstable sort
// leaves behind.
// ---------------------------------------------------------------------------

/// A cluster held by value, with its bounds recomputed on every call.
struct RefCluster {
  std::vector<traj::SubTrajectory> representatives;
  std::vector<traj::SubTrajectory> members;

  double StartTime() const {
    double t = std::numeric_limits<double>::infinity();
    for (const auto& r : representatives) t = std::min(t, r.StartTime());
    for (const auto& m : members) t = std::min(t, m.StartTime());
    return t;
  }
  double EndTime() const {
    double t = -std::numeric_limits<double>::infinity();
    for (const auto& r : representatives) t = std::max(t, r.EndTime());
    for (const auto& m : members) t = std::max(t, m.EndTime());
    return t;
  }
};

struct RefResult {
  std::vector<RefCluster> clusters;
  std::vector<traj::SubTrajectory> outliers;
  QuTStats stats;
};

/// Trimming as it was: copy the whole source, then overwrite its points.
traj::SubTrajectory RefTrimToWindow(const traj::SubTrajectory& st, double t0,
                                    double t1) {
  traj::SubTrajectory out = st;
  out.points = st.points.Slice(t0, t1);
  return out;
}

/// The eager copy a read used to return.
std::vector<traj::SubTrajectory> Copied(const PartitionRead& read) {
  return std::vector<traj::SubTrajectory>(read.begin(), read.end());
}

class RefDisjointSet {
 public:
  explicit RefDisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

struct RefPiece {
  int64_t sub_chunk = 0;
  traj::SubTrajectory representative;
  std::vector<traj::SubTrajectory> members;
};

/// `QuTClustering::Query` with default `QuTParams`, as it was.
StatusOr<RefResult> RefQuery(const ReTraTree& tree, double wi, double we) {
  const QuTParams params;
  const ReTraTreeParams& tp = tree.params();
  const double stitch_d =
      params.stitch_distance > 0.0 ? params.stitch_distance : tp.d_assign;
  const double stitch_gap = params.stitch_time_gap >= 0.0
                                ? params.stitch_time_gap
                                : tp.delta * 0.01;
  RefResult result;
  std::vector<RefPiece> pieces;
  for (const SubChunk* sc : tree.SubChunksIn(wi, we)) {
    sc->mu.AssertReaderHeld();  // By the view.
    ++result.stats.sub_chunks_visited;
    const bool full = sc->start >= wi && sc->end <= we;
    if (full) {
      ++result.stats.sub_chunks_full;
    } else {
      ++result.stats.sub_chunks_partial;
    }
    const double lo = std::max(wi, sc->start);
    const double hi = std::min(we, sc->end);
    for (const auto& entry : sc->representatives) {
      RefPiece piece;
      piece.sub_chunk = sc->global_index;
      if (full) {
        piece.representative = entry->representative;
        HERMES_ASSIGN_OR_RETURN(PartitionRead read, tree.ReadMembers(*entry));
        piece.members = Copied(read);
        result.stats.members_read += piece.members.size();
      } else {
        piece.representative =
            RefTrimToWindow(entry->representative, lo, hi);
        if (piece.representative.points.size() < 2) continue;
        const geom::Mbb3D rep_box = piece.representative.Bounds();
        HERMES_ASSIGN_OR_RETURN(PartitionRead read,
                                tree.ReadMembersInWindow(*entry, lo, hi));
        std::vector<traj::SubTrajectory> members = Copied(read);
        result.stats.members_read += members.size();
        for (auto& m : members) {
          traj::SubTrajectory trimmed = RefTrimToWindow(m, lo, hi);
          if (trimmed.points.size() < 2 ||
              trimmed.Duration() < params.min_member_duration) {
            continue;
          }
          const double d = traj::ClusteringDistance(
              trimmed.points, trimmed.Bounds(), piece.representative.points,
              rep_box, tp.min_overlap_ratio, tp.d_assign);
          if (d <= tp.d_assign) {
            piece.members.push_back(std::move(trimmed));
          } else {
            ++result.stats.members_reassigned;
            result.outliers.push_back(std::move(trimmed));
          }
        }
      }
      if (!piece.members.empty()) pieces.push_back(std::move(piece));
    }
    HERMES_ASSIGN_OR_RETURN(PartitionRead read, tree.ReadOutliers(*sc));
    for (auto& o : Copied(read)) {
      traj::SubTrajectory trimmed = full ? o : RefTrimToWindow(o, lo, hi);
      if (trimmed.points.size() < 2) continue;
      result.outliers.push_back(std::move(trimmed));
    }
  }

  RefDisjointSet ds(pieces.size());
  for (size_t i = 0; i < pieces.size(); ++i) {
    for (size_t j = 0; j < pieces.size(); ++j) {
      if (i == j) continue;
      const auto& a = pieces[i].representative;
      const auto& b = pieces[j].representative;
      if (pieces[j].sub_chunk != pieces[i].sub_chunk + 1) continue;
      const double tgap = std::fabs(b.StartTime() - a.EndTime());
      if (tgap > stitch_gap + 1e-9) continue;
      const double sgap =
          geom::Distance(a.points.back().xy(), b.points.front().xy());
      if (sgap > stitch_d) continue;
      ds.Union(i, j);
      ++result.stats.stitches;
    }
  }

  std::map<size_t, RefCluster> merged;
  for (size_t i = 0; i < pieces.size(); ++i) {
    RefCluster& c = merged[ds.Find(i)];
    c.representatives.push_back(pieces[i].representative);
    for (auto& m : pieces[i].members) c.members.push_back(std::move(m));
  }
  for (auto& [root, cluster] : merged) {
    std::sort(cluster.representatives.begin(), cluster.representatives.end(),
              [](const traj::SubTrajectory& a, const traj::SubTrajectory& b) {
                return a.StartTime() < b.StartTime();
              });
    result.clusters.push_back(std::move(cluster));
  }
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const RefCluster& a, const RefCluster& b) {
              return a.StartTime() < b.StartTime();
            });
  return result;
}

/// The QUT table as `sql::MakeQutCursor` built it from a by-value answer.
std::vector<std::vector<sql::Value>> RefQutRows(const RefResult& r, double wi,
                                                double we) {
  std::vector<std::vector<sql::Value>> rows;
  for (size_t ci = 0; ci < r.clusters.size(); ++ci) {
    const RefCluster& c = r.clusters[ci];
    rows.push_back(
        {sql::Value::Int(static_cast<int64_t>(ci)),
         sql::Value::Int(static_cast<int64_t>(c.representatives.size())),
         sql::Value::Int(static_cast<int64_t>(c.members.size())),
         sql::Value::Double(c.StartTime()), sql::Value::Double(c.EndTime())});
  }
  rows.push_back({sql::Value::Str("outliers"), sql::Value::Null(),
                  sql::Value::Int(static_cast<int64_t>(r.outliers.size())),
                  sql::Value::Double(wi), sql::Value::Double(we)});
  return rows;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameSub(const traj::SubTrajectory& got,
                   const traj::SubTrajectory& want, const std::string& at) {
  ASSERT_EQ(got.id, want.id) << at;
  ASSERT_EQ(got.source_trajectory, want.source_trajectory) << at;
  ASSERT_EQ(got.object_id, want.object_id) << at;
  ASSERT_EQ(got.first_sample_index, want.first_sample_index) << at;
  ASSERT_EQ(Bits(got.mean_voting), Bits(want.mean_voting)) << at;
  ASSERT_EQ(got.points.object_id(), want.points.object_id()) << at;
  ASSERT_EQ(got.points.size(), want.points.size()) << at;
  for (size_t s = 0; s < got.points.size(); ++s) {
    ASSERT_EQ(Bits(got.points[s].x), Bits(want.points[s].x)) << at;
    ASSERT_EQ(Bits(got.points[s].y), Bits(want.points[s].y)) << at;
    ASSERT_EQ(Bits(got.points[s].t), Bits(want.points[s].t)) << at;
  }
}

/// Every representative, member and outlier, the cluster bounds, the work
/// counters (wall time aside) and the SQL table.
void ExpectSameAnswer(const QuTResult& got, const RefResult& want, double wi,
                      double we, const std::string& what) {
  ASSERT_EQ(got.clusters.size(), want.clusters.size()) << what;
  for (size_t c = 0; c < got.clusters.size(); ++c) {
    const std::string at = what + " cluster=" + std::to_string(c);
    const QuTCluster& g = got.clusters[c];
    const RefCluster& w = want.clusters[c];
    ASSERT_EQ(g.representatives.size(), w.representatives.size()) << at;
    for (size_t r = 0; r < g.representatives.size(); ++r) {
      ExpectSameSub(g.representatives[r], w.representatives[r],
                    at + " rep=" + std::to_string(r));
    }
    ASSERT_EQ(g.members.size(), w.members.size()) << at;
    for (size_t m = 0; m < g.members.size(); ++m) {
      ExpectSameSub(g.members[m], w.members[m],
                    at + " member=" + std::to_string(m));
    }
    ASSERT_EQ(Bits(g.StartTime()), Bits(w.StartTime())) << at;
    ASSERT_EQ(Bits(g.EndTime()), Bits(w.EndTime())) << at;
  }
  ASSERT_EQ(got.outliers.size(), want.outliers.size()) << what;
  for (size_t o = 0; o < got.outliers.size(); ++o) {
    ExpectSameSub(got.outliers[o], want.outliers[o],
                  what + " outlier=" + std::to_string(o));
  }
  EXPECT_EQ(got.stats.sub_chunks_visited, want.stats.sub_chunks_visited);
  EXPECT_EQ(got.stats.sub_chunks_full, want.stats.sub_chunks_full);
  EXPECT_EQ(got.stats.sub_chunks_partial, want.stats.sub_chunks_partial);
  EXPECT_EQ(got.stats.members_read, want.stats.members_read) << what;
  EXPECT_EQ(got.stats.members_reassigned, want.stats.members_reassigned);
  EXPECT_EQ(got.stats.stitches, want.stats.stitches) << what;
  auto table = sql::MakeQutCursor(got, wi, we, nullptr)->ToTable();
  ASSERT_TRUE(table.ok()) << what;
  EXPECT_EQ(table->rows, RefQutRows(want, wi, we)) << what;
}

/// Per slot, in catalog order: the LRU stamp of its resident snapshot
/// plus one, or 0 when the slot is cold.
std::vector<uint64_t> HotStamps(const ReTraTree& tree) {
  auto stamp = [](const std::shared_ptr<const HotPartition>& slot) {
    auto hot = std::atomic_load(&slot);
    return hot == nullptr ? uint64_t{0} : hot->last_access.load() + 1;
  };
  std::vector<uint64_t> stamps;
  for (const auto& [ci, chunk] : tree.chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      stamps.push_back(stamp(sc.hot_outliers));
      for (const auto& e : sc.representatives) stamps.push_back(stamp(e->hot));
    }
  }
  return stamps;
}

/// Two trees fed the same store and the same reads hold the same hot
/// tier: counters, records read, which snapshots are resident, and the
/// LRU stamp each carries.
void ExpectSameTier(const ReTraTree& got, const ReTraTree& want,
                    const std::string& what) {
  const HotTierStats g = got.hot_stats();
  const HotTierStats w = want.hot_stats();
  EXPECT_EQ(g.qut_hot_probes, w.qut_hot_probes) << what;
  EXPECT_EQ(g.qut_cold_probes, w.qut_cold_probes) << what;
  EXPECT_EQ(g.hot_promotions, w.hot_promotions) << what;
  EXPECT_EQ(g.hot_demotions, w.hot_demotions) << what;
  EXPECT_EQ(g.hot_index_bytes, w.hot_index_bytes) << what;
  EXPECT_EQ(g.hot_partitions, w.hot_partitions) << what;
  EXPECT_EQ(g.hot_pins_total, w.hot_pins_total) << what;
  EXPECT_EQ(got.stats().records_read, want.stats().records_read) << what;
  EXPECT_EQ(HotStamps(got), HotStamps(want)) << what;
}

struct OracleScenario {
  std::string name;
  traj::TrajectoryStore store;
  ReTraTreeParams params;
};

ReTraTreeParams ScenarioTreeParams(const traj::TrajectoryStore& store,
                                   double sigma, double epsilon) {
  const auto [t0, t1] = store.TimeDomain();
  ReTraTreeParams p;
  p.tau = (t1 - t0) / 2;
  p.delta = p.tau / 4;
  p.t_align = p.delta;
  p.d_assign = epsilon;
  p.gamma = 6;
  p.origin = t0;
  p.s2t.SetSigma(sigma).SetEpsilon(epsilon);
  p.s2t.segmentation.min_part_length = 3;
  p.s2t.voting.min_overlap_ratio = 0.3;
  p.s2t.sampling.min_overlap_ratio = 0.3;
  p.s2t.clustering.min_overlap_ratio = 0.3;
  return p;
}

void MakeOracleScenarios(std::vector<OracleScenario>* out) {
  {
    datagen::AircraftScenarioParams p =
        datagen::AircraftScenarioParams::Default();
    p.num_flights = 16;
    p.sample_dt = 40.0;
    p.seed = 12;
    traj::TrajectoryStore store =
        std::move(datagen::GenerateAircraftScenario(p)->store);
    ReTraTreeParams tp = ScenarioTreeParams(store, 1500.0, 3000.0);
    out->push_back({"aircraft", std::move(store), tp});
  }
  {
    datagen::MaritimeScenarioParams p;
    p.num_ships = 14;
    p.sample_dt = 300.0;
    p.seed = 13;
    traj::TrajectoryStore store =
        std::move(datagen::GenerateMaritimeScenario(p)->store);
    ReTraTreeParams tp = ScenarioTreeParams(store, 800.0, 1600.0);
    out->push_back({"maritime", std::move(store), tp});
  }
  {
    datagen::UrbanScenarioParams p;
    p.num_vehicles = 16;
    p.sample_dt = 20.0;
    p.seed = 14;
    traj::TrajectoryStore store =
        std::move(datagen::GenerateUrbanScenario(p)->store);
    ReTraTreeParams tp = ScenarioTreeParams(store, 120.0, 240.0);
    out->push_back({"urban", std::move(store), tp});
  }
  {
    // 24 lanes 5 km apart, all from t = 0: more chains start together
    // than the sort's insertion-sort cut-off, so the unstable sort's
    // permutation shows. Lane k runs through sub-chunk k % 4, so a
    // chain's union-find root (its last piece) and its first piece sit
    // in different places in piece order. One more lane ends at t = 100,
    // where two groups 100 m apart begin; both stitch onto its piece, so
    // the order of the unions decides that chain's root.
    traj::TrajectoryStore store;
    for (int lane = 0; lane < 24; ++lane) {
      AddLane(&store, lane * 10, 3, lane * 5000.0, 0,
              95.0 + 100.0 * (lane % 4));
      if (lane != 12) continue;
      // The fork, at y = 62.5 km: each later group starts within the
      // stitch distance of the first group's end, and they stay farther
      // apart than d_assign, so they form two clusters.
      for (int k = 0; k < 9; ++k) {
        const double y = 62500.0 + (k < 3 ? k - 1.0
                                    : k < 6 ? 50.0 + 5.0 * (k - 3)
                                            : -50.0 - 5.0 * (k - 6));
        const double from = k < 3 ? 0.0 : 100.0;
        const double to = k < 3 ? 100.0 : 395.0;
        traj::Trajectory t(500 + k);
        for (double now = from; now <= to + 1e-9; now += 10.0) {
          ASSERT_TRUE(t.Append({now * 10.0, y, now}).ok());
        }
        ASSERT_TRUE(store.Add(std::move(t)).ok());
      }
    }
    out->push_back({"equal_starts", std::move(store), TreeParams()});
  }
  {
    // A lane of 6 with 10 objects zig-zagging across it, each sample
    // alternating sides by 1.1 to 2.5 times d_assign: the separation
    // crosses 0 between samples, so its chord is about twice its average,
    // and trimmed averages fall on both sides of d_assign.
    traj::TrajectoryStore store;
    AddLane(&store, 0, 6, 0.0, 0, 395);
    const ReTraTreeParams tp = TreeParams();
    for (int k = 0; k < 10; ++k) {
      const double amplitude = tp.d_assign * (1.1 + 0.15 * k);
      traj::Trajectory t(100 + k);
      int side = k % 2 == 0 ? 1 : -1;
      for (double now = 0; now <= 395 + 1e-9; now += 10.0, side = -side) {
        ASSERT_TRUE(t.Append({now * 10.0, 25.0 + side * amplitude, now}).ok());
      }
      ASSERT_TRUE(store.Add(std::move(t)).ok());
    }
    out->push_back({"zigzag", std::move(store), tp});
  }
}

TEST(QuTOracleTest, InPlaceAssemblyMatchesTheEagerOne) {
  std::vector<OracleScenario> scenarios;
  MakeOracleScenarios(&scenarios);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  for (OracleScenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    // `got` answers with Query, `want` with the frozen assembly; both
    // trees see the same reads in the same order.
    auto env = storage::Env::NewMemEnv();
    auto got = std::move(ReTraTree::Open(env.get(), "got", sc.params)).value();
    auto want =
        std::move(ReTraTree::Open(env.get(), "want", sc.params)).value();
    ASSERT_TRUE(got->InsertStore(sc.store).ok());
    ASSERT_TRUE(want->InsertStore(sc.store).ok());
    const QuTClustering qut(got.get());
    const auto [t0, t1] = sc.store.TimeDomain();
    const double span = t1 - t0;
    Rng rng(2024);

    auto check = [&](double wi, double we, const std::string& at) {
      {
        auto g = qut.Query(wi, we);
        auto w = RefQuery(*want, wi, we);
        ASSERT_TRUE(g.ok()) << at << " " << g.status().ToString();
        ASSERT_TRUE(w.ok()) << at << " " << w.status().ToString();
        ExpectSameAnswer(*g, *w, wi, we, at);
      }
      // The in-place answer is released, so its pins are too.
      ExpectSameTier(*got, *want, at);
    };

    if (sc.name == "equal_starts") {
      // The case has to hold more equal starts than the cut-off.
      auto w = RefQuery(*want, 0, 400);
      ASSERT_TRUE(w.ok());
      size_t at_zero = 0;
      for (const auto& c : w->clusters) at_zero += c.StartTime() == 0.0;
      EXPECT_GT(at_zero, 16u);
      ASSERT_TRUE(qut.Query(0, 400).ok());  // The same reads on `got`.
    }

    // Seeded 1/5/25/100 % windows, then the whole domain.
    auto sweep = [&](size_t budget, const std::string& label) {
      got->SetHotIndexBudget(budget);
      want->SetHotIndexBudget(budget);
      for (double fraction : {0.01, 0.05, 0.25, 1.0}) {
        for (int k = 0; k < 4; ++k) {
          const double wi = t0 + rng.Uniform(0.0, span * (1.0 - fraction));
          const double we = wi + span * fraction;
          check(wi, we, label + " w=" + std::to_string(fraction) + " k=" +
                            std::to_string(k));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      check(t0, t1 + 1, label + " whole");
    };
    sweep(kDefaultHotIndexBudget, "full");
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // A quarter of what the sweep promoted: the LRU demotes as it reads.
    const size_t quarter =
        std::max<size_t>(1, want->hot_stats().hot_index_bytes / 4);
    sweep(0, "zero");
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    sweep(quarter, "quarter");
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(want->hot_stats().hot_demotions, 0u);
  }
}

// Readers racing through a thrashing tier: 4 threads sweep the oracle
// windows over one tree at a quarter of its promoted size, so reads
// promote, evict and probe snapshots other threads just published or
// demoted. Every answer equals the budget-0 answer.
TEST(QuTOracleTest, ConcurrentReadersOfAThrashingTierAnswerLikeCold) {
  std::vector<OracleScenario> scenarios;
  MakeOracleScenarios(&scenarios);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const OracleScenario& sc = scenarios.front();
  auto env = storage::Env::NewMemEnv();
  auto tree = std::move(ReTraTree::Open(env.get(), "t", sc.params)).value();
  ASSERT_TRUE(tree->InsertStore(sc.store).ok());
  const QuTClustering qut(tree.get());
  const auto [t0, t1] = sc.store.TimeDomain();
  const double span = t1 - t0;
  Rng rng(2024);
  std::vector<std::pair<double, double>> windows;
  for (double fraction : {0.01, 0.05, 0.25, 1.0}) {
    for (int k = 0; k < 4; ++k) {
      const double wi = t0 + rng.Uniform(0.0, span * (1.0 - fraction));
      windows.emplace_back(wi, wi + span * fraction);
    }
  }
  windows.emplace_back(t0, t1 + 1);

  tree->SetHotIndexBudget(0);
  std::vector<RefResult> cold;
  for (const auto& [wi, we] : windows) {
    auto w = RefQuery(*tree, wi, we);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    cold.push_back(std::move(w).value());
  }
  tree->SetHotIndexBudget(kDefaultHotIndexBudget);
  for (const auto& [wi, we] : windows) ASSERT_TRUE(qut.Query(wi, we).ok());
  tree->SetHotIndexBudget(
      std::max<size_t>(1, tree->hot_stats().hot_index_bytes / 4));
  const uint64_t demotions = tree->hot_stats().hot_demotions;

  constexpr size_t kThreads = 4;
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kThreads; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0; i < 2 * windows.size(); ++i) {
        const size_t k = (i + r * 5) % windows.size();
        const auto [wi, we] = windows[k];
        auto g = qut.Query(wi, we);
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        ExpectSameAnswer(*g, cold[k], wi, we,
                         "reader " + std::to_string(r) + " window " +
                             std::to_string(k));
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_GT(tree->hot_stats().hot_demotions, demotions);
}

// A boundary member's re-check needs only a yes/no answer, so a distance
// bound decides most of them and the integral runs only near the limit.
// Over the oracle scenarios' windows both happen; the oracle above holds
// every decision to the exact comparison.
TEST(QuTOracleTest, BoundaryChecksUseTheBoundsAndTheIntegral) {
  std::vector<OracleScenario> scenarios;
  MakeOracleScenarios(&scenarios);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  size_t rechecked = 0, exact = 0;
  for (OracleScenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    auto env = storage::Env::NewMemEnv();
    auto tree = std::move(ReTraTree::Open(env.get(), "t", sc.params)).value();
    ASSERT_TRUE(tree->InsertStore(sc.store).ok());
    const QuTClustering qut(tree.get());
    const auto [t0, t1] = sc.store.TimeDomain();
    const double span = t1 - t0;
    Rng rng(2024);
    for (double fraction : {0.01, 0.05, 0.25, 1.0}) {
      for (int k = 0; k < 4; ++k) {
        const double wi = t0 + rng.Uniform(0.0, span * (1.0 - fraction));
        auto result = qut.Query(wi, wi + span * fraction);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_LE(result->stats.exact_distances,
                  result->stats.members_rechecked);
        EXPECT_LE(result->stats.members_rechecked,
                  result->stats.members_read);
        rechecked += result->stats.members_rechecked;
        exact += result->stats.exact_distances;
      }
    }
  }
  EXPECT_GT(exact, 0u);
  EXPECT_GT(rechecked - exact, 0u);
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
