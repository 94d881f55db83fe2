// core::QutTreeSlot: the one QUT-tree lifecycle, lock and read path the
// embedded session, the service server and the shard coordinator share.
// Rebuild on new parameters or after Drop, otherwise catch up with
// InsertBatch — and a caught-up tree answers bit-identically to one built
// over the whole store. Retired trees leave no files behind, and storage
// that refuses writes yields a Status, never an abort.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "core/qut_tree_slot.h"
#include "datagen/maritime.h"
#include "sql/query_functions.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "traj/trajectory_store.h"

namespace hermes::core {
namespace {

traj::TrajectoryStore MakeShips(size_t n) {
  datagen::MaritimeScenarioParams p;
  p.num_ships = n;
  p.sample_dt = 300.0;
  p.seed = 13;
  return std::move(datagen::GenerateMaritimeScenario(p)->store);
}

/// (tau, delta, t, d, gamma) sized to the store's time domain so that
/// the ships form clusters.
std::vector<double> TreeParams(const traj::TrajectoryStore& store) {
  const auto [t0, t1] = store.TimeDomain();
  const double tau = (t1 - t0) / 8;
  return {tau, tau / 4, tau / 4, 1600, 4};
}

/// Four convoys of 6 co-moving objects along x, 5 km apart, sampled
/// every 10 s up to t = 795; object k of a convoy starts at 40 + 3k s.
/// Unlike `MakeShips`, every sub-chunk of this data holds clusters of
/// several members (the extension test below asserts it).
traj::TrajectoryStore MakeConvoys() {
  traj::TrajectoryStore store;
  for (int convoy = 0; convoy < 4; ++convoy) {
    for (int k = 0; k < 6; ++k) {
      traj::Trajectory t(convoy * 100 + k);
      for (double now = 40.0 + 3.0 * k; now <= 795 + 1e-9; now += 10.0) {
        EXPECT_TRUE(t.Append({now * 10.0, convoy * 5000.0 + k * 10.0, now})
                        .ok());
      }
      EXPECT_TRUE(store.Add(std::move(t)).ok());
    }
  }
  return store;
}

/// The convoys' (tau, delta, t, d, gamma): 8 sub-chunks of 100 s over
/// `MakeConvoys`, each holding clusters of several members.
std::vector<double> ConvoyParams() { return {400, 100, 30, 80, 8}; }

/// The QUT table over the whole time domain of `store`, read from the
/// slot's current tree.
sql::Table Qut(const QutTreeSlot& slot, const traj::TrajectoryStore& store) {
  const auto [t0, t1] = store.TimeDomain();
  auto result = QuTClustering(slot.tree()).Query(t0, t1 + 1);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return sql::Table{};
  auto table = sql::MakeQutCursor(*result, t0, t1 + 1, nullptr)->ToTable();
  EXPECT_TRUE(table.ok());
  return table.ok() ? std::move(*table) : sql::Table{};
}

size_t FilesIn(storage::Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  return names.ok() ? names->size() : 0;
}

/// Total bytes of the files in `dir`.
uint64_t BytesIn(storage::Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return 0;
  uint64_t bytes = 0;
  for (const std::string& name : *names) {
    auto file = env->NewRWFile(dir + "/" + name);
    EXPECT_TRUE(file.ok());
    if (file.ok()) bytes += (*file)->Size().ValueOr(0);
  }
  return bytes;
}

/// Clusters in the answer of `slot`'s tree over the whole time domain of
/// `store`.
size_t Clusters(const QutTreeSlot& slot, const traj::TrajectoryStore& store) {
  const auto [t0, t1] = store.TimeDomain();
  auto result = QuTClustering(slot.tree()).Query(t0, t1 + 1);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->clusters.size() : 0;
}

/// Grows a slot over `all` in appends that end at each of `steps`,
/// refreshing after each (the first builds, the rest catch up), and
/// expects it to answer like a slot built over `all` at once. `clusters`
/// gets the clusters of that answer.
void ExpectCatchUpAnswersLikeARebuild(const traj::TrajectoryStore& all,
                                      const std::vector<double>& params,
                                      const std::vector<size_t>& steps,
                                      size_t* clusters) {
  auto env = storage::Env::NewMemEnv();

  QutTreeSlot grown(env.get(), "grown_");
  traj::TrajectoryStore store;
  std::vector<QutTreeWork> work;
  for (size_t k : steps) {
    for (traj::TrajectoryId i = store.NumTrajectories(); i < k; ++i) {
      ASSERT_TRUE(store.Add(all.Get(i)).ok());
    }
    EXPECT_FALSE(grown.Fresh(params, store.NumTrajectories()));
    auto w = grown.Refresh(params, store, nullptr, kDefaultHotIndexBudget);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    work.push_back(*w);
    EXPECT_TRUE(grown.Fresh(params, store.NumTrajectories()));
  }
  EXPECT_EQ(work, (std::vector<QutTreeWork>{QutTreeWork::kRebuilt,
                                            QutTreeWork::kCaughtUp,
                                            QutTreeWork::kCaughtUp}));
  auto again = grown.Refresh(params, store, nullptr, kDefaultHotIndexBudget);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, QutTreeWork::kNone);

  QutTreeSlot whole(env.get(), "whole_");
  ASSERT_TRUE(
      whole.Refresh(params, all, nullptr, kDefaultHotIndexBudget).ok());
  const sql::Table want = Qut(whole, all);
  EXPECT_GE(want.rows.size(), 2u);  // At least one cluster + outliers.
  EXPECT_EQ(Qut(grown, store).rows, want.rows);
  *clusters = Clusters(whole, all);
}

TEST(QutTreeSlotTest, CatchUpAnswersLikeARebuildOverTheWholeStore) {
  size_t clusters = 0;
  {
    SCOPED_TRACE("ships");
    const traj::TrajectoryStore ships = MakeShips(12);
    ExpectCatchUpAnswersLikeARebuild(ships, TreeParams(ships), {4, 9, 12},
                                     &clusters);
  }
  {
    // Appends that split convoys, so catch-up adds members to clusters
    // the tree already holds and re-clusters new lanes' outliers.
    SCOPED_TRACE("convoys");
    ExpectCatchUpAnswersLikeARebuild(MakeConvoys(), ConvoyParams(),
                                     {4, 15, 24}, &clusters);
    EXPECT_GE(clusters, 4u);  // At least one per convoy.
  }
}

TEST(QutTreeSlotTest, NewParamsAndDropRetireTheOldTreeFiles) {
  const traj::TrajectoryStore ships = MakeShips(6);
  std::vector<double> params = TreeParams(ships);
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  ASSERT_TRUE(slot.Refresh(params, ships, nullptr, 0).ok());
  EXPECT_GT(FilesIn(env.get(), "t_0"), 0u);

  params[4] = 8;  // New gamma: a rebuild in the next directory.
  auto w = slot.Refresh(params, ships, nullptr, 0);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, QutTreeWork::kRebuilt);
  EXPECT_EQ(FilesIn(env.get(), "t_0"), 0u);
  EXPECT_GT(FilesIn(env.get(), "t_1"), 0u);

  slot.Drop();
  EXPECT_EQ(slot.tree(), nullptr);
  EXPECT_FALSE(slot.Fresh(params, ships.NumTrajectories()));
  EXPECT_EQ(FilesIn(env.get(), "t_1"), 0u);
  w = slot.Refresh(params, ships, nullptr, 0);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, QutTreeWork::kRebuilt);

  {
    QutTreeSlot gone(env.get(), "gone_");
    ASSERT_TRUE(gone.Refresh(params, ships, nullptr, 0).ok());
    EXPECT_GT(FilesIn(env.get(), "gone_0"), 0u);
  }
  EXPECT_EQ(FilesIn(env.get(), "gone_0"), 0u);  // Destruction drops too.
}

// The cold tier's frames are its data pages and nothing more: no file
// keeps a frame for its meta page, and nothing reaches the env before a
// flush. After the flush each file holds one meta page plus exactly the
// data pages the gauge counted (at this size nothing was evicted).
TEST(QutTreeSlotTest, ColdResidentBytesAreTheDataPages) {
  const traj::TrajectoryStore ships = MakeShips(12);
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  ASSERT_TRUE(slot.Refresh(TreeParams(ships), ships, nullptr,
                           kDefaultHotIndexBudget)
                  .ok());
  const uint64_t resident = slot.hot_stats().cold_resident_bytes;
  EXPECT_GT(resident, 0u);
  EXPECT_EQ(resident % storage::kPageSize, 0u);
  EXPECT_EQ(BytesIn(env.get(), "t_0"), 0u);

  ASSERT_TRUE(slot.tree()->Flush().ok());
  const size_t files = FilesIn(env.get(), "t_0");
  EXPECT_GT(files, 1u);
  EXPECT_EQ(BytesIn(env.get(), "t_0"), resident + files * storage::kPageSize);
  EXPECT_EQ(slot.hot_stats().cold_resident_bytes, resident);
}

TEST(QutTreeSlotTest, CatchUpWithoutATreeDoesNothing) {
  const traj::TrajectoryStore ships = MakeShips(4);
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  auto w = slot.CatchUp(ships, nullptr);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, QutTreeWork::kNone);
  EXPECT_EQ(slot.tree(), nullptr);
}

TEST(QutTreeSlotTest, OneSampleTrajectoriesAreLeftOut) {
  const traj::TrajectoryStore ships = MakeShips(6);
  const std::vector<double> params = TreeParams(ships);
  traj::TrajectoryStore with_points;
  for (traj::TrajectoryId i = 0; i < ships.NumTrajectories(); ++i) {
    ASSERT_TRUE(with_points.Add(ships.Get(i)).ok());
    if (i % 2 == 0) {
      traj::Trajectory point(900 + i);
      ASSERT_TRUE(point.Append(ships.Get(i).samples()[0]).ok());
      ASSERT_TRUE(with_points.Add(std::move(point)).ok());
    }
  }
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "p_");
  ASSERT_TRUE(slot.Refresh(params, with_points, nullptr, 0).ok());
  QutTreeSlot plain(env.get(), "q_");
  ASSERT_TRUE(plain.Refresh(params, ships, nullptr, 0).ok());
  EXPECT_EQ(Qut(slot, ships).rows, Qut(plain, ships).rows);
}

/// The hot-budget check below over `store`; `clusters` gets the
/// clusters of its answer.
void ExpectNewHotBudgetAppliesWithoutRebuilding(
    const traj::TrajectoryStore& store, const std::vector<double>& params,
    size_t* clusters) {
  const auto [t0, t1] = store.TimeDomain();
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  EXPECT_EQ(slot.hot_stats().qut_cold_probes, 0u);  // No tree: zeros.

  QutTreeWork work = QutTreeWork::kNone;
  auto hot = slot.Query(params, store, nullptr, kDefaultHotIndexBudget, t0,
                        t1 + 1, nullptr, &work);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  EXPECT_EQ(work, QutTreeWork::kRebuilt);
  EXPECT_GT(slot.hot_stats().hot_index_bytes, 0u);

  auto cold = slot.Query(params, store, nullptr, 0, t0, t1 + 1, nullptr,
                         &work);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(work, QutTreeWork::kNone);
  EXPECT_EQ(slot.hot_stats().hot_index_bytes, 0u);
  const uint64_t hot_probes = slot.hot_stats().qut_hot_probes;
  ASSERT_TRUE(
      slot.Query(params, store, nullptr, 0, t0, t1 + 1, nullptr, &work).ok());
  EXPECT_EQ(slot.hot_stats().qut_hot_probes, hot_probes);
  EXPECT_EQ(sql::MakeQutCursor(*cold, t0, t1 + 1, nullptr)->ToTable()->rows,
            sql::MakeQutCursor(*hot, t0, t1 + 1, nullptr)->ToTable()->rows);
  *clusters = hot->clusters.size();
}

// The hot-tier budget is part of freshness: a query with a new budget
// applies it to the live tree (0: demote everything, probe cold) without
// rebuilding, and answers the same.
TEST(QutTreeSlotTest, QueryAppliesANewHotBudgetWithoutRebuilding) {
  size_t clusters = 0;
  {
    SCOPED_TRACE("ships");
    const traj::TrajectoryStore ships = MakeShips(6);
    ExpectNewHotBudgetAppliesWithoutRebuilding(ships, TreeParams(ships),
                                               &clusters);
  }
  {
    SCOPED_TRACE("convoys");
    ExpectNewHotBudgetAppliesWithoutRebuilding(MakeConvoys(), ConvoyParams(),
                                               &clusters);
    EXPECT_GE(clusters, 4u);
  }
}

// A tree is a cache: when the env refuses every write, building and
// dropping one never aborts. Closing a tree writes nothing, so the
// refusal surfaces only on a path that still writes (an explicit Flush),
// as a Status. Destroying a built slot moves not one byte even when
// writes are allowed. Once writes work again the next refresh rebuilds,
// and answers exactly like a slot that never saw a failure.
TEST(QutTreeSlotTest, RefusedWritesNeverAbortAndTheNextRefreshRebuilds) {
  const traj::TrajectoryStore ships = MakeShips(12);
  const std::vector<double> params = TreeParams(ships);
  auto base = storage::Env::NewMemEnv();
  storage::FaultInjectionEnv env(base.get());
  env.set_write_budget(0);

  QutTreeSlot slot(&env, "t_");
  // At this size no page is evicted, and the outlier partitions that
  // re-clustering drops close unwritten: the build meets no failpoint.
  auto built = slot.Refresh(params, ships, nullptr, kDefaultHotIndexBudget);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_NE(slot.tree(), nullptr);
  EXPECT_EQ(env.writes_failed(), 0u);
  EXPECT_TRUE(slot.tree()->Flush().IsIOError());
  EXPECT_GT(env.writes_failed(), 0u);
  slot.Drop();

  env.set_write_budget(-1);
  uint64_t written = 0;
  {
    QutTreeSlot doomed(&env, "doomed_");
    ASSERT_TRUE(
        doomed.Refresh(params, ships, nullptr, kDefaultHotIndexBudget).ok());
    written = env.bytes_written();
  }  // Destroyed holding the tree it built.
  EXPECT_EQ(env.bytes_written(), written);

  env.set_write_budget(-1);
  auto w = slot.Refresh(params, ships, nullptr, kDefaultHotIndexBudget);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(*w, QutTreeWork::kRebuilt);
  QutTreeSlot fresh(base.get(), "fresh_");
  ASSERT_TRUE(
      fresh.Refresh(params, ships, nullptr, kDefaultHotIndexBudget).ok());
  EXPECT_EQ(Qut(slot, ships).rows, Qut(fresh, ships).rows);
}

/// A QUT answer as bytes: per cluster its bounds, then each
/// representative and member record, then each outlier record.
std::vector<std::string> DeepCopy(const QuTResult& r) {
  std::vector<std::string> out;
  for (const QuTCluster& c : r.clusters) {
    out.push_back(std::to_string(c.representatives.size()) + " " +
                  std::to_string(c.members.size()));
    std::string bounds;
    PutDouble(&bounds, c.StartTime());
    PutDouble(&bounds, c.EndTime());
    out.push_back(bounds);
    for (const auto& rep : c.representatives) {
      out.push_back(EncodeSubTrajectory(rep));
    }
    for (const auto& m : c.members) out.push_back(EncodeSubTrajectory(m));
  }
  for (const auto& o : r.outliers) out.push_back(EncodeSubTrajectory(o));
  return out;
}

/// The held-answer check below: the first `first` trajectories of `all`
/// build the tree, and the rest arrive by catch-up while an answer is
/// held. `clusters` gets the clusters of the held answer.
void ExpectAHeldAnswerOutlivesReclusteringDemotionAndDrop(
    const traj::TrajectoryStore& all, const std::vector<double>& params,
    size_t first, size_t* clusters) {
  const auto [t0, t1] = all.TimeDomain();
  traj::TrajectoryStore store;
  for (traj::TrajectoryId i = 0; i < first; ++i) {
    ASSERT_TRUE(store.Add(all.Get(i)).ok());
  }
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  // The first query builds and promotes; the second is served hot.
  ASSERT_TRUE(slot.Query(params, store, nullptr, kDefaultHotIndexBudget, t0,
                         t1 + 1)
                  .ok());
  const uint64_t hot_probes = slot.hot_stats().qut_hot_probes;
  auto answer = slot.Query(params, store, nullptr, kDefaultHotIndexBudget, t0,
                           t1 + 1);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(slot.hot_stats().qut_hot_probes, hot_probes);
  auto held = std::make_unique<QuTResult>(std::move(answer).value());
  *clusters = held->clusters.size();
  const std::vector<std::string> want = DeepCopy(*held);
  ASSERT_GT(held->TotalMembers(), 0u);
  const std::shared_ptr<traj::EpochPinRegistry> pins =
      slot.tree()->hot_pin_registry();
  const uint64_t s2t_runs = slot.tree()->stats().s2t_runs;

  // Ingest the rest: catching up re-clusters outlier buffers.
  for (traj::TrajectoryId i = first; i < all.NumTrajectories(); ++i) {
    ASSERT_TRUE(store.Add(all.Get(i)).ok());
  }
  auto w = slot.Refresh(params, store, nullptr, kDefaultHotIndexBudget);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(*w, QutTreeWork::kCaughtUp);
  EXPECT_GT(slot.tree()->stats().s2t_runs, s2t_runs);

  // Budget 0 demotes every snapshot; the held ones stay alive.
  ASSERT_TRUE(slot.Refresh(params, store, nullptr, 0).ok());
  EXPECT_EQ(slot.hot_stats().hot_index_bytes, 0u);
  EXPECT_GT(slot.hot_stats().hot_partitions, 0u);

  slot.Drop();
  EXPECT_EQ(slot.tree(), nullptr);
  EXPECT_GT(pins->live.load(), 0u);
  EXPECT_EQ(DeepCopy(*held), want);

  held.reset();
  EXPECT_EQ(pins->live.load(), 0u);
}

// An answer reads the tree in place, so it keeps alive what it read: a
// held result pins its hot snapshots (they count in hot_partitions until
// it is released) and stays intact while its tree re-clusters, demotes
// everything and is dropped.
TEST(QutTreeSlotTest, AHeldAnswerOutlivesReclusteringDemotionAndDrop) {
  size_t clusters = 0;
  {
    SCOPED_TRACE("ships");
    const traj::TrajectoryStore ships = MakeShips(12);
    ExpectAHeldAnswerOutlivesReclusteringDemotionAndDrop(
        ships, TreeParams(ships), 6, &clusters);
  }
  {
    // Two convoys held; the other two arrive by catch-up.
    SCOPED_TRACE("convoys");
    ExpectAHeldAnswerOutlivesReclusteringDemotionAndDrop(
        MakeConvoys(), ConvoyParams(), 12, &clusters);
    EXPECT_GE(clusters, 2u);
  }
}

/// Member count of each resident member snapshot, by partition.
std::map<std::string, size_t> HotMemberCounts(const ReTraTree& tree) {
  std::map<std::string, size_t> counts;
  for (const auto& [ci, chunk] : tree.chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& e : sc.representatives) {
        if (auto hot = std::atomic_load(&e->hot)) {
          counts[e->partition_name] = hot->members.size();
        }
      }
    }
  }
  return counts;
}

/// Two lanes of 8 co-moving objects along x, 5 km apart, sampled every
/// 10 s up to t = 795. Object k of a lane starts at 40 + 3k s, so the
/// members of the first sub-chunk start inside it. A lone object far off
/// spans all of [0, 795].
traj::TrajectoryStore MakeLanes() {
  traj::TrajectoryStore store;
  auto add = [&](traj::ObjectId id, double y, double from) {
    traj::Trajectory t(id);
    for (double now = from; now <= 795 + 1e-9; now += 10.0) {
      EXPECT_TRUE(t.Append({now * 10.0, y, now}).ok());
    }
    EXPECT_TRUE(store.Add(std::move(t)).ok());
  };
  for (int lane = 0; lane < 2; ++lane) {
    for (int k = 0; k < 8; ++k) {
      add(lane * 100 + k, lane * 5000.0 + k * 10.0, 40.0 + 3.0 * k);
    }
  }
  add(900, 50000.0, 0.0);
  return store;
}

// A hot snapshot records its members' span, and each copy-on-write
// extension carries it forward. After catch-up appends members to hot
// partitions, answers read from the extended snapshots, cluster bounds
// included, equal the same windows decoded cold.
TEST(QutTreeSlotTest, ExtendedSnapshotsAnswerLikeAColdDecode) {
  traj::TrajectoryStore store = MakeLanes();
  const std::vector<double> params = {400, 100, 30, 80, 8};
  const auto [t0, t1] = store.TimeDomain();
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  // Builds the tree and promotes every partition it reads.
  ASSERT_TRUE(slot.Query(params, store, nullptr, kDefaultHotIndexBudget, t0,
                         t1 + 1)
                  .ok());
  const std::map<std::string, size_t> before = HotMemberCounts(*slot.tree());
  ASSERT_FALSE(before.empty());

  // For each hot partition inside the window whose earliest member starts
  // after its sub-chunk does, a copy of that member 5 m north that starts
  // earlier, still inside the sub-chunk: it joins the partition and
  // starts its cluster piece.
  std::vector<double> new_starts;
  for (const auto& [ci, chunk] : slot.tree()->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      if (sc.start < t0 || sc.end > t1) continue;
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& e : sc.representatives) {
        auto snapshot = std::atomic_load(&e->hot);
        if (snapshot == nullptr || snapshot->members.empty()) continue;
        const traj::SubTrajectory* first = &snapshot->members[0];
        for (const auto& m : snapshot->members) {
          if (m.StartTime() < first->StartTime()) first = &m;
        }
        const auto& pts = first->points.samples();
        const double lead = std::min(60.0, (pts[0].t - sc.start) / 2);
        if (pts.size() < 2 || !(lead > 1.0)) continue;
        // Back along the first segment's velocity.
        const double back = lead / (pts[1].t - pts[0].t);
        std::vector<geom::Point3D> copy = {
            {pts[0].x - (pts[1].x - pts[0].x) * back,
             pts[0].y + 5.0 - (pts[1].y - pts[0].y) * back, pts[0].t - lead}};
        for (const auto& p : pts) copy.push_back({p.x, p.y + 5.0, p.t});
        new_starts.push_back(copy[0].t);
        ASSERT_TRUE(store
                        .Add(traj::Trajectory(
                            static_cast<traj::ObjectId>(1000 + new_starts.size()),
                            std::move(copy)))
                        .ok());
      }
    }
  }
  ASSERT_FALSE(new_starts.empty());
  auto w = slot.Refresh(params, store, nullptr, kDefaultHotIndexBudget);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_EQ(*w, QutTreeWork::kCaughtUp);
  size_t extended = 0;
  for (const auto& [name, n] : HotMemberCounts(*slot.tree())) {
    auto it = before.find(name);
    extended += it != before.end() && n > it->second;
  }
  ASSERT_GT(extended, 0u);

  const double span = t1 - t0;
  const std::vector<std::pair<double, double>> windows = {
      {t0, t1 + 1},
      {t0 + 0.1 * span, t0 + 0.9 * span},
      {t0 + 0.3 * span, t0 + 0.55 * span}};
  // Every hot answer first: the budget-0 queries demote the tier.
  std::vector<std::vector<std::string>> hot;
  for (const auto& [wi, we] : windows) {
    const uint64_t hot_probes = slot.hot_stats().qut_hot_probes;
    auto answer = slot.Query(params, store, nullptr, kDefaultHotIndexBudget,
                             wi, we);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_GT(slot.hot_stats().qut_hot_probes, hot_probes);
    EXPECT_FALSE(answer->clusters.empty());
    if (wi == t0) {
      // The copies start clusters, so the bounds read their start.
      size_t started = 0;
      for (const QuTCluster& c : answer->clusters) {
        started += std::count(new_starts.begin(), new_starts.end(),
                              c.StartTime());
      }
      EXPECT_GT(started, 0u);
    }
    hot.push_back(DeepCopy(*answer));
  }
  for (size_t k = 0; k < windows.size(); ++k) {
    auto cold = slot.Query(params, store, nullptr, 0, windows[k].first,
                           windows[k].second);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(DeepCopy(*cold), hot[k]) << "window " << k;
  }
  EXPECT_EQ(slot.hot_stats().hot_index_bytes, 0u);
}

// Catch-up appends to member snapshots of clustered data: three more
// objects join each convoy, every hot partition they join is extended in
// place, and windows whose ends cut those partitions read the extended
// snapshots hot. Every answer equals the same window decoded cold.
TEST(QutTreeSlotTest, ExtendedClusterSnapshotsAnswerLikeAColdDecode) {
  traj::TrajectoryStore store = MakeConvoys();
  const std::vector<double> params = {400, 100, 30, 80, 8};
  const auto [t0, t1] = store.TimeDomain();
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  ASSERT_TRUE(slot.Query(params, store, nullptr, kDefaultHotIndexBudget, t0,
                         t1 + 1)
                  .ok());
  size_t clustered = 0;
  for (const auto& [ci, chunk] : slot.tree()->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& e : sc.representatives) {
        clustered += e->member_count >= 2;
      }
    }
  }
  // At least one cluster per convoy in each of the 8 sub-chunks.
  EXPECT_GE(clustered, 32u);
  const std::map<std::string, size_t> before = HotMemberCounts(*slot.tree());

  for (int convoy = 0; convoy < 4; ++convoy) {
    for (int j = 0; j < 3; ++j) {
      traj::Trajectory t(1000 + convoy * 10 + j);
      for (double now = 0; now <= 795 + 1e-9; now += 10.0) {
        ASSERT_TRUE(
            t.Append({now * 10.0, convoy * 5000.0 + 5.0 + j * 10.0, now})
                .ok());
      }
      ASSERT_TRUE(store.Add(std::move(t)).ok());
    }
  }
  auto w = slot.Refresh(params, store, nullptr, kDefaultHotIndexBudget);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_EQ(*w, QutTreeWork::kCaughtUp);

  // The extended partitions, and a hot window probe of each that returns
  // an appended member.
  std::vector<std::pair<double, double>> extended_sub_chunks;
  // Read through the tree, not the slot: the slot's lock goes before a
  // sub-chunk's.
  const ReTraTree* tree = slot.tree();
  for (const auto& [ci, chunk] : tree->chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& e : sc.representatives) {
        auto snapshot = std::atomic_load(&e->hot);
        auto it = before.find(e->partition_name);
        if (snapshot == nullptr || it == before.end() ||
            snapshot->members.size() <= it->second) {
          continue;
        }
        ASSERT_EQ(snapshot->boxes.size(), snapshot->members.size());
        extended_sub_chunks.emplace_back(sc.start, sc.end);
        const HotTierStats probes = tree->hot_stats();
        auto read =
            tree->ReadMembersInWindow(*e, sc.start + 30, sc.end - 30);
        ASSERT_TRUE(read.ok());
        EXPECT_EQ(tree->hot_stats().qut_hot_probes, probes.qut_hot_probes + 1);
        EXPECT_EQ(tree->hot_stats().qut_cold_probes, probes.qut_cold_probes);
        size_t appended = 0;
        for (const auto& m : *read) appended += m.object_id >= 1000;
        EXPECT_GT(appended, 0u) << e->partition_name;
      }
    }
  }
  EXPECT_GE(extended_sub_chunks.size(), 24u);

  // Each window's ends fall inside sub-chunks with extended partitions.
  const std::vector<std::pair<double, double>> windows = {
      {150, 650}, {230, 470}, {420, 580}, {t0, t1 + 1}};
  for (const auto& [wi, we] : windows) {
    if (wi == t0) continue;
    size_t cut = 0;
    for (const auto& [lo, hi] : extended_sub_chunks) {
      cut += (lo < wi && wi < hi) || (lo < we && we < hi);
    }
    EXPECT_GT(cut, 0u) << wi << " " << we;
  }
  std::vector<std::vector<std::string>> hot;
  for (const auto& [wi, we] : windows) {
    const HotTierStats probes = slot.hot_stats();
    auto answer = slot.Query(params, store, nullptr, kDefaultHotIndexBudget,
                             wi, we);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_GT(slot.hot_stats().qut_hot_probes, probes.qut_hot_probes);
    EXPECT_FALSE(answer->clusters.empty());
    hot.push_back(DeepCopy(*answer));
  }
  for (size_t k = 0; k < windows.size(); ++k) {
    auto cold = slot.Query(params, store, nullptr, 0, windows[k].first,
                           windows[k].second);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(DeepCopy(*cold), hot[k]) << "window " << k;
  }
  EXPECT_EQ(slot.hot_stats().hot_index_bytes, 0u);
}

/// An `Env` over `base` that parks the creation of one file on a latch
/// and, while "full", refuses every new file, the parked one included
/// when it is let go.
class ParkingEnv : public storage::Env {
 public:
  explicit ParkingEnv(storage::Env* base) : base_(base) {}

  /// The next file created whose name ends with `suffix` parks.
  void ParkCreationOf(std::string suffix) {
    std::lock_guard<std::mutex> lock(mu_);
    park_suffix_ = std::move(suffix);
  }
  /// Blocks until a creation is parked; false after `timeout`.
  bool WaitParked(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  void set_full(bool full) {
    std::lock_guard<std::mutex> lock(mu_);
    full_ = full;
  }

  StatusOr<std::unique_ptr<storage::RandomRWFile>> NewRWFile(
      const std::string& fname) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      const std::string& suffix = park_suffix_;
      if (!suffix.empty() && fname.size() >= suffix.size() &&
          fname.compare(fname.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
        park_suffix_.clear();
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
      if (full_) return Status::IOError("no space left for " + fname);
    }
    return base_->NewRWFile(fname);
  }
  bool FileExists(const std::string& fname) const override {
    return base_->FileExists(fname);
  }
  Status DeleteFile(const std::string& fname) override {
    return base_->DeleteFile(fname);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirs(const std::string& dirname) override {
    return base_->CreateDirs(dirname);
  }
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dirname) const override {
    return base_->ListDir(dirname);
  }

 private:
  storage::Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string park_suffix_;
  bool parked_ = false;
  bool released_ = false;
  bool full_ = false;
};

/// `MakeConvoys` followed by three more objects per convoy, in the same
/// lanes, sampled every 10 s over [from, 1195]: with `ConvoyParams` they
/// reach sub-chunks 8-11, which the convoys alone never create.
traj::TrajectoryStore ConvoysContinuedFrom(double from) {
  traj::TrajectoryStore store = MakeConvoys();
  for (int convoy = 0; convoy < 4; ++convoy) {
    for (int j = 0; j < 3; ++j) {
      traj::Trajectory t(2000 + convoy * 10 + j);
      for (double now = from + 3.0 * j; now <= 1195 + 1e-9; now += 10.0) {
        EXPECT_TRUE(
            t.Append({now * 10.0, convoy * 5000.0 + 5.0 + j * 10.0, now})
                .ok());
      }
      EXPECT_TRUE(store.Add(std::move(t)).ok());
    }
  }
  return store;
}

/// `slot.Query` over `store` at hot budget `budget` (the default unless
/// given), as bytes.
StatusOr<std::vector<std::string>> Answer(
    QutTreeSlot* slot, const traj::TrajectoryStore& store, double wi,
    double we, size_t budget = kDefaultHotIndexBudget) {
  HERMES_ASSIGN_OR_RETURN(
      QuTResult r,
      slot->Query(ConvoyParams(), store, nullptr, budget, wi, we));
  return DeepCopy(r);
}

// A catch-up holds only the sub-chunks its batch touches. While it is
// parked inside sub-chunk 10, a QUT over earlier sub-chunks answers, and
// one whose window reaches the batch waits for the whole batch and
// answers with it. At hot budget 0 every read is cold, so the disjoint
// QUT also opens and probes partition files while the parked creation is
// in flight.
void ExpectParkedCatchUpBlocksOnlyItsReaders(size_t budget) {
  const traj::TrajectoryStore before = MakeConvoys();
  const traj::TrajectoryStore after = ConvoysContinuedFrom(800);
  auto base = storage::Env::NewMemEnv();
  ParkingEnv env(base.get());
  QutTreeSlot slot(&env, "t_");
  // Builds over `before` and (at a nonzero budget) promotes the disjoint
  // window's partitions; QUTs pass `before`, as readers of a published
  // snapshot that lags the catch-up do.
  auto disjoint_want = Answer(&slot, before, 100, 500, budget);
  ASSERT_TRUE(disjoint_want.ok()) << disjoint_want.status().ToString();
  ASSERT_FALSE(disjoint_want->empty());
  auto overlap_before = Answer(&slot, before, 700, 1100, budget);
  ASSERT_TRUE(overlap_before.ok());

  env.ParkCreationOf("/sc10_out.part");
  std::future<StatusOr<QutTreeWork>> catch_up = std::async(
      std::launch::async, [&] { return slot.CatchUp(after, nullptr); });
  ASSERT_TRUE(env.WaitParked(std::chrono::seconds(60)));

  std::future<StatusOr<std::vector<std::string>>> disjoint =
      std::async(std::launch::async,
                 [&] { return Answer(&slot, before, 100, 500, budget); });
  const bool disjoint_done =
      disjoint.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  std::future<StatusOr<std::vector<std::string>>> overlap =
      std::async(std::launch::async,
                 [&] { return Answer(&slot, before, 700, 1100, budget); });
  const bool overlap_done_early = overlap.wait_for(std::chrono::milliseconds(
                                      200)) == std::future_status::ready;
  // The stats read only the partition catalog, never a sub-chunk.
  std::future<HotTierStats> stats =
      std::async(std::launch::async, [&] { return slot.hot_stats(); });
  const bool stats_done =
      stats.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  env.Release();

  EXPECT_TRUE(disjoint_done) << "a disjoint QUT waited for the catch-up";
  EXPECT_TRUE(stats_done) << "hot_stats waited for the catch-up";
  EXPECT_FALSE(overlap_done_early);
  auto work = catch_up.get();
  ASSERT_TRUE(work.ok()) << work.status().ToString();
  EXPECT_EQ(*work, QutTreeWork::kCaughtUp);
  auto disjoint_got = disjoint.get();
  ASSERT_TRUE(disjoint_got.ok()) << disjoint_got.status().ToString();
  EXPECT_EQ(*disjoint_got, *disjoint_want);
  auto overlap_got = overlap.get();
  ASSERT_TRUE(overlap_got.ok()) << overlap_got.status().ToString();
  auto overlap_after = Answer(&slot, after, 700, 1100, budget);
  ASSERT_TRUE(overlap_after.ok());
  EXPECT_NE(*overlap_after, *overlap_before);
  EXPECT_EQ(*overlap_got, *overlap_after);
}

TEST(QutTreeSlotTest, AParkedCatchUpBlocksOnlyTheReadersOfItsSubChunks) {
  ExpectParkedCatchUpBlocksOnlyItsReaders(kDefaultHotIndexBudget);
}

TEST(QutTreeSlotTest, AParkedCatchUpBlocksOnlyTheColdReadersOfItsSubChunks) {
  ExpectParkedCatchUpBlocksOnlyItsReaders(0);
}

// A catch-up that fails part-way through its batch is never seen half
// applied. The batch changes sub-chunks 6-9, then the disk fills (writes
// refused, no new file) as it creates sub-chunk 10's outlier partition.
// Readers of sub-chunks 6-10 that waited for it answer as before the
// batch or fail; the slot ends dropped, and once there is space again the
// next QUT rebuilds and answers as a tree built over the whole store.
TEST(QutTreeSlotTest, AFailedCatchUpIsNeverSeenHalfApplied) {
  const traj::TrajectoryStore before = MakeConvoys();
  const traj::TrajectoryStore after = ConvoysContinuedFrom(600);
  const double wi = 650;
  const double we = 1050;
  auto base = storage::Env::NewMemEnv();
  auto want_env = storage::Env::NewMemEnv();
  QutTreeSlot want_slot(want_env.get(), "w_");
  auto post = Answer(&want_slot, after, wi, we);
  ASSERT_TRUE(post.ok()) << post.status().ToString();

  storage::FaultInjectionEnv faults(base.get());
  ParkingEnv env(&faults);
  QutTreeSlot slot(&env, "t_");
  auto pre = Answer(&slot, before, wi, we);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  ASSERT_NE(*pre, *post);

  env.ParkCreationOf("/sc10_out.part");
  std::future<StatusOr<QutTreeWork>> catch_up = std::async(
      std::launch::async, [&] { return slot.CatchUp(after, nullptr); });
  ASSERT_TRUE(env.WaitParked(std::chrono::seconds(60)));
  std::vector<std::future<StatusOr<std::vector<std::string>>>> readers;
  for (int r = 0; r < 4; ++r) {
    readers.push_back(std::async(std::launch::async,
                                 [&] { return Answer(&slot, before, wi, we); }));
  }
  for (auto& reader : readers) {
    EXPECT_NE(reader.wait_for(std::chrono::milliseconds(50)),
              std::future_status::ready);
  }
  faults.set_write_budget(0);
  env.set_full(true);
  env.Release();

  auto work = catch_up.get();
  EXPECT_FALSE(work.ok());
  for (auto& reader : readers) {
    auto got = reader.get();
    if (got.ok()) {
      EXPECT_TRUE(*got == *pre || *got == *post);
    }
  }
  // No reader could rebuild on a full disk.
  EXPECT_EQ(slot.tree(), nullptr);
  EXPECT_EQ(FilesIn(base.get(), "t_0"), 0u);

  env.set_full(false);
  faults.set_write_budget(-1);
  QutTreeWork rebuilt = QutTreeWork::kNone;
  auto next = slot.Query(ConvoyParams(), after, nullptr,
                         kDefaultHotIndexBudget, wi, we, nullptr, &rebuilt);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(rebuilt, QutTreeWork::kRebuilt);
  EXPECT_EQ(DeepCopy(*next), *post);
}

TEST(QutTreeSlotTest, RejectsWrongParameterCount) {
  const traj::TrajectoryStore ships = MakeShips(2);
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  auto w = slot.Refresh({600, 2, 3}, ships, nullptr, 0);
  ASSERT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsInvalidArgument());
  EXPECT_EQ(slot.tree(), nullptr);
}

}  // namespace
}  // namespace hermes::core
