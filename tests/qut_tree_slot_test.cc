// core::QutTreeSlot: the one QUT-tree lifecycle, lock and read path the
// embedded session, the service server and the shard coordinator share.
// Rebuild on new parameters or after Drop, otherwise catch up with
// InsertBatch — and a caught-up tree answers bit-identically to one built
// over the whole store. Retired trees leave no files behind, and storage
// that refuses writes yields a Status, never an abort.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"
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

TEST(QutTreeSlotTest, CatchUpAnswersLikeARebuildOverTheWholeStore) {
  const traj::TrajectoryStore ships = MakeShips(12);
  const std::vector<double> params = TreeParams(ships);
  auto env = storage::Env::NewMemEnv();

  // Grown in three appends, refreshed after each.
  QutTreeSlot grown(env.get(), "grown_");
  traj::TrajectoryStore store;
  std::vector<QutTreeWork> work;
  for (size_t k : {4, 9, 12}) {
    for (traj::TrajectoryId i = store.NumTrajectories(); i < k; ++i) {
      ASSERT_TRUE(store.Add(ships.Get(i)).ok());
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

  // Built once over all 12.
  QutTreeSlot whole(env.get(), "whole_");
  ASSERT_TRUE(
      whole.Refresh(params, ships, nullptr, kDefaultHotIndexBudget).ok());
  const sql::Table want = Qut(whole, ships);
  EXPECT_GE(want.rows.size(), 2u);  // At least one cluster + outliers.
  EXPECT_EQ(Qut(grown, store).rows, want.rows);
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

// The hot-tier budget is part of freshness: a query with a new budget
// applies it to the live tree (0: demote everything, probe cold) without
// rebuilding, and answers the same.
TEST(QutTreeSlotTest, QueryAppliesANewHotBudgetWithoutRebuilding) {
  const traj::TrajectoryStore ships = MakeShips(6);
  const std::vector<double> params = TreeParams(ships);
  const auto [t0, t1] = ships.TimeDomain();
  auto env = storage::Env::NewMemEnv();
  QutTreeSlot slot(env.get(), "t_");
  EXPECT_EQ(slot.hot_stats().qut_cold_probes, 0u);  // No tree: zeros.

  QutTreeWork work = QutTreeWork::kNone;
  auto hot = slot.Query(params, ships, nullptr, kDefaultHotIndexBudget, t0,
                        t1 + 1, nullptr, &work);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  EXPECT_EQ(work, QutTreeWork::kRebuilt);
  EXPECT_GT(slot.hot_stats().hot_index_bytes, 0u);

  auto cold = slot.Query(params, ships, nullptr, 0, t0, t1 + 1, nullptr,
                         &work);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(work, QutTreeWork::kNone);
  EXPECT_EQ(slot.hot_stats().hot_index_bytes, 0u);
  const uint64_t hot_probes = slot.hot_stats().qut_hot_probes;
  ASSERT_TRUE(
      slot.Query(params, ships, nullptr, 0, t0, t1 + 1, nullptr, &work).ok());
  EXPECT_EQ(slot.hot_stats().qut_hot_probes, hot_probes);
  EXPECT_EQ(sql::MakeQutCursor(*cold, t0, t1 + 1, nullptr)->ToTable()->rows,
            sql::MakeQutCursor(*hot, t0, t1 + 1, nullptr)->ToTable()->rows);
}

// A tree is a cache: when the env refuses every write, building,
// dropping and destroying one returns a Status or succeeds (pages may
// stay cached) but never aborts. Once writes work again the next refresh
// rebuilds, and answers exactly like a slot that never saw a failure.
TEST(QutTreeSlotTest, RefusedWritesNeverAbortAndTheNextRefreshRebuilds) {
  const traj::TrajectoryStore ships = MakeShips(12);
  const std::vector<double> params = TreeParams(ships);
  auto base = storage::Env::NewMemEnv();
  storage::FaultInjectionEnv env(base.get());
  env.set_write_budget(0);
  // Each refused close logs an Error line; keep the test output readable.
  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);

  QutTreeSlot slot(&env, "t_");
  auto built = slot.Refresh(params, ships, nullptr, kDefaultHotIndexBudget);
  if (!built.ok()) {
    EXPECT_EQ(slot.tree(), nullptr);  // Failure drops.
  }
  // Re-clustering closes and deletes outlier partitions mid-build, so
  // the failpoint fires even when every live page stays cached.
  const uint64_t refused = env.writes_failed();
  EXPECT_GT(refused, 0u);
  slot.Drop();
  {
    QutTreeSlot doomed(&env, "doomed_");
    (void)doomed.Refresh(params, ships, nullptr, kDefaultHotIndexBudget);
  }  // Destroyed holding whatever it built.
  EXPECT_GT(env.writes_failed(), refused);
  SetLogLevel(level);

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

// An answer reads the tree in place, so it keeps alive what it read: a
// held result pins its hot snapshots (they count in hot_partitions until
// it is released) and stays intact while its tree re-clusters, demotes
// everything and is dropped.
TEST(QutTreeSlotTest, AHeldAnswerOutlivesReclusteringDemotionAndDrop) {
  const traj::TrajectoryStore ships = MakeShips(12);
  const std::vector<double> params = TreeParams(ships);
  const auto [t0, t1] = ships.TimeDomain();
  traj::TrajectoryStore store;
  for (traj::TrajectoryId i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Add(ships.Get(i)).ok());
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
  const std::vector<std::string> want = DeepCopy(*held);
  ASSERT_GT(held->TotalMembers(), 0u);
  const std::shared_ptr<traj::EpochPinRegistry> pins =
      slot.tree()->hot_pin_registry();
  const uint64_t s2t_runs = slot.tree()->stats().s2t_runs;

  // Ingest the rest: catching up re-clusters outlier buffers.
  for (traj::TrajectoryId i = 6; i < ships.NumTrajectories(); ++i) {
    ASSERT_TRUE(store.Add(ships.Get(i)).ok());
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

/// Member count of each resident member snapshot, by partition.
std::map<std::string, size_t> HotMemberCounts(const ReTraTree& tree) {
  std::map<std::string, size_t> counts;
  for (const auto& [ci, chunk] : tree.chunks()) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
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
