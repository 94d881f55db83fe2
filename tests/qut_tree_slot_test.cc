// core::QutTreeSlot: the one QUT-tree lifecycle, lock and read path the
// embedded session, the service server and the shard coordinator share.
// Rebuild on new parameters or after Drop, otherwise catch up with
// InsertBatch — and a caught-up tree answers bit-identically to one built
// over the whole store. Retired trees leave no files behind, and storage
// that refuses writes yields a Status, never an abort.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

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
