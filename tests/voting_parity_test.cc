// Naive-vs-indexed voting parity across the three synthetic movement
// domains (aircraft terminal area, maritime lanes, urban grid), at 1 and 4
// threads: the in-DBMS fast path — on the in-memory R-tree or through the
// paged adapter — must be a pure optimization: identical `VotingResult`s,
// and bit-for-bit reproducibility at any thread count.

#include <gtest/gtest.h>

#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "exec/exec_context.h"
#include "rtree/mem_rtree3d.h"
#include "rtree/str_bulk_load.h"
#include "storage/env.h"
#include "traj/segment_arena.h"
#include "voting/voting.h"

namespace hermes::voting {
namespace {

struct Scenario {
  const char* name;
  traj::TrajectoryStore store;
  VotingParams params;
};

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;

  {
    datagen::AircraftScenarioParams p =
        datagen::AircraftScenarioParams::Default();
    p.num_flights = 24;
    p.sample_dt = 30.0;
    p.seed = 5;
    auto s = datagen::GenerateAircraftScenario(p);
    VotingParams vp;
    vp.sigma = 1500.0;
    vp.min_overlap_ratio = 0.3;
    scenarios.push_back({"aircraft", std::move(s->store), vp});
  }
  {
    datagen::MaritimeScenarioParams p;
    p.num_ships = 20;
    p.sample_dt = 240.0;
    p.seed = 6;
    auto s = datagen::GenerateMaritimeScenario(p);
    VotingParams vp;
    vp.sigma = 800.0;
    vp.min_overlap_ratio = 0.3;
    scenarios.push_back({"maritime", std::move(s->store), vp});
  }
  {
    datagen::UrbanScenarioParams p;
    p.num_vehicles = 25;
    p.sample_dt = 15.0;
    p.seed = 7;
    auto s = datagen::GenerateUrbanScenario(p);
    VotingParams vp;
    vp.sigma = 120.0;
    vp.min_overlap_ratio = 0.3;
    scenarios.push_back({"urban", std::move(s->store), vp});
  }
  return scenarios;
}

/// Exact (bitwise) equality of two voting results.
void ExpectBitIdentical(const VotingResult& a, const VotingResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.votes.size(), b.votes.size()) << what;
  for (size_t tid = 0; tid < a.votes.size(); ++tid) {
    ASSERT_EQ(a.votes[tid].size(), b.votes[tid].size()) << what;
    for (size_t i = 0; i < a.votes[tid].size(); ++i) {
      EXPECT_EQ(a.votes[tid][i], b.votes[tid][i])
          << what << " tid=" << tid << " seg=" << i;
    }
  }
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated) << what;
}

TEST(VotingParityTest, NaiveAndIndexedAgreeAcrossScenariosAndThreads) {
  for (auto& sc : MakeScenarios()) {
    SCOPED_TRACE(sc.name);
    ASSERT_GT(sc.store.NumSegments(), 0u);

    auto env = storage::Env::NewMemEnv();
    auto index = rtree::BuildSegmentIndex(env.get(), "parity.idx", sc.store);
    ASSERT_TRUE(index.ok());
    const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);

    exec::ExecContext one(1);
    exec::ExecContext four(4);

    auto naive1 = ComputeVotingNaive(arena, sc.store, sc.params, &one);
    auto naive4 = ComputeVotingNaive(arena, sc.store, sc.params, &four);
    auto indexed1 =
        ComputeVotingIndexed(arena, sc.store, **index, sc.params, &one);
    auto indexed4 =
        ComputeVotingIndexed(arena, sc.store, **index, sc.params, &four);
    ASSERT_TRUE(naive1.ok());
    ASSERT_TRUE(naive4.ok());
    ASSERT_TRUE(indexed1.ok());
    ASSERT_TRUE(indexed4.ok());

    // Thread-count invariance is bit-exact by construction (each
    // trajectory's votes come from one chunk with sequential order).
    ExpectBitIdentical(*naive1, *naive4, "naive 1 vs 4 threads");
    ExpectBitIdentical(*indexed1, *indexed4, "indexed 1 vs 4 threads");

    // Engine parity: the pruned candidate set must not lose any voter
    // (pairs differ — that is the point of the index — but votes match;
    // non-candidates contribute exactly 0, so sums are bitwise equal).
    ASSERT_EQ(naive1->votes.size(), indexed1->votes.size());
    for (size_t tid = 0; tid < naive1->votes.size(); ++tid) {
      ASSERT_EQ(naive1->votes[tid].size(), indexed1->votes[tid].size());
      for (size_t i = 0; i < naive1->votes[tid].size(); ++i) {
        EXPECT_DOUBLE_EQ(naive1->votes[tid][i], indexed1->votes[tid][i])
            << sc.name << " tid=" << tid << " seg=" << i;
      }
    }
    EXPECT_LE(indexed1->pairs_evaluated, naive1->pairs_evaluated);
  }
}

TEST(VotingParityTest, InMemoryPagedAdapterAndNaiveAreBitIdentical) {
  for (auto& sc : MakeScenarios()) {
    SCOPED_TRACE(sc.name);
    const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);
    auto env = storage::Env::NewMemEnv();
    auto paged = rtree::BuildSegmentIndex(env.get(), "paged.idx", arena);
    ASSERT_TRUE(paged.ok());
    for (size_t threads : {1u, 4u}) {
      const std::string at = " threads=" + std::to_string(threads);
      exec::ExecContext ctx(threads);
      const auto mem = rtree::BuildMemSegmentIndex(arena, 0.9, &ctx);
      auto in_memory = ComputeVotingIndexed(arena, sc.store, *mem, sc.params,
                                            &ctx);
      auto adapter = ComputeVotingIndexed(arena, sc.store, **paged,
                                          sc.params, &ctx);
      auto naive = ComputeVotingNaive(arena, sc.store, sc.params, &ctx);
      ASSERT_TRUE(in_memory.ok());
      ASSERT_TRUE(adapter.ok());
      ASSERT_TRUE(naive.ok());
      ExpectBitIdentical(*in_memory, *adapter, "in-memory vs adapter" + at);
      // Naive examines every pair; the votes still match bit for bit.
      naive->pairs_evaluated = in_memory->pairs_evaluated;
      ExpectBitIdentical(*in_memory, *naive, "in-memory vs naive" + at);
      EXPECT_GT(ctx.stats().Counter("voting_probe_handles"), 0);
    }
  }
}

TEST(VotingParityTest, PagedAdapterReadsTheIndexAfterRemove) {
  // The adapter copies the index's current entries, not the arena's rows:
  // a tree that lost entries to Remove() votes exactly like a fresh tree
  // holding only the survivors.
  for (auto& sc : MakeScenarios()) {
    SCOPED_TRACE(sc.name);
    const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);
    auto env = storage::Env::NewMemEnv();
    auto pruned = rtree::BuildSegmentIndex(env.get(), "pruned.idx", arena);
    ASSERT_TRUE(pruned.ok());
    auto fresh = rtree::RTree3D::Open(env.get(), "fresh.idx");
    ASSERT_TRUE(fresh.ok());
    for (size_t r = 0; r < arena.num_segments(); ++r) {
      const uint64_t datum = rtree::PackSegmentRef(arena.RefOf(r));
      if (r % 3 == 0) {
        ASSERT_TRUE((*pruned)->Remove(arena.BoundsOf(r), datum).ok());
      } else {
        ASSERT_TRUE((*fresh)->Insert(arena.BoundsOf(r), datum).ok());
      }
    }
    ASSERT_EQ((*pruned)->num_entries(), (*fresh)->num_entries());

    const auto full_mem = rtree::BuildMemSegmentIndex(arena);
    auto full = ComputeVotingIndexed(arena, sc.store, *full_mem, sc.params);
    ASSERT_TRUE(full.ok());
    for (size_t threads : {1u, 4u}) {
      exec::ExecContext ctx(threads);
      auto after_remove =
          ComputeVotingIndexed(arena, sc.store, **pruned, sc.params, &ctx);
      auto rebuilt =
          ComputeVotingIndexed(arena, sc.store, **fresh, sc.params, &ctx);
      ASSERT_TRUE(after_remove.ok());
      ASSERT_TRUE(rebuilt.ok());
      ExpectBitIdentical(*after_remove, *rebuilt,
                         "removed vs fresh, threads=" +
                             std::to_string(threads));
      // The removed entries really were left out of the probe.
      EXPECT_LT(after_remove->pairs_evaluated, full->pairs_evaluated);
    }
  }
}

TEST(VotingParityTest, StoreOverloadsMatchArenaEngines) {
  auto scenarios = MakeScenarios();
  auto& sc = scenarios.front();
  const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);
  auto via_store = ComputeVotingNaive(sc.store, sc.params);
  auto via_arena = ComputeVotingNaive(arena, sc.store, sc.params, nullptr);
  ASSERT_TRUE(via_store.ok());
  ASSERT_TRUE(via_arena.ok());
  ExpectBitIdentical(*via_store, *via_arena, "store vs arena overload");
}

TEST(VotingParityTest, StaleArenaIsRejected) {
  auto scenarios = MakeScenarios();
  auto& sc = scenarios.back();
  const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);
  traj::Trajectory extra(999);
  ASSERT_TRUE(extra.Append({0, 0, 0}).ok());
  ASSERT_TRUE(extra.Append({10, 10, 10}).ok());
  ASSERT_TRUE(sc.store.Add(std::move(extra)).ok());
  EXPECT_TRUE(ComputeVotingNaive(arena, sc.store, sc.params, nullptr)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace hermes::voting
