// Cross-thread determinism harness for the full S2T pipeline: datagen-
// seeded MODs from all three synthetic movement domains, several
// sigma/epsilon settings each, run at 1/2/4/8 threads. Every run must be
// *bit-identical* to the 1-thread run — voting signals, sub-trajectory
// ids/boundaries, representatives, and cluster memberships — because
// every parallel phase (arena build, STR sorts, voting probe + kernel,
// NaTS DP + materialization) is deterministic by construction, not by
// tolerance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/qut_clustering.h"
#include "core/retratree.h"
#include "core/s2t_clustering.h"
#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "exec/exec_context.h"
#include "storage/env.h"

namespace hermes::core {
namespace {

struct SigmaEps {
  double sigma;
  double epsilon;
};

struct Scenario {
  std::string name;
  traj::TrajectoryStore store;
  std::vector<SigmaEps> settings;
};

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  {
    datagen::AircraftScenarioParams p =
        datagen::AircraftScenarioParams::Default();
    p.num_flights = 16;
    p.sample_dt = 40.0;
    p.seed = 12;
    auto s = datagen::GenerateAircraftScenario(p);
    scenarios.push_back({"aircraft", std::move(s->store),
                         {{1500.0, 3000.0}, {800.0, 1600.0}}});
  }
  {
    datagen::MaritimeScenarioParams p;
    p.num_ships = 14;
    p.sample_dt = 300.0;
    p.seed = 13;
    auto s = datagen::GenerateMaritimeScenario(p);
    scenarios.push_back({"maritime", std::move(s->store),
                         {{800.0, 1600.0}, {400.0, 900.0}}});
  }
  {
    datagen::UrbanScenarioParams p;
    p.num_vehicles = 16;
    p.sample_dt = 20.0;
    p.seed = 14;
    auto s = datagen::GenerateUrbanScenario(p);
    scenarios.push_back(
        {"urban", std::move(s->store), {{120.0, 240.0}, {60.0, 150.0}}});
  }
  return scenarios;
}

S2TParams MakeParams(const SigmaEps& se, bool use_index) {
  S2TParams p;
  p.SetSigma(se.sigma).SetEpsilon(se.epsilon);
  p.use_index = use_index;
  p.segmentation.min_part_length = 3;
  p.voting.min_overlap_ratio = 0.3;
  p.sampling.min_overlap_ratio = 0.3;
  p.clustering.min_overlap_ratio = 0.3;
  return p;
}

/// Bitwise equality of two full pipeline results. EXPECT_EQ on doubles is
/// exact comparison — the point of the harness.
void ExpectBitIdentical(const S2TResult& base, const S2TResult& run,
                        const std::string& what) {
  // Voting signals.
  ASSERT_EQ(base.voting.votes.size(), run.voting.votes.size()) << what;
  for (size_t tid = 0; tid < base.voting.votes.size(); ++tid) {
    ASSERT_EQ(base.voting.votes[tid].size(), run.voting.votes[tid].size())
        << what << " tid=" << tid;
    for (size_t i = 0; i < base.voting.votes[tid].size(); ++i) {
      ASSERT_EQ(base.voting.votes[tid][i], run.voting.votes[tid][i])
          << what << " tid=" << tid << " seg=" << i;
    }
  }
  ASSERT_EQ(base.voting.pairs_evaluated, run.voting.pairs_evaluated) << what;

  // Sub-trajectory ids, provenance, boundaries, and geometry.
  ASSERT_EQ(base.sub_trajectories.size(), run.sub_trajectories.size())
      << what;
  for (size_t i = 0; i < base.sub_trajectories.size(); ++i) {
    const traj::SubTrajectory& a = base.sub_trajectories[i];
    const traj::SubTrajectory& b = run.sub_trajectories[i];
    ASSERT_EQ(a.id, b.id) << what << " sub=" << i;
    ASSERT_EQ(a.source_trajectory, b.source_trajectory) << what << " " << i;
    ASSERT_EQ(a.object_id, b.object_id) << what << " " << i;
    ASSERT_EQ(a.first_sample_index, b.first_sample_index) << what << " " << i;
    ASSERT_EQ(a.mean_voting, b.mean_voting) << what << " " << i;
    ASSERT_EQ(a.points.size(), b.points.size()) << what << " " << i;
    for (size_t s = 0; s < a.points.size(); ++s) {
      ASSERT_EQ(a.points[s].x, b.points[s].x) << what << " " << i;
      ASSERT_EQ(a.points[s].y, b.points[s].y) << what << " " << i;
      ASSERT_EQ(a.points[s].t, b.points[s].t) << what << " " << i;
    }
  }

  // Sampling and clustering output.
  ASSERT_EQ(base.representatives, run.representatives) << what;
  ASSERT_EQ(base.clustering.clusters.size(), run.clustering.clusters.size())
      << what;
  for (size_t c = 0; c < base.clustering.clusters.size(); ++c) {
    ASSERT_EQ(base.clustering.clusters[c].representative,
              run.clustering.clusters[c].representative)
        << what << " cluster=" << c;
    ASSERT_EQ(base.clustering.clusters[c].members,
              run.clustering.clusters[c].members)
        << what << " cluster=" << c;
  }
  ASSERT_EQ(base.clustering.outliers, run.clustering.outliers) << what;
}

TEST(DeterminismTest, S2TIsBitIdenticalAcrossThreadCounts) {
  for (auto& sc : MakeScenarios()) {
    SCOPED_TRACE(sc.name);
    ASSERT_GT(sc.store.NumSegments(), 0u);
    for (const SigmaEps& se : sc.settings) {
      const S2TClustering s2t(MakeParams(se, /*use_index=*/true));
      exec::ExecContext one(1);
      auto base = s2t.Run(sc.store, &one);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      ASSERT_FALSE(base->sub_trajectories.empty());
      for (size_t threads : {2u, 4u, 8u}) {
        exec::ExecContext ctx(threads);
        auto run = s2t.Run(sc.store, &ctx);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ExpectBitIdentical(*base, *run,
                           sc.name + " sigma=" + std::to_string(se.sigma) +
                               " threads=" + std::to_string(threads));
        // The two newly parallel phases really did run through the exec
        // engine: the probe fanned out over per-chunk handles and both
        // segmentation passes recorded their wall times.
        EXPECT_GT(ctx.stats().Counter("voting_probe_handles"), 0);
        EXPECT_GT(ctx.stats().Counter("exec_fanouts"), 0);
        const auto phases = ctx.stats().PhaseTimings();
        EXPECT_EQ(phases.count("segmentation_dp"), 1u);
        EXPECT_EQ(phases.count("segmentation_materialize"), 1u);
        EXPECT_EQ(phases.count("voting_probe"), 1u);
        EXPECT_EQ(phases.count("voting_kernel"), 1u);
        EXPECT_LE(run->timings.voting_probe_us + run->timings.voting_kernel_us,
                  run->timings.voting_us + 1000);
      }
    }
  }
}

TEST(DeterminismTest, NaiveEngineIsBitIdenticalAcrossThreadCounts) {
  // The no-index path (naive voting sweep) must hold the same guarantee.
  auto scenarios = MakeScenarios();
  auto& sc = scenarios.front();
  const S2TClustering s2t(MakeParams(sc.settings.front(), false));
  exec::ExecContext one(1);
  auto base = s2t.Run(sc.store, &one);
  ASSERT_TRUE(base.ok());
  for (size_t threads : {2u, 8u}) {
    exec::ExecContext ctx(threads);
    auto run = s2t.Run(sc.store, &ctx);
    ASSERT_TRUE(run.ok());
    ExpectBitIdentical(*base, *run,
                       "naive threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// Batch-ingest parity: ReTraTree::InsertBatch at any thread count must
// produce the exact catalog of the sequential per-trajectory Insert loop —
// sub-trajectory ids, representatives, members, outliers, and counters.
// ---------------------------------------------------------------------------

core::ReTraTreeParams IngestParams(const traj::TrajectoryStore& store,
                                   const SigmaEps& se) {
  const auto [t0, t1] = store.TimeDomain();
  core::ReTraTreeParams p;
  p.tau = (t1 - t0) / 2;
  p.delta = p.tau / 4;
  p.t_align = p.delta;
  p.d_assign = se.epsilon;
  p.gamma = 6;  // Small enough that re-clustering fires inside the batch.
  p.origin = t0;
  p.s2t.SetSigma(se.sigma).SetEpsilon(se.epsilon);
  p.s2t.segmentation.min_part_length = 3;
  p.s2t.voting.min_overlap_ratio = 0.3;
  p.s2t.sampling.min_overlap_ratio = 0.3;
  p.s2t.clustering.min_overlap_ratio = 0.3;
  return p;
}

void ExpectSubTrajectoryBitIdentical(const traj::SubTrajectory& a,
                                     const traj::SubTrajectory& b,
                                     const std::string& what) {
  ASSERT_EQ(a.id, b.id) << what;
  ASSERT_EQ(a.source_trajectory, b.source_trajectory) << what;
  ASSERT_EQ(a.object_id, b.object_id) << what;
  ASSERT_EQ(a.first_sample_index, b.first_sample_index) << what;
  ASSERT_EQ(a.mean_voting, b.mean_voting) << what;
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (size_t s = 0; s < a.points.size(); ++s) {
    ASSERT_EQ(a.points[s].x, b.points[s].x) << what << " sample=" << s;
    ASSERT_EQ(a.points[s].y, b.points[s].y) << what << " sample=" << s;
    ASSERT_EQ(a.points[s].t, b.points[s].t) << what << " sample=" << s;
  }
}

/// Full catalog comparison: L1/L2 structure, L3 representatives (with
/// their persisted member lists), outlier buffers, and the
/// order-independent maintenance counters. Timing fields are wall clocks
/// and deliberately excluded.
void ExpectTreesBitIdentical(const core::ReTraTree& base,
                             const core::ReTraTree& run,
                             const std::string& what) {
  const core::ReTraTreeStats& bs = base.stats();
  const core::ReTraTreeStats& rs = run.stats();
  ASSERT_EQ(bs.pieces_inserted, rs.pieces_inserted) << what;
  ASSERT_EQ(bs.assigned_to_existing, rs.assigned_to_existing) << what;
  ASSERT_EQ(bs.sent_to_outliers, rs.sent_to_outliers) << what;
  ASSERT_EQ(bs.s2t_runs, rs.s2t_runs) << what;
  ASSERT_EQ(bs.representatives_created, rs.representatives_created) << what;
  ASSERT_EQ(bs.reinserted_after_s2t, rs.reinserted_after_s2t) << what;
  ASSERT_EQ(bs.records_written, rs.records_written) << what;

  ASSERT_EQ(base.chunks().size(), run.chunks().size()) << what;
  auto bc = base.chunks().begin();
  auto rc = run.chunks().begin();
  for (; bc != base.chunks().end(); ++bc, ++rc) {
    ASSERT_EQ(bc->first, rc->first) << what;
    ASSERT_EQ(bc->second.sub_chunks.size(), rc->second.sub_chunks.size())
        << what << " chunk=" << bc->first;
    auto bsc = bc->second.sub_chunks.begin();
    auto rsc = rc->second.sub_chunks.begin();
    for (; bsc != bc->second.sub_chunks.end(); ++bsc, ++rsc) {
      const std::string at =
          what + " sub-chunk=" + std::to_string(bsc->first);
      ASSERT_EQ(bsc->first, rsc->first) << what;
      const core::SubChunk& a = bsc->second;
      const core::SubChunk& b = rsc->second;
      common::ReaderMutexLock a_lock(&a.mu);
      common::ReaderMutexLock b_lock(&b.mu);
      ASSERT_EQ(a.outlier_partition, b.outlier_partition) << at;
      ASSERT_EQ(a.outlier_count, b.outlier_count) << at;
      ASSERT_EQ(a.recluster_watermark, b.recluster_watermark) << at;
      ASSERT_EQ(a.derived_seq, b.derived_seq) << at;
      ASSERT_EQ(a.rep_seq, b.rep_seq) << at;

      auto a_outliers = base.ReadOutliers(a);
      auto b_outliers = run.ReadOutliers(b);
      ASSERT_TRUE(a_outliers.ok()) << at;
      ASSERT_TRUE(b_outliers.ok()) << at;
      ASSERT_EQ(a_outliers->size(), b_outliers->size()) << at;
      for (size_t i = 0; i < a_outliers->size(); ++i) {
        ExpectSubTrajectoryBitIdentical((*a_outliers)[i], (*b_outliers)[i],
                                        at + " outlier=" + std::to_string(i));
      }

      ASSERT_EQ(a.representatives.size(), b.representatives.size()) << at;
      for (size_t ri = 0; ri < a.representatives.size(); ++ri) {
        const core::RepresentativeEntry& ae = *a.representatives[ri];
        const core::RepresentativeEntry& be = *b.representatives[ri];
        const std::string rat = at + " rep=" + std::to_string(ri);
        ASSERT_EQ(ae.partition_name, be.partition_name) << rat;
        ASSERT_EQ(ae.member_count, be.member_count) << rat;
        ExpectSubTrajectoryBitIdentical(ae.representative, be.representative,
                                        rat);
        auto a_members = base.ReadMembers(ae);
        auto b_members = run.ReadMembers(be);
        ASSERT_TRUE(a_members.ok()) << rat;
        ASSERT_TRUE(b_members.ok()) << rat;
        ASSERT_EQ(a_members->size(), b_members->size()) << rat;
        for (size_t i = 0; i < a_members->size(); ++i) {
          ExpectSubTrajectoryBitIdentical(
              (*a_members)[i], (*b_members)[i],
              rat + " member=" + std::to_string(i));
        }
      }
    }
  }
}

TEST(DeterminismTest, BatchIngestMatchesSequentialAcrossThreadCounts) {
  for (auto& sc : MakeScenarios()) {
    SCOPED_TRACE(sc.name);
    const SigmaEps& se = sc.settings.front();
    const core::ReTraTreeParams params = IngestParams(sc.store, se);

    // Baseline: the sequential per-trajectory Insert loop.
    auto base_env = storage::Env::NewMemEnv();
    auto base = std::move(core::ReTraTree::Open(base_env.get(), "base",
                                                params))
                    .value();
    for (traj::TrajectoryId tid = 0; tid < sc.store.NumTrajectories();
         ++tid) {
      ASSERT_TRUE(base->Insert(sc.store.Get(tid), tid).ok());
    }
    ASSERT_GT(base->stats().pieces_inserted, 0u);
    ASSERT_GE(base->stats().s2t_runs, 1u)
        << "gamma never fired; the parity test would not exercise "
           "re-clustering";
    ASSERT_TRUE(base->Validate().ok());

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      exec::ExecContext ctx(threads);
      auto env = storage::Env::NewMemEnv();
      auto tree = std::move(core::ReTraTree::Open(env.get(), "batch",
                                                  params))
                      .value();
      ASSERT_TRUE(tree->InsertStore(sc.store, &ctx).ok());
      ASSERT_TRUE(tree->Validate().ok());
      ExpectTreesBitIdentical(
          *base, *tree,
          sc.name + " threads=" + std::to_string(threads));
      // The batch really went through the two-phase pipeline.
      const auto phases = ctx.stats().PhaseTimings();
      EXPECT_EQ(phases.count("ingest_split"), 1u);
      EXPECT_EQ(phases.count("ingest_apply"), 1u);
      if (threads > 1) {
        EXPECT_GT(ctx.stats().Counter("exec_fanouts"), 0);
      }
      EXPECT_GE(tree->stats().ingest_split_us, 0);
      EXPECT_GE(tree->stats().ingest_apply_us, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent ingest + query at the traj layer: readers snapshotting the
// store mid-ingest must see a clean id-order prefix, and S2T over that
// snapshot must be bit-identical to a quiesced run over the same prefix.
// This is the storage-level half of the service-layer guarantee
// (tests/service_test.cc holds the SQL-level half); the TSan CI leg runs
// both.
// ---------------------------------------------------------------------------

TEST(DeterminismTest, SnapshotReadersDuringIngestMatchQuiescedPrefixes) {
  auto scenarios = MakeScenarios();
  auto& sc = scenarios[1];  // maritime
  const size_t total = sc.store.NumTrajectories();
  const size_t initial = total / 2;
  const S2TClustering s2t(MakeParams(sc.settings.front(), true));

  // Quiesced baselines for every prefix a snapshot could land on.
  std::vector<traj::TrajectoryStore> prefix_stores;
  std::vector<S2TResult> baselines;
  for (size_t k = initial; k <= total; ++k) {
    traj::TrajectoryStore prefix;
    for (traj::TrajectoryId tid = 0; tid < k; ++tid) {
      ASSERT_TRUE(prefix.Add(sc.store.Get(tid)).ok());
    }
    exec::ExecContext one(1);
    auto base = s2t.Run(prefix, &one);
    ASSERT_TRUE(base.ok());
    baselines.push_back(std::move(*base));
    prefix_stores.push_back(std::move(prefix));
  }

  // Single writer appends the back half while readers keep snapshotting
  // and clustering. Every reader result must equal the quiesced baseline
  // of exactly its snapshot's trajectory count.
  traj::TrajectoryStore live;
  for (traj::TrajectoryId tid = 0; tid < initial; ++tid) {
    ASSERT_TRUE(live.Add(sc.store.Get(tid)).ok());
  }
  constexpr int kReaders = 3;
  constexpr int kRunsPerReader = 3;
  std::vector<std::vector<std::pair<size_t, S2TResult>>> results(kReaders);
  std::vector<std::string> failures(kReaders);
  std::vector<std::thread> readers;
  for (int rix = 0; rix < kReaders; ++rix) {
    readers.emplace_back([&, rix] {
      exec::ExecContext ctx(2);
      for (int run = 0; run < kRunsPerReader; ++run) {
        const traj::TrajectoryStore snap = live.Snapshot();
        auto result = s2t.Run(snap, &ctx);
        if (!result.ok()) {
          failures[rix] = result.status().ToString();
          return;
        }
        results[rix].emplace_back(snap.NumTrajectories(),
                                  std::move(*result));
      }
    });
  }
  for (traj::TrajectoryId tid = initial; tid < total; ++tid) {
    ASSERT_TRUE(live.Add(sc.store.Get(tid)).ok());
  }
  for (auto& t : readers) t.join();

  for (int rix = 0; rix < kReaders; ++rix) {
    ASSERT_EQ(failures[rix], "") << "reader " << rix;
    for (auto& [k, result] : results[rix]) {
      ASSERT_GE(k, initial);
      ASSERT_LE(k, total);
      ExpectBitIdentical(baselines[k - initial], result,
                         "snapshot reader " + std::to_string(rix) +
                             " prefix=" + std::to_string(k));
    }
  }
  // The snapshots released their epochs; the builder lineage reports no
  // stale pins once readers are done.
  EXPECT_EQ(live.arena_counters().epochs_pinned, 0u);
}

// ---------------------------------------------------------------------------
// Hot/cold tier parity: a QUT answer served from the in-memory
// snapshots (hot tier) must be bit-identical to the heap-file scan of
// the cold path — on every scenario, at every build thread
// count, and both while the tier is promoting and once it is warm.
// ---------------------------------------------------------------------------

void ExpectQutBitIdentical(const core::QuTResult& a, const core::QuTResult& b,
                           const std::string& what) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size()) << what;
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    const std::string at = what + " cluster=" + std::to_string(c);
    ASSERT_EQ(a.clusters[c].representatives.size(),
              b.clusters[c].representatives.size())
        << at;
    for (size_t r = 0; r < a.clusters[c].representatives.size(); ++r) {
      ExpectSubTrajectoryBitIdentical(a.clusters[c].representatives[r],
                                      b.clusters[c].representatives[r],
                                      at + " rep=" + std::to_string(r));
    }
    ASSERT_EQ(a.clusters[c].members.size(), b.clusters[c].members.size())
        << at;
    for (size_t m = 0; m < a.clusters[c].members.size(); ++m) {
      ExpectSubTrajectoryBitIdentical(a.clusters[c].members[m],
                                      b.clusters[c].members[m],
                                      at + " member=" + std::to_string(m));
    }
  }
  ASSERT_EQ(a.outliers.size(), b.outliers.size()) << what;
  for (size_t o = 0; o < a.outliers.size(); ++o) {
    ExpectSubTrajectoryBitIdentical(a.outliers[o], b.outliers[o],
                                    what + " outlier=" + std::to_string(o));
  }
}

TEST(DeterminismTest, HotTierQutMatchesColdAcrossThreadCounts) {
  for (auto& sc : MakeScenarios()) {
    SCOPED_TRACE(sc.name);
    const SigmaEps& se = sc.settings.front();
    const core::ReTraTreeParams params = IngestParams(sc.store, se);
    // A window strictly inside the time domain, so boundary sub-chunks
    // exercise the trimmed `ReadMembersInWindow` path on both tiers.
    const auto [t0, t1] = sc.store.TimeDomain();
    const double wi = t0 + (t1 - t0) * 0.2;
    const double we = t0 + (t1 - t0) * 0.8;
    std::unique_ptr<core::QuTResult> baseline;  // 1-thread cold answer.
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      exec::ExecContext ctx(threads);
      auto env = storage::Env::NewMemEnv();
      auto tree =
          std::move(core::ReTraTree::Open(env.get(), "tier", params)).value();
      ASSERT_TRUE(tree->InsertStore(sc.store, &ctx).ok());
      core::QuTClustering qut(tree.get());
      const std::string at = sc.name + " threads=" + std::to_string(threads);

      tree->SetHotIndexBudget(0);  // Cold tier only.
      auto cold = qut.Query(wi, we);
      ASSERT_TRUE(cold.ok()) << at;
      EXPECT_EQ(tree->hot_stats().qut_hot_probes, 0u) << at;

      tree->SetHotIndexBudget(core::kDefaultHotIndexBudget);
      auto promote = qut.Query(wi, we);  // Promotes while it reads.
      ASSERT_TRUE(promote.ok()) << at;
      auto hot = qut.Query(wi, we);  // Served from the warm hot tier.
      ASSERT_TRUE(hot.ok()) << at;
      EXPECT_GT(tree->hot_stats().qut_hot_probes, 0u) << at;
      EXPECT_GT(tree->hot_stats().hot_promotions, 0u) << at;

      ExpectQutBitIdentical(*cold, *promote, at + " promote-pass");
      ExpectQutBitIdentical(*cold, *hot, at + " hot-pass");
      if (baseline == nullptr) {
        baseline = std::make_unique<core::QuTResult>(std::move(*cold));
      } else {
        ExpectQutBitIdentical(*baseline, *hot, at + " vs 1-thread");
      }
    }
  }
}

TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  // Same context, same store, run twice: nothing in the pipeline may
  // depend on pool warm-up, allocator state, or accumulated stats.
  auto scenarios = MakeScenarios();
  auto& sc = scenarios.back();
  const S2TClustering s2t(MakeParams(sc.settings.front(), true));
  exec::ExecContext ctx(4);
  auto first = s2t.Run(sc.store, &ctx);
  auto second = s2t.Run(sc.store, &ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectBitIdentical(*first, *second, "repeat");
}

}  // namespace
}  // namespace hermes::core
