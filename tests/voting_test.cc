#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/mathutil.h"
#include "datagen/noise.h"
#include "rtree/str_bulk_load.h"
#include "storage/env.h"
#include "voting/voting.h"

namespace hermes::voting {
namespace {

traj::Trajectory Line(traj::ObjectId id, double y, double t0, double length,
                      double speed, double dt) {
  traj::Trajectory t(id);
  double x = 0.0, now = t0;
  while (x <= length) {
    EXPECT_TRUE(t.Append({x, y, now}).ok());
    x += speed * dt;
    now += dt;
  }
  return t;
}

class VotingTest : public ::testing::Test {
 protected:
  VotingParams params_ = {/*sigma=*/50.0, /*cutoff_sigmas=*/3.0,
                          /*min_overlap_ratio=*/0.5};
};

TEST_F(VotingTest, SingleTrajectoryGetsZeroVotes) {
  traj::TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 1000, 10, 10)).ok());
  auto result = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(result.ok());
  for (double v : result->votes[0]) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(VotingTest, TwoCoMovingTrajectoriesVoteForEachOther) {
  traj::TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 1000, 10, 10)).ok());
  ASSERT_TRUE(store.Add(Line(2, 25, 0, 1000, 10, 10)).ok());  // 25m apart.
  auto result = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(result.ok());
  const double expected = GaussianKernel(25.0, 50.0);
  for (size_t tid = 0; tid < 2; ++tid) {
    for (double v : result->votes[tid]) {
      EXPECT_NEAR(v, expected, 0.02);
    }
  }
}

TEST_F(VotingTest, TemporallyDisjointNeverVote) {
  traj::TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 500, 10, 10)).ok());
  ASSERT_TRUE(store.Add(Line(2, 0, 10000, 500, 10, 10)).ok());  // Same path,
                                                                // hours later.
  auto result = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(result.ok());
  for (size_t tid = 0; tid < 2; ++tid) {
    for (double v : result->votes[tid]) EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST_F(VotingTest, BeyondCutoffContributesZero) {
  traj::TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 1000, 10, 10)).ok());
  ASSERT_TRUE(store.Add(Line(2, 200, 0, 1000, 10, 10)).ok());  // 4 sigma.
  auto result = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(result.ok());
  for (double v : result->votes[0]) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(VotingTest, VotesScaleWithLaneCardinality) {
  // 5 co-moving lanes 20m apart: middle lane collects the most votes.
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      5, 1, 20.0, 1000.0, 10.0, 10.0, /*seed=*/1, /*jitter=*/0.0);
  auto result = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(result.ok());
  const double middle = result->MeanVoting(2);
  const double edge = result->MeanVoting(0);
  EXPECT_GT(middle, edge);
  EXPECT_GT(middle, 2.0);  // Four voters, all within 40m.
}

TEST_F(VotingTest, IndexedMatchesNaiveExactly) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      4, 3, 60.0, 800.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/3.0);
  auto naive = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(naive.ok());

  auto env = storage::Env::NewMemEnv();
  auto index = rtree::BuildSegmentIndex(env.get(), "v.idx", store);
  ASSERT_TRUE(index.ok());
  auto indexed = ComputeVotingIndexed(store, **index, params_);
  ASSERT_TRUE(indexed.ok());

  ASSERT_EQ(naive->votes.size(), indexed->votes.size());
  for (size_t tid = 0; tid < naive->votes.size(); ++tid) {
    ASSERT_EQ(naive->votes[tid].size(), indexed->votes[tid].size());
    for (size_t i = 0; i < naive->votes[tid].size(); ++i) {
      EXPECT_NEAR(naive->votes[tid][i], indexed->votes[tid][i], 1e-9)
          << "tid=" << tid << " seg=" << i;
    }
  }
}

TEST_F(VotingTest, IndexPrunesCandidatePairs) {
  // Spread lanes far apart: the index must evaluate far fewer pairs.
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      8, 2, 5000.0, 800.0, 10.0, 10.0, /*seed=*/9, /*jitter=*/1.0);
  auto naive = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(naive.ok());
  auto env = storage::Env::NewMemEnv();
  auto index = rtree::BuildSegmentIndex(env.get(), "p.idx", store);
  ASSERT_TRUE(index.ok());
  auto indexed = ComputeVotingIndexed(store, **index, params_);
  ASSERT_TRUE(indexed.ok());
  EXPECT_LT(indexed->pairs_evaluated, naive->pairs_evaluated / 4);
}

TEST_F(VotingTest, ConvenienceWrapperWorks) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 2, 30.0, 500.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  auto result = ComputeVoting(store, params_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->votes.size(), 4u);
  EXPECT_GT(result->TotalVoting(0), 0.0);
}

TEST_F(VotingTest, RejectsNonPositiveSigma) {
  traj::TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 100, 10, 10)).ok());
  VotingParams bad = params_;
  bad.sigma = 0.0;
  EXPECT_TRUE(ComputeVotingNaive(store, bad).status().IsInvalidArgument());
  auto env = storage::Env::NewMemEnv();
  auto index = rtree::BuildSegmentIndex(env.get(), "bad.idx", store);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(
      ComputeVotingIndexed(store, **index, bad).status().IsInvalidArgument());
}

TEST_F(VotingTest, RejectsNonFiniteSigma) {
  // `sigma <= 0.0` alone let NaN through (every comparison is false).
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 2, 30.0, 500.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  const traj::SegmentArena arena = traj::SegmentArena::Build(store);
  const auto mem = rtree::BuildMemSegmentIndex(arena);
  auto env = storage::Env::NewMemEnv();
  auto index = rtree::BuildSegmentIndex(env.get(), "nonfinite.idx", arena);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->Flush().ok());
  for (const double sigma : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    VotingParams bad = params_;
    bad.sigma = sigma;
    SCOPED_TRACE(sigma);
    EXPECT_TRUE(ComputeVotingNaive(arena, store, bad)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(ComputeVotingIndexed(arena, store, *mem, bad)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(ComputeVotingIndexed(arena, store, **index, bad)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(ComputeVotingNaive(store, bad).status().IsInvalidArgument());
    EXPECT_TRUE(ComputeVoting(store, bad).status().IsInvalidArgument());
    EXPECT_TRUE(ComputeVotingParallel(store, env.get(), "nonfinite.idx", bad,
                                      2)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST_F(VotingTest, VoteForRespectsOverlapRatio) {
  // Other trajectory only covers 30% of the segment's lifespan.
  traj::Trajectory other(2);
  ASSERT_TRUE(other.Append({0, 10, 0}).ok());
  ASSERT_TRUE(other.Append({30, 10, 3}).ok());
  geom::Segment3D seg({0, 0, 0}, {100, 0, 10});
  VotingParams strict = params_;
  strict.min_overlap_ratio = 0.5;
  EXPECT_DOUBLE_EQ(VoteFor(seg, other, strict), 0.0);
  VotingParams lax = params_;
  lax.min_overlap_ratio = 0.2;
  EXPECT_GT(VoteFor(seg, other, lax), 0.0);
}

TEST_F(VotingTest, MeanAndTotalVotingConsistent) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      3, 1, 25.0, 400.0, 10.0, 10.0, /*seed=*/2, /*jitter=*/0.5);
  auto result = ComputeVotingNaive(store, params_);
  ASSERT_TRUE(result.ok());
  for (size_t tid = 0; tid < 3; ++tid) {
    const double total = result->TotalVoting(tid);
    const double mean = result->MeanVoting(tid);
    EXPECT_NEAR(total,
                mean * static_cast<double>(result->votes[tid].size()), 1e-9);
  }
}

TEST_F(VotingTest, ParallelMatchesSerialExactly) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      4, 3, 60.0, 800.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/3.0);
  auto env = storage::Env::NewMemEnv();
  auto index = rtree::BuildSegmentIndex(env.get(), "par.idx", store);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->Flush().ok());
  auto serial = ComputeVotingIndexed(store, **index, params_);
  ASSERT_TRUE(serial.ok());

  for (size_t threads : {1u, 2u, 4u, 7u}) {
    auto parallel =
        ComputeVotingParallel(store, env.get(), "par.idx", params_, threads);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    ASSERT_EQ(parallel->votes.size(), serial->votes.size());
    for (size_t tid = 0; tid < serial->votes.size(); ++tid) {
      for (size_t i = 0; i < serial->votes[tid].size(); ++i) {
        EXPECT_NEAR(parallel->votes[tid][i], serial->votes[tid][i], 1e-12);
      }
    }
    EXPECT_EQ(parallel->pairs_evaluated, serial->pairs_evaluated);
  }
}

TEST_F(VotingTest, ParallelValidatesArguments) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      2, 2, 60.0, 400.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
  auto env = storage::Env::NewMemEnv();
  EXPECT_TRUE(ComputeVotingParallel(store, env.get(), "missing.idx", params_,
                                    2)
                  .status()
                  .IsNotFound());
  auto index = rtree::BuildSegmentIndex(env.get(), "ok.idx", store);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->Flush().ok());
  EXPECT_TRUE(ComputeVotingParallel(store, env.get(), "ok.idx", params_, 0)
                  .status()
                  .IsInvalidArgument());
}

// Sigma sweep: larger bandwidth -> strictly more voting mass.
class VotingSigmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(VotingSigmaSweep, MonotoneInSigma) {
  traj::TrajectoryStore store = datagen::MakeParallelLanes(
      3, 2, 40.0, 600.0, 10.0, 10.0, /*seed=*/4, /*jitter=*/1.0);
  VotingParams narrow{GetParam(), 3.0, 0.5};
  VotingParams wide{GetParam() * 2.0, 3.0, 0.5};
  auto a = ComputeVotingNaive(store, narrow);
  auto b = ComputeVotingNaive(store, wide);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  double total_a = 0.0, total_b = 0.0;
  for (size_t tid = 0; tid < store.NumTrajectories(); ++tid) {
    total_a += a->TotalVoting(tid);
    total_b += b->TotalVoting(tid);
  }
  EXPECT_GE(total_b, total_a);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, VotingSigmaSweep,
                         ::testing::Values(20.0, 40.0, 80.0, 160.0));

}  // namespace
}  // namespace hermes::voting
