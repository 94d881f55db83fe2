#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "clustering/greedy_clustering.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "core/s2t_clustering.h"
#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "sampling/saco_sampling.h"
#include "traj/distance.h"

namespace hermes {
namespace {

using clustering::ClusterAroundRepresentatives;
using clustering::ClusteringParams;
using sampling::SamplingParams;
using sampling::SelectRepresentatives;

/// Builds a sub-trajectory moving along x at `y`, over [t0, t0+dur].
traj::SubTrajectory Sub(traj::SubTrajectoryId id, double y, double t0,
                        double dur, double voting, int samples = 11) {
  traj::SubTrajectory st;
  st.id = id;
  st.object_id = id;
  st.mean_voting = voting;
  traj::Trajectory t(id);
  for (int i = 0; i < samples; ++i) {
    const double u = static_cast<double>(i) / (samples - 1);
    EXPECT_TRUE(t.Append({u * 1000.0, y, t0 + u * dur}).ok());
  }
  st.points = std::move(t);
  return st;
}

SamplingParams DefaultSampling() {
  SamplingParams p;
  p.max_representatives = 8;
  p.gain_stop_ratio = 0.05;
  p.sigma = 50.0;
  p.min_overlap_ratio = 0.5;
  return p;
}

// ---------------------------------------------------------------------------
// SaCO sampling
// ---------------------------------------------------------------------------

TEST(SamplingTest, EmptyInputNoReps) {
  EXPECT_TRUE(SelectRepresentatives({}, DefaultSampling()).empty());
}

TEST(SamplingTest, PicksHighestScoredFirst) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, /*voting=*/1.0));
  subs.push_back(Sub(1, 5000, 0, 100, /*voting=*/9.0));  // Far lane, hot.
  subs.push_back(Sub(2, 10000, 0, 100, /*voting=*/4.0));
  const auto reps = SelectRepresentatives(subs, DefaultSampling());
  ASSERT_FALSE(reps.empty());
  EXPECT_EQ(reps[0], 1u);
}

TEST(SamplingTest, CoverageSuppressesNearDuplicates) {
  // Two nearly identical hot sub-trajectories plus one distant cool one:
  // greedy must pick one of the twins, then the distant one.
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 9.0));
  subs.push_back(Sub(1, 1, 0, 100, 8.9));      // Twin of 0.
  subs.push_back(Sub(2, 8000, 0, 100, 3.0));   // Far away.
  SamplingParams p = DefaultSampling();
  p.max_representatives = 2;
  const auto reps = SelectRepresentatives(subs, p);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0], 0u);
  EXPECT_EQ(reps[1], 2u);  // Not the twin.
}

TEST(SamplingTest, MaxRepresentativesBound) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 20; ++i) {
    subs.push_back(Sub(i, i * 5000.0, 0, 100, 5.0));
  }
  SamplingParams p = DefaultSampling();
  p.max_representatives = 4;
  EXPECT_EQ(SelectRepresentatives(subs, p).size(), 4u);
}

TEST(SamplingTest, GainStopRatioTerminatesEarly) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 100.0));      // Dominant.
  subs.push_back(Sub(1, 9000, 0, 100, 0.5));     // Tiny gain.
  subs.push_back(Sub(2, 18000, 0, 100, 0.4));
  SamplingParams p = DefaultSampling();
  p.gain_stop_ratio = 0.05;  // 5% of first gain = 5.0 > 0.5.
  const auto reps = SelectRepresentatives(subs, p);
  EXPECT_EQ(reps.size(), 1u);
}

TEST(SamplingTest, ZeroVotingNeverSelected) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 0.0));
  subs.push_back(Sub(1, 100, 0, 100, 0.0));
  EXPECT_TRUE(SelectRepresentatives(subs, DefaultSampling()).empty());
}

TEST(SamplingTest, BaseScoreWeighsVotingAndDuration) {
  const auto short_hot = Sub(0, 0, 0, 10, 8.0);
  const auto long_warm = Sub(1, 0, 0, 100, 2.0);
  EXPECT_GT(sampling::BaseScore(long_warm), sampling::BaseScore(short_hot));
}

// ---------------------------------------------------------------------------
// Greedy clustering
// ---------------------------------------------------------------------------

TEST(ClusteringTest, MembersJoinNearestRep) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));      // Rep A.
  subs.push_back(Sub(1, 1000, 0, 100, 5.0));   // Rep B.
  subs.push_back(Sub(2, 30, 0, 100, 1.0));     // Near A.
  subs.push_back(Sub(3, 960, 0, 100, 1.0));    // Near B.
  ClusteringParams p{/*epsilon=*/100.0, /*min_overlap_ratio=*/0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0, 1}, p);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_TRUE(result.outliers.empty());
  const auto assign = result.Assignment(subs.size());
  EXPECT_EQ(assign[2], assign[0]);
  EXPECT_EQ(assign[3], assign[1]);
  EXPECT_NE(assign[0], assign[1]);
}

TEST(ClusteringTest, FarSubTrajectoriesAreOutliers) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  subs.push_back(Sub(1, 5000, 0, 100, 1.0));  // Way beyond epsilon.
  ClusteringParams p{100.0, 0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0}, p);
  ASSERT_EQ(result.clusters.size(), 1u);
  ASSERT_EQ(result.outliers.size(), 1u);
  EXPECT_EQ(result.outliers[0], 1u);
}

TEST(ClusteringTest, TemporalMisalignmentMakesOutliers) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  subs.push_back(Sub(1, 0, 500, 100, 1.0));  // Same path, later time.
  ClusteringParams p{100.0, 0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0}, p);
  EXPECT_EQ(result.outliers.size(), 1u);
}

TEST(ClusteringTest, RepresentativeIsMemberOfOwnCluster) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  const auto result =
      ClusterAroundRepresentatives(subs, {0}, ClusteringParams{});
  ASSERT_EQ(result.clusters.size(), 1u);
  ASSERT_EQ(result.clusters[0].members.size(), 1u);
  EXPECT_EQ(result.clusters[0].members[0], 0u);
}

TEST(ClusteringTest, NoRepsEverythingOutlier) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  subs.push_back(Sub(1, 10, 0, 100, 5.0));
  const auto result =
      ClusterAroundRepresentatives(subs, {}, ClusteringParams{});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.outliers.size(), 2u);
}

TEST(ClusteringTest, AssignmentAndTotalsConsistent) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 12; ++i) {
    subs.push_back(Sub(i, (i % 3) * 1000.0 + (i / 3) * 10.0, 0, 100, 2.0));
  }
  ClusteringParams p{100.0, 0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0, 1, 2}, p);
  EXPECT_EQ(result.TotalMembers() + result.outliers.size(), subs.size());
  const auto assign = result.Assignment(subs.size());
  size_t assigned = 0;
  for (int a : assign) assigned += (a >= 0);
  EXPECT_EQ(assigned, result.TotalMembers());
}

// Epsilon sweep: more permissive epsilon never creates more outliers.
class EpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweep, OutliersMonotoneInEpsilon) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 10; ++i) {
    subs.push_back(Sub(i, i * 40.0, 0, 100, 2.0));
  }
  ClusteringParams tight{GetParam(), 0.5};
  ClusteringParams loose{GetParam() * 2.0, 0.5};
  const auto a = ClusterAroundRepresentatives(subs, {0}, tight);
  const auto b = ClusterAroundRepresentatives(subs, {0}, loose);
  EXPECT_GE(a.outliers.size(), b.outliers.size());
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweep,
                         ::testing::Values(20.0, 50.0, 120.0, 250.0));

// ---------------------------------------------------------------------------
// Exactness: the eager loops as oracles
// ---------------------------------------------------------------------------

/// The full time-aware distance, with no early exit and no cut-off.
traj::TimeAwareDistance RefDistance(const traj::SubTrajectory& a,
                                    const traj::SubTrajectory& b) {
  return traj::ComputeTimeAwareDistance(a.points, b.points);
}

/// Greedy sampling as it was before the lazy evaluation: after each pick,
/// every sub-trajectory's similarity to the new representative.
std::vector<size_t> RefSelectRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const SamplingParams& params) {
  std::vector<size_t> chosen;
  const size_t n = subs.size();
  if (n == 0 || params.max_representatives == 0) return chosen;
  std::vector<double> base(n);
  std::vector<double> max_sim(n, 0.0);
  for (size_t i = 0; i < n; ++i) base[i] = sampling::BaseScore(subs[i]);
  double first_gain = 0.0;
  while (chosen.size() < params.max_representatives) {
    size_t best = n;
    double best_gain = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (max_sim[i] >= 1.0) continue;
      const double gain = base[i] * (1.0 - max_sim[i]);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == n || best_gain <= 0.0) break;
    if (chosen.empty()) {
      first_gain = best_gain;
    } else if (best_gain < params.gain_stop_ratio * first_gain) {
      break;
    }
    chosen.push_back(best);
    max_sim[best] = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if (max_sim[i] >= 1.0) continue;
      const traj::TimeAwareDistance d = RefDistance(subs[i], subs[best]);
      const double sim =
          !d.Coexist() || d.overlap_ratio < params.min_overlap_ratio
              ? 0.0
              : GaussianKernel(d.avg, params.sigma) *
                    Clamp(d.overlap_ratio, 0.0, 1.0);
      max_sim[i] = std::max(max_sim[i], sim);
    }
  }
  return chosen;
}

/// Greedy clustering as it was before the cut-off: the exact distance to
/// every representative.
clustering::ClusteringResult RefClusterAroundRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const std::vector<size_t>& representative_indices,
    const ClusteringParams& params) {
  clustering::ClusteringResult out;
  std::unordered_set<size_t> rep_set(representative_indices.begin(),
                                     representative_indices.end());
  for (size_t rep : representative_indices) {
    clustering::Cluster c;
    c.representative = rep;
    c.members.push_back(rep);
    out.clusters.push_back(std::move(c));
  }
  for (size_t i = 0; i < subs.size(); ++i) {
    if (rep_set.count(i) > 0) continue;
    double best_dist = std::numeric_limits<double>::infinity();
    size_t best_cluster = out.clusters.size();
    for (size_t ci = 0; ci < out.clusters.size(); ++ci) {
      const traj::TimeAwareDistance d =
          RefDistance(subs[i], subs[out.clusters[ci].representative]);
      const double dist =
          !d.Coexist() || d.overlap_ratio < params.min_overlap_ratio
              ? std::numeric_limits<double>::infinity()
              : d.avg;
      if (dist < best_dist) {
        best_dist = dist;
        best_cluster = ci;
      }
    }
    if (best_cluster < out.clusters.size() && best_dist <= params.epsilon) {
      out.clusters[best_cluster].members.push_back(i);
    } else {
      out.outliers.push_back(i);
    }
  }
  return out;
}

void ExpectSameClustering(const clustering::ClusteringResult& got,
                          const clustering::ClusteringResult& want) {
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (size_t c = 0; c < got.clusters.size(); ++c) {
    EXPECT_EQ(got.clusters[c].representative, want.clusters[c].representative);
    EXPECT_EQ(got.clusters[c].members, want.clusters[c].members);
  }
  EXPECT_EQ(got.outliers, want.outliers);
}

/// Sampling and clustering (around the sampled representatives, around
/// every third sub-trajectory, and around the first six, which in the
/// adversarial sets hold a duplicate pair and so distance ties) all equal
/// their oracles.
void ExpectMatchesOracles(const std::vector<traj::SubTrajectory>& subs,
                          const SamplingParams& sp,
                          const ClusteringParams& cp) {
  const std::vector<size_t> reps = SelectRepresentatives(subs, sp);
  ASSERT_EQ(reps, RefSelectRepresentatives(subs, sp));
  ExpectSameClustering(ClusterAroundRepresentatives(subs, reps, cp),
                       RefClusterAroundRepresentatives(subs, reps, cp));
  std::vector<size_t> every_third;
  for (size_t i = 0; i < subs.size(); i += 3) every_third.push_back(i);
  ExpectSameClustering(ClusterAroundRepresentatives(subs, every_third, cp),
                       RefClusterAroundRepresentatives(subs, every_third, cp));
  std::vector<size_t> leading;
  for (size_t i = 0; i < subs.size() && i < 6; ++i) leading.push_back(i);
  ExpectSameClustering(ClusterAroundRepresentatives(subs, leading, cp),
                       RefClusterAroundRepresentatives(subs, leading, cp));
}

/// The sub-trajectories S2T feeds to sampling: datagen store, voting, NaTS.
std::vector<traj::SubTrajectory> PipelineSubs(
    const traj::TrajectoryStore& store, const core::S2TParams& params) {
  auto result = core::S2TClustering(params).Run(store);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result->sub_trajectories)
                     : std::vector<traj::SubTrajectory>{};
}

TEST(ExactnessTest, DatagenPipelinesMatchOracles) {
  size_t cases = 0;
  for (uint64_t seed : {1, 2, 3}) {
    datagen::AircraftScenarioParams ap =
        datagen::AircraftScenarioParams::Default();
    ap.num_flights = 24;
    ap.seed = seed;
    datagen::MaritimeScenarioParams mp;
    mp.num_ships = 24;
    mp.seed = seed;
    datagen::UrbanScenarioParams up;
    up.num_vehicles = 24;
    up.seed = seed;
    auto air = datagen::GenerateAircraftScenario(ap);
    auto sea = datagen::GenerateMaritimeScenario(mp);
    auto city = datagen::GenerateUrbanScenario(up);
    ASSERT_TRUE(air.ok() && sea.ok() && city.ok());
    // (store, two bandwidths each: sigma, with epsilon = 2 sigma).
    const std::vector<std::pair<const traj::TrajectoryStore*,
                                std::vector<double>>>
        scenarios = {{&air->store, {1500.0, 4000.0}},
                     {&sea->store, {400.0, 1500.0}},
                     {&city->store, {50.0, 200.0}}};
    for (const auto& [store, sigmas] : scenarios) {
      for (double sigma : sigmas) {
        core::S2TParams params;
        params.SetSigma(sigma).SetEpsilon(2.0 * sigma);
        const auto subs = PipelineSubs(*store, params);
        ASSERT_FALSE(subs.empty());
        ExpectMatchesOracles(subs, params.sampling, params.clustering);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 18u);
}

/// Adversarial sub-trajectory sets: duplicates (similarity 1, gain ties),
/// boxes that touch, 2-point and zero-duration pieces, all optionally
/// offset by 1e7.
std::vector<traj::SubTrajectory> AdversarialSubs(uint64_t seed, double off) {
  Rng rng(seed);
  std::vector<traj::SubTrajectory> subs;
  auto add = [&](std::vector<geom::Point3D> pts, double voting) {
    traj::SubTrajectory st;
    st.id = subs.size();
    st.object_id = subs.size();
    st.mean_voting = voting;
    st.points = traj::Trajectory(st.id, std::move(pts));
    subs.push_back(std::move(st));
  };
  for (int lane = 0; lane < 12; ++lane) {
    // Lanes 100 apart; every third lane starts where the previous ends in
    // x (touching boxes), with ties in voting.
    const double y = off + 100.0 * (lane / 2);
    const double x0 = off + (lane % 3 == 2 ? 1000.0 : 0.0);
    const double t0 = rng.Uniform(0.0, 50.0);
    const int n = 2 + static_cast<int>(rng.NextBelow(6));
    std::vector<geom::Point3D> pts;
    for (int i = 0; i < n; ++i) {
      const double u = static_cast<double>(i) / (n - 1);
      pts.push_back({x0 + 1000.0 * u, y + rng.Uniform(-5.0, 5.0),
                     t0 + 100.0 * u});
    }
    const double voting = lane % 4 == 0 ? 2.0 : rng.Uniform(0.0, 4.0);
    add(pts, voting);
    if (lane % 3 == 0) add(pts, voting);  // A duplicate.
  }
  // Two-point pieces, one of them touching lane 0's box corner.
  add({{off + 1000.0, off + 200.0, 10.0}, {off + 1500.0, off + 210.0, 90.0}},
      3.0);
  add({{off - 500.0, off, 0.0}, {off, off, 100.0}}, 2.0);
  // Zero-duration pieces: one sample, and two samples at the same time.
  add({{off + 10.0, off + 10.0, 50.0}}, 5.0);
  add({{off + 10.0, off + 10.0, 50.0}, {off + 20.0, off + 10.0, 50.0}}, 5.0);
  return subs;
}

TEST(ExactnessTest, AdversarialSetsMatchOracles) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    for (double off : {0.0, 1e7}) {
      const auto subs = AdversarialSubs(seed, off);
      for (size_t max_reps : {1, 4, 64}) {
        for (double stop : {0.0, 0.05}) {
          for (double eps : {0.0, 30.0, 150.0, 1e9}) {
            SamplingParams sp;
            sp.max_representatives = max_reps;
            sp.gain_stop_ratio = stop;
            sp.sigma = 40.0;
            sp.min_overlap_ratio = 0.5;
            ClusteringParams cp{eps, 0.5};
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " off " << off << " reps "
                         << max_reps << " stop " << stop << " eps " << eps);
            ExpectMatchesOracles(subs, sp, cp);
            sp.min_overlap_ratio = 0.0;
            cp.min_overlap_ratio = 0.0;
            ExpectMatchesOracles(subs, sp, cp);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hermes
