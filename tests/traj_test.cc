#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/mathutil.h"
#include "common/rng.h"
#include "traj/distance.h"
#include "traj/simplify.h"
#include "traj/sub_trajectory.h"
#include "traj/trajectory.h"
#include "traj/trajectory_store.h"

namespace hermes::traj {
namespace {

Trajectory Line(ObjectId id, double x0, double y0, double t0, double x1,
                double y1, double t1, int samples) {
  Trajectory t(id);
  for (int i = 0; i < samples; ++i) {
    const double u = static_cast<double>(i) / (samples - 1);
    EXPECT_TRUE(
        t.Append({x0 + (x1 - x0) * u, y0 + (y1 - y0) * u, t0 + (t1 - t0) * u})
            .ok());
  }
  return t;
}

// ---------------------------------------------------------------------------
// Trajectory
// ---------------------------------------------------------------------------

TEST(TrajectoryTest, AppendEnforcesMonotoneTime) {
  Trajectory t(1);
  EXPECT_TRUE(t.Append({0, 0, 0}).ok());
  EXPECT_TRUE(t.Append({1, 0, 1}).ok());
  EXPECT_TRUE(t.Append({2, 0, 1}).IsInvalidArgument());  // Equal time.
  EXPECT_TRUE(t.Append({2, 0, 0.5}).IsInvalidArgument());
  EXPECT_EQ(t.size(), 2u);
}

TEST(TrajectoryTest, AppendRejectsNonFinite) {
  Trajectory t(1);
  EXPECT_TRUE(t.Append({NAN, 0, 0}).IsInvalidArgument());
  EXPECT_TRUE(t.Append({0, INFINITY, 0}).IsInvalidArgument());
}

TEST(TrajectoryTest, BasicAccessors) {
  Trajectory t = Line(7, 0, 0, 10, 100, 0, 20, 11);
  EXPECT_EQ(t.object_id(), 7u);
  EXPECT_EQ(t.size(), 11u);
  EXPECT_EQ(t.NumSegments(), 10u);
  EXPECT_DOUBLE_EQ(t.StartTime(), 10.0);
  EXPECT_DOUBLE_EQ(t.EndTime(), 20.0);
  EXPECT_DOUBLE_EQ(t.Duration(), 10.0);
  EXPECT_NEAR(t.SpatialLength(), 100.0, 1e-9);
}

TEST(TrajectoryTest, SegmentAtGeometry) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 11);
  const geom::Segment3D s = t.SegmentAt(3);
  EXPECT_NEAR(s.a.x, 3.0, 1e-9);
  EXPECT_NEAR(s.b.x, 4.0, 1e-9);
  EXPECT_NEAR(s.duration(), 1.0, 1e-9);
}

TEST(TrajectoryTest, PositionAtInterpolates) {
  Trajectory t = Line(1, 0, 0, 0, 10, 20, 10, 2);
  auto p = t.PositionAt(5.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 5.0, 1e-9);
  EXPECT_NEAR(p->y, 10.0, 1e-9);
}

TEST(TrajectoryTest, PositionAtOutsideLifespan) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 2);
  EXPECT_FALSE(t.PositionAt(-1.0).has_value());
  EXPECT_FALSE(t.PositionAt(11.0).has_value());
  EXPECT_TRUE(t.PositionAt(0.0).has_value());
  EXPECT_TRUE(t.PositionAt(10.0).has_value());
}

TEST(TrajectoryTest, BoundsCoverSamples) {
  Trajectory t = Line(1, -5, 3, 2, 15, -7, 12, 5);
  const geom::Mbb3D b = t.Bounds();
  EXPECT_DOUBLE_EQ(b.min_x, -5.0);
  EXPECT_DOUBLE_EQ(b.max_x, 15.0);
  EXPECT_DOUBLE_EQ(b.min_y, -7.0);
  EXPECT_DOUBLE_EQ(b.max_y, 3.0);
  EXPECT_DOUBLE_EQ(b.min_t, 2.0);
  EXPECT_DOUBLE_EQ(b.max_t, 12.0);
}

TEST(TrajectoryTest, SliceInterior) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 11);
  const Trajectory s = t.Slice(2.5, 7.5);
  ASSERT_GE(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.StartTime(), 2.5);
  EXPECT_DOUBLE_EQ(s.EndTime(), 7.5);
  EXPECT_NEAR(s.front().x, 2.5, 1e-9);  // Interpolated entry.
  EXPECT_NEAR(s.back().x, 7.5, 1e-9);   // Interpolated exit.
  EXPECT_TRUE(s.Validate().ok());
}

TEST(TrajectoryTest, SliceCoveringWholeLifespan) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 11);
  const Trajectory s = t.Slice(-100, 100);
  EXPECT_EQ(s.size(), t.size());
  EXPECT_DOUBLE_EQ(s.StartTime(), 0.0);
  EXPECT_DOUBLE_EQ(s.EndTime(), 10.0);
}

TEST(TrajectoryTest, SliceDisjointIsEmpty) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 11);
  EXPECT_TRUE(t.Slice(20, 30).empty());
  EXPECT_TRUE(t.Slice(-10, -5).empty());
}

TEST(TrajectoryTest, SliceAlignsWithSampleTimes) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 11);
  const Trajectory s = t.Slice(3.0, 7.0);
  EXPECT_DOUBLE_EQ(s.StartTime(), 3.0);
  EXPECT_DOUBLE_EQ(s.EndTime(), 7.0);
  EXPECT_EQ(s.size(), 5u);  // 3,4,5,6,7 (boundaries are sample times).
  EXPECT_TRUE(s.Validate().ok());
}

TEST(TrajectoryTest, SlicePreservesPositions) {
  Trajectory t = Line(1, 0, 0, 0, 100, 50, 10, 21);
  const Trajectory s = t.Slice(2.3, 8.7);
  for (const auto& p : s.samples()) {
    auto orig = t.PositionAt(p.t);
    ASSERT_TRUE(orig.has_value());
    EXPECT_NEAR(p.x, orig->x, 1e-9);
    EXPECT_NEAR(p.y, orig->y, 1e-9);
  }
}

TEST(TrajectoryTest, ResampleUniformGrid) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 3);
  auto r = t.Resample(2.5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);  // 0, 2.5, 5, 7.5, 10.
  EXPECT_DOUBLE_EQ(r->EndTime(), 10.0);
}

TEST(TrajectoryTest, ResampleRejectsBadArgs) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 3);
  EXPECT_FALSE(t.Resample(0.0).ok());
  Trajectory single(1);
  ASSERT_TRUE(single.Append({0, 0, 0}).ok());
  EXPECT_FALSE(single.Resample(1.0).ok());
}

TEST(TrajectoryTest, ValidateDetectsCorruption) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 3);
  EXPECT_TRUE(t.Validate().ok());
}

// ---------------------------------------------------------------------------
// SubTrajectory
// ---------------------------------------------------------------------------

TEST(SubTrajectoryTest, AccessorsAndToString) {
  SubTrajectory st;
  st.id = 5;
  st.object_id = 9;
  st.points = Line(9, 0, 0, 10, 10, 0, 20, 5);
  st.mean_voting = 2.5;
  EXPECT_DOUBLE_EQ(st.StartTime(), 10.0);
  EXPECT_DOUBLE_EQ(st.EndTime(), 20.0);
  EXPECT_DOUBLE_EQ(st.Duration(), 10.0);
  EXPECT_NE(st.ToString().find("sub#5"), std::string::npos);
}

TEST(SubTrajectoryTest, TrimToWindowKeepsMetadata) {
  SubTrajectory st;
  st.id = 3;
  st.source_trajectory = 8;
  st.mean_voting = 1.5;
  st.points = Line(2, 0, 0, 0, 10, 0, 10, 11);
  const SubTrajectory trimmed = TrimToWindow(st, 2.0, 6.0);
  EXPECT_EQ(trimmed.id, 3u);
  EXPECT_EQ(trimmed.source_trajectory, 8u);
  EXPECT_DOUBLE_EQ(trimmed.mean_voting, 1.5);
  EXPECT_DOUBLE_EQ(trimmed.StartTime(), 2.0);
  EXPECT_DOUBLE_EQ(trimmed.EndTime(), 6.0);
}

TEST(SubTrajectoryTest, TrimToDisjointWindowEmpty) {
  SubTrajectory st;
  st.points = Line(2, 0, 0, 0, 10, 0, 10, 11);
  EXPECT_TRUE(TrimToWindow(st, 100, 200).points.empty());
}

// ---------------------------------------------------------------------------
// TrajectoryStore
// ---------------------------------------------------------------------------

TEST(StoreTest, AddAndRetrieve) {
  TrajectoryStore store;
  auto id = store.Add(Line(1, 0, 0, 0, 10, 0, 10, 5));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  EXPECT_EQ(store.NumTrajectories(), 1u);
  EXPECT_EQ(store.NumPoints(), 5u);
  EXPECT_EQ(store.NumSegments(), 4u);
  EXPECT_EQ(store.Get(0).object_id(), 1u);
}

TEST(StoreTest, RejectsEmptyTrajectory) {
  TrajectoryStore store;
  EXPECT_FALSE(store.Add(Trajectory(1)).ok());
}

TEST(StoreTest, TrajectoriesOfGroupsByObject) {
  TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 0, 1, 0, 1, 2)).ok());
  ASSERT_TRUE(store.Add(Line(2, 0, 0, 0, 1, 0, 1, 2)).ok());
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 2, 1, 0, 3, 2)).ok());
  EXPECT_EQ(store.TrajectoriesOf(1).size(), 2u);
  EXPECT_EQ(store.TrajectoriesOf(2).size(), 1u);
  EXPECT_TRUE(store.TrajectoriesOf(99).empty());
}

TEST(StoreTest, TimeDomainAndBounds) {
  TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 5, 10, 0, 15, 3)).ok());
  ASSERT_TRUE(store.Add(Line(2, -5, 2, 0, 3, 9, 8, 3)).ok());
  const auto [t0, t1] = store.TimeDomain();
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_DOUBLE_EQ(t1, 15.0);
  const geom::Mbb3D b = store.Bounds();
  EXPECT_DOUBLE_EQ(b.min_x, -5.0);
  EXPECT_DOUBLE_EQ(b.max_x, 10.0);
}

TEST(StoreTest, ResolveSegmentRef) {
  TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(1, 0, 0, 0, 10, 0, 10, 11)).ok());
  const geom::Segment3D s = store.Resolve({0, 4});
  EXPECT_NEAR(s.a.x, 4.0, 1e-9);
}

TEST(StoreTest, CsvRoundTrip) {
  TrajectoryStore store;
  ASSERT_TRUE(store.Add(Line(3, 0, 0, 0, 10, 5, 10, 4)).ok());
  ASSERT_TRUE(store.Add(Line(8, 2, 2, 1, 6, 6, 9, 3)).ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "hermes_store_test.csv")
          .string();
  ASSERT_TRUE(store.SaveCsv(path).ok());

  TrajectoryStore loaded;
  ASSERT_TRUE(loaded.LoadCsv(path).ok());
  EXPECT_EQ(loaded.NumTrajectories(), 2u);
  EXPECT_EQ(loaded.NumPoints(), 7u);
  std::filesystem::remove(path);
}

TEST(StoreTest, LoadCsvRejectsMalformedRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hermes_bad_test.csv")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("obj_id,t,x,y\n1,0,0\n", f);  // Missing a field.
    std::fclose(f);
  }
  TrajectoryStore store;
  EXPECT_TRUE(store.LoadCsv(path).IsCorruption());
  std::filesystem::remove(path);
}

TEST(StoreTest, LoadCsvMissingFile) {
  TrajectoryStore store;
  EXPECT_TRUE(store.LoadCsv("/nonexistent/nowhere.csv").IsIOError());
}

// ---------------------------------------------------------------------------
// Time-aware distance
// ---------------------------------------------------------------------------

TEST(DistanceTest, ParallelLanesConstant) {
  Trajectory a = Line(1, 0, 0, 0, 100, 0, 100, 11);
  Trajectory b = Line(2, 0, 30, 0, 100, 30, 100, 11);
  const TimeAwareDistance d = ComputeTimeAwareDistance(a, b);
  EXPECT_TRUE(d.Coexist());
  EXPECT_NEAR(d.avg, 30.0, 1e-6);
  EXPECT_NEAR(d.min, 30.0, 1e-6);
  EXPECT_DOUBLE_EQ(d.overlap, 100.0);
  EXPECT_DOUBLE_EQ(d.overlap_ratio, 1.0);
}

TEST(DistanceTest, DisjointLifespansInfinite) {
  Trajectory a = Line(1, 0, 0, 0, 100, 0, 10, 5);
  Trajectory b = Line(2, 0, 0, 20, 100, 0, 30, 5);
  const TimeAwareDistance d = ComputeTimeAwareDistance(a, b);
  EXPECT_FALSE(d.Coexist());
  EXPECT_TRUE(std::isinf(d.avg));
}

TEST(DistanceTest, SamePathStaggeredInTimeIsFar) {
  // Same spatial path, shifted by half the lifespan: spatially identical
  // but NOT co-moving. The time-aware distance must see a large average.
  Trajectory a = Line(1, 0, 0, 0, 1000, 0, 100, 21);
  Trajectory b = Line(2, 0, 0, 50, 1000, 0, 150, 21);
  const TimeAwareDistance d = ComputeTimeAwareDistance(a, b);
  EXPECT_TRUE(d.Coexist());
  // During the shared window [50, 100], b is always 500 m behind a.
  EXPECT_NEAR(d.avg, 500.0, 1.0);
  EXPECT_DOUBLE_EQ(d.overlap, 50.0);
  EXPECT_DOUBLE_EQ(d.overlap_ratio, 0.5);
}

TEST(DistanceTest, SymmetricInArguments) {
  Trajectory a = Line(1, 0, 0, 0, 80, 40, 60, 13);
  Trajectory b = Line(2, 10, -5, 10, 60, 70, 90, 9);
  const TimeAwareDistance ab = ComputeTimeAwareDistance(a, b);
  const TimeAwareDistance ba = ComputeTimeAwareDistance(b, a);
  EXPECT_NEAR(ab.avg, ba.avg, 1e-9);
  EXPECT_NEAR(ab.min, ba.min, 1e-9);
  EXPECT_NEAR(ab.overlap, ba.overlap, 1e-12);
}

TEST(DistanceTest, IdentityIsZero) {
  Trajectory a = Line(1, 0, 0, 0, 80, 40, 60, 13);
  const TimeAwareDistance d = ComputeTimeAwareDistance(a, a);
  EXPECT_NEAR(d.avg, 0.0, 1e-9);
  EXPECT_NEAR(d.min, 0.0, 1e-9);
}

TEST(DistanceTest, ClusteringDistanceEnforcesOverlap) {
  Trajectory a = Line(1, 0, 0, 0, 1000, 0, 100, 21);
  Trajectory b = Line(2, 0, 10, 90, 1000, 10, 190, 21);  // 10% overlap.
  EXPECT_TRUE(std::isinf(ClusteringDistance(a, b, 0.5)));
  EXPECT_TRUE(std::isfinite(ClusteringDistance(a, b, 0.05)));
}

TEST(DistanceTest, SimilarityInUnitRange) {
  Trajectory a = Line(1, 0, 0, 0, 100, 0, 100, 11);
  Trajectory b = Line(2, 0, 20, 0, 100, 20, 100, 11);
  const double sim = TimeAwareSimilarity(a, b, 50.0);
  EXPECT_GT(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  // Identical trajectories: similarity 1.
  EXPECT_NEAR(TimeAwareSimilarity(a, a, 50.0), 1.0, 1e-9);
  // Never co-existing: similarity 0.
  Trajectory c = Line(3, 0, 0, 500, 100, 0, 600, 11);
  EXPECT_DOUBLE_EQ(TimeAwareSimilarity(a, c, 50.0), 0.0);
}

TEST(DistanceTest, CloserLanesMoreSimilar) {
  Trajectory a = Line(1, 0, 0, 0, 100, 0, 100, 11);
  Trajectory near = Line(2, 0, 10, 0, 100, 10, 100, 11);
  Trajectory far = Line(3, 0, 60, 0, 100, 60, 100, 11);
  EXPECT_GT(TimeAwareSimilarity(a, near, 30.0),
            TimeAwareSimilarity(a, far, 30.0));
}

// ---------------------------------------------------------------------------
// Cut-off clustering distance: exact up to the limit
// ---------------------------------------------------------------------------

/// A random polyline of 2..8 samples starting at (x0, y0, t0): steps of up
/// to `step` in x and y, time steps in (0, dt].
Trajectory RandomWalk(Rng* rng, double x0, double y0, double t0, double step,
                      double dt) {
  Trajectory t(1);
  const int n = 2 + static_cast<int>(rng->NextBelow(7));
  double x = x0, y = y0, time = t0;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(t.Append({x, y, time}).ok());
    x += rng->Uniform(-step, step);
    y += rng->Uniform(-step, step);
    time += dt * (1.0 - rng->NextDouble());
  }
  return t;
}

/// `t` moved by (dx, dy, dt).
Trajectory Moved(const Trajectory& t, double dx, double dy, double dt) {
  std::vector<geom::Point3D> pts;
  for (const auto& p : t.samples()) {
    pts.push_back({p.x + dx, p.y + dy, p.t + dt});
  }
  return Trajectory(2, std::move(pts));
}

/// The pre-cut-off definition: the average of the full time-aware distance.
double ReferenceClusteringDistance(const Trajectory& a, const Trajectory& b,
                                   double min_overlap_ratio) {
  const TimeAwareDistance d = ComputeTimeAwareDistance(a, b);
  if (!d.Coexist() || d.overlap_ratio < min_overlap_ratio) {
    return std::numeric_limits<double>::infinity();
  }
  return d.avg;
}

double ReferenceSimilarity(const Trajectory& a, const Trajectory& b,
                           double sigma, double min_overlap_ratio) {
  const TimeAwareDistance d = ComputeTimeAwareDistance(a, b);
  if (!d.Coexist() || d.overlap_ratio < min_overlap_ratio) return 0.0;
  return GaussianKernel(d.avg, sigma) * Clamp(d.overlap_ratio, 0.0, 1.0);
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

TEST(DistanceTest, CutOffDistanceIsExactUpToTheLimit) {
  // About 10k seeded pairs in five families, at coordinates offset by 0
  // or 1e7 and times offset by 0 or 1e9: free random pairs; pairs whose
  // boxes touch or sit a few ulps apart (the second piece starts just
  // past where the first ends, in space and in time); translated copies;
  // copies shifted by a box width; and zero-crossing pieces that meet for
  // a sliver of time, where interpolating between coordinates of
  // different magnitude errs by ulps of the extent — more than the gap.
  Rng rng(20181);
  size_t pairs = 0, pruned = 0, exact_at_limit = 0;
  const double kInf = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5000; ++round) {
    const int family = round % 5;
    const double off = (round / 5) % 2 == 0 ? 0.0 : 1e7;
    const double toff = (round / 10) % 2 == 0 ? 0.0 : 1e9;
    const double step = std::pow(10.0, rng.Uniform(-3.0, 3.0));
    const double dt = std::pow(10.0, rng.Uniform(-3.0, 2.0));
    Trajectory a = RandomWalk(&rng, off, off, toff, step, dt);
    std::vector<Trajectory> others;
    switch (family) {
      case 0:
        others.push_back(RandomWalk(&rng, off + rng.Uniform(-4, 4) * step,
                                    off + rng.Uniform(-4, 4) * step,
                                    toff + rng.Uniform(-2, 2) * dt, step, dt));
        break;
      case 1: {
        // Starts k ulps right of a's box, at a's end time less a sliver.
        const int k = static_cast<int>(rng.NextBelow(4));
        double x = a.Bounds().max_x;
        for (int i = 0; i < k; ++i) x = std::nextafter(x, kInf);
        const double sliver =
            a.Duration() * std::pow(10.0, rng.Uniform(-9, 0));
        Trajectory b(2);
        double bx = x, by = a.back().y, bt = a.EndTime() - sliver;
        const int n = 2 + static_cast<int>(rng.NextBelow(4));
        for (int i = 0; i < n; ++i) {
          EXPECT_TRUE(b.Append({bx, by, bt}).ok());
          bx += step * rng.NextDouble();
          by += rng.Uniform(-step, step);
          bt += dt * (1.0 - rng.NextDouble());
        }
        others.push_back(std::move(b));
        break;
      }
      case 2:
        others.push_back(Moved(a, step * std::pow(10.0, rng.Uniform(-12, 1)),
                               0.0, dt * rng.Uniform(-0.5, 0.5)));
        break;
      case 3: {
        const geom::Mbb3D box = a.Bounds();
        const double width = box.max_x - box.min_x;
        others.push_back(Moved(
            a, width * (1.0 + std::pow(10.0, rng.Uniform(-12, 0))), 0.0, 0.0));
        others.push_back(a);
        break;
      }
      default: {
        // a runs slowly from x = -step up to e near 0 (its box's max) and
        // b from e + gap on; they co-exist for 1e-8 to 1e-6 time units.
        const double e = step * std::pow(10.0, rng.Uniform(-18, -15)) *
                         (rng.NextBool(0.5) ? 1.0 : -1.0);
        const double gap = step * std::pow(10.0, rng.Uniform(-17, -13));
        const double dur = std::pow(10.0, rng.Uniform(8, 11));
        const double sliver = std::pow(10.0, rng.Uniform(-8, -6));
        const double y = rng.Uniform(-step, step);
        a = Trajectory(1, {{-step, y, -dur}, {e, y, 0.0}});
        others.push_back(Trajectory(
            2, {{e + gap, y, -sliver}, {step, y + step * 1e-3, dur}}));
        break;
      }
    }
    const geom::Mbb3D ba = a.Bounds();
    for (const Trajectory& b : others) {
      const geom::Mbb3D bb = b.Bounds();
      for (double ratio : {0.0, 0.5}) {
        const double exact = ClusteringDistance(a, b, ratio);
        ASSERT_TRUE(SameBits(exact, ReferenceClusteringDistance(a, b, ratio)));
        ASSERT_TRUE(SameBits(TimeAwareSimilarity(a, b, step, ratio),
                             ReferenceSimilarity(a, b, step, ratio)));
        ++pairs;
        const double limits[] = {exact,
                                 std::nextafter(exact, kInf),
                                 std::nextafter(exact, -kInf),
                                 exact * 0.5,
                                 exact * rng.Uniform(0.9, 1.1),
                                 0.0,
                                 kInf};
        for (double limit : limits) {
          const double got = ClusteringDistance(a, ba, b, bb, ratio, limit);
          const double swapped = ClusteringDistance(b, bb, a, ba, ratio, limit);
          if (exact <= limit) {
            ASSERT_TRUE(SameBits(got, exact))
                << "round " << round << " limit " << limit << " exact "
                << exact << " got " << got;
            exact_at_limit += limit == exact;
          } else {
            ASSERT_GT(got, limit) << "round " << round;
            pruned += std::isinf(got) && std::isfinite(exact);
          }
          const double exact_ba = ClusteringDistance(b, a, ratio);
          if (exact_ba <= limit) {
            ASSERT_TRUE(SameBits(swapped, exact_ba)) << "round " << round;
          } else {
            ASSERT_GT(swapped, limit) << "round " << round;
          }
        }
      }
    }
  }
  EXPECT_GE(pairs, 10000u);
  // The bound does work, and the boundary case is exercised.
  EXPECT_GT(pruned, 1000u);
  EXPECT_GT(exact_at_limit, 1000u);
}

// ---------------------------------------------------------------------------
// Simplification & motion profiles
// ---------------------------------------------------------------------------

TEST(SimplifyTest, StraightLineCollapsesToEndpoints) {
  Trajectory t = Line(1, 0, 0, 0, 1000, 0, 100, 51);
  auto s = Simplify(t, 5.0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 2u);
  EXPECT_EQ(s->front(), t.front());
  EXPECT_EQ(s->back(), t.back());
}

TEST(SimplifyTest, CornerIsPreserved) {
  Trajectory t(1);
  for (int i = 0; i <= 10; ++i) {
    ASSERT_TRUE(t.Append({i * 100.0, 0.0, i * 10.0}).ok());
  }
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(t.Append({1000.0, i * 100.0, 100.0 + i * 10.0}).ok());
  }
  auto s = Simplify(t, 5.0);
  ASSERT_TRUE(s.ok());
  ASSERT_GE(s->size(), 3u);
  // The corner sample (1000, 0) must survive.
  bool corner = false;
  for (const auto& p : s->samples()) {
    if (p.x == 1000.0 && p.y == 0.0) corner = true;
  }
  EXPECT_TRUE(corner);
}

TEST(SimplifyTest, TemporalGuardKeepsSpeedChanges) {
  // Spatially straight but the object stops in the middle: a pure spatial
  // simplifier would drop everything; the temporal guard must keep the
  // dwell points (the interpolated position at their time is far off).
  Trajectory t(1);
  ASSERT_TRUE(t.Append({0, 0, 0}).ok());
  ASSERT_TRUE(t.Append({500, 0, 50}).ok());
  ASSERT_TRUE(t.Append({500.1, 0, 500}).ok());  // Long dwell.
  ASSERT_TRUE(t.Append({1000, 0, 550}).ok());
  auto s = Simplify(t, 10.0);
  ASSERT_TRUE(s.ok());
  EXPECT_GE(s->size(), 3u);  // The dwell boundary samples survive.
}

TEST(SimplifyTest, ErrorBoundHolds) {
  // Every original sample must be within epsilon of the simplified
  // trajectory's synchronized position.
  Trajectory t(1);
  for (int i = 0; i <= 60; ++i) {
    const double x = i * 20.0;
    const double y = 40.0 * std::sin(i * 0.4);
    ASSERT_TRUE(t.Append({x, y, i * 5.0}).ok());
  }
  const double eps = 15.0;
  auto s = Simplify(t, eps);
  ASSERT_TRUE(s.ok());
  EXPECT_LT(s->size(), t.size());
  for (const auto& p : t.samples()) {
    auto at = s->PositionAt(p.t);
    ASSERT_TRUE(at.has_value());
    EXPECT_LE(geom::Distance(p.xy(), *at), eps + 1e-9);
  }
}

TEST(SimplifyTest, RejectsBadEpsilon) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 5);
  EXPECT_FALSE(Simplify(t, 0.0).ok());
  EXPECT_FALSE(Simplify(t, -1.0).ok());
}

TEST(SimplifyTest, TinyTrajectoriesUnchanged) {
  Trajectory t = Line(1, 0, 0, 0, 10, 0, 10, 2);
  auto s = Simplify(t, 1.0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 2u);
}

TEST(MotionProfileTest, SpeedsAndHeadings) {
  Trajectory t(1);
  ASSERT_TRUE(t.Append({0, 0, 0}).ok());
  ASSERT_TRUE(t.Append({100, 0, 10}).ok());   // East at 10 m/s.
  ASSERT_TRUE(t.Append({100, 50, 15}).ok());  // North at 10 m/s.
  const MotionProfile p = ComputeMotionProfile(t);
  ASSERT_EQ(p.speeds.size(), 2u);
  EXPECT_NEAR(p.speeds[0], 10.0, 1e-9);
  EXPECT_NEAR(p.speeds[1], 10.0, 1e-9);
  EXPECT_NEAR(p.headings[0], 0.0, 1e-9);
  EXPECT_NEAR(p.headings[1], M_PI / 2, 1e-9);
  EXPECT_NEAR(p.MeanSpeed(), 10.0, 1e-9);
  EXPECT_NEAR(p.MaxSpeed(), 10.0, 1e-9);
}

TEST(MotionProfileTest, TotalTurningOfLoop) {
  // A full circle turns by ~2*pi.
  Trajectory t(1);
  for (int i = 0; i <= 36; ++i) {
    const double a = 2 * M_PI * i / 36;
    ASSERT_TRUE(
        t.Append({100 * std::cos(a), 100 * std::sin(a), i * 10.0}).ok());
  }
  // 36 segments -> 35 interior heading changes of 2*pi/36 each.
  EXPECT_NEAR(TotalTurning(t), 2 * M_PI * 35.0 / 36.0, 1e-6);
  EXPECT_TRUE(LooksLikeLoop(t));
}

TEST(MotionProfileTest, StraightPathIsNotALoop) {
  Trajectory t = Line(1, 0, 0, 0, 1000, 10, 100, 21);
  EXPECT_NEAR(TotalTurning(t), 0.0, 1e-6);
  EXPECT_FALSE(LooksLikeLoop(t));
}

// Triangle-ish property on co-temporal trajectories: the synchronized
// average distance is a proper metric when lifespans coincide.
class DistanceTriangle : public ::testing::TestWithParam<double> {};

TEST_P(DistanceTriangle, HoldsForCotemporalLanes) {
  const double gap = GetParam();
  Trajectory a = Line(1, 0, 0, 0, 100, 0, 100, 11);
  Trajectory b = Line(2, 0, gap, 0, 100, gap, 100, 11);
  Trajectory c = Line(3, 0, 2 * gap, 0, 100, 2 * gap, 100, 11);
  const double ab = ComputeTimeAwareDistance(a, b).avg;
  const double bc = ComputeTimeAwareDistance(b, c).avg;
  const double ac = ComputeTimeAwareDistance(a, c).avg;
  EXPECT_LE(ac, ab + bc + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Gaps, DistanceTriangle,
                         ::testing::Values(5.0, 20.0, 75.0, 200.0));

}  // namespace
}  // namespace hermes::traj
