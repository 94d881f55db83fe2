#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/mathutil.h"
#include "common/rng.h"
#include "geom/moving_point.h"
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
// Slice and the time-aware distance against their scan-and-sort versions
// ---------------------------------------------------------------------------

/// `Trajectory::Slice` as it was before it searched for its interior: a
/// scan of every sample, growing the output one sample at a time.
Trajectory ScanSlice(const Trajectory& t, double t0, double t1) {
  std::vector<geom::Point3D> out;
  if (t.empty() || t1 < t.StartTime() || t0 > t.EndTime()) {
    return Trajectory(t.object_id());
  }
  const double lo = std::max(t0, t.StartTime());
  const double hi = std::min(t1, t.EndTime());
  if (auto p = t.PositionAt(lo)) out.push_back({p->x, p->y, lo});
  for (const auto& s : t.samples()) {
    if (s.t > lo && s.t < hi) out.push_back(s);
  }
  if (hi > lo) {
    if (auto p = t.PositionAt(hi)) out.push_back({p->x, p->y, hi});
  }
  return Trajectory(t.object_id(), std::move(out));
}

/// The breakpoints of the time-aware distance as they were built before
/// the one-pass merge: both polylines' sample times inside (t0, t1) and
/// the two bounds, sorted, then deduplicated within the merge tolerance.
/// `candidates` receives the count before deduplication.
std::vector<double> SortedBreakpoints(const Trajectory& a, const Trajectory& b,
                                      double t0, double t1,
                                      size_t* candidates) {
  std::vector<double> ts;
  ts.push_back(t0);
  for (const auto& p : a.samples()) {
    if (p.t > t0 && p.t < t1) ts.push_back(p.t);
  }
  for (const auto& p : b.samples()) {
    if (p.t > t0 && p.t < t1) ts.push_back(p.t);
  }
  ts.push_back(t1);
  *candidates = ts.size();
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [](double x, double y) {
                         return AlmostEqual(x, y, 1e-9, 1e-9);
                       }),
           ts.end());
  return ts;
}

/// The average and minimum separation as computed before the one-pass
/// merge, for two polylines that co-exist: one binary search per position.
std::pair<double, double> SortedSeparation(const Trajectory& a,
                                           const Trajectory& b,
                                           std::vector<double>* ts,
                                           size_t* candidates) {
  const double t0 = std::max(a.StartTime(), b.StartTime());
  const double t1 = std::min(a.EndTime(), b.EndTime());
  *ts = SortedBreakpoints(a, b, t0, t1, candidates);
  auto sample_at = [](const Trajectory& t, double time) {
    auto p = t.PositionAt(time);
    return geom::Point3D{p->x, p->y, time};
  };
  double integral = 0.0;
  double min_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < ts->size(); ++i) {
    const double lo = (*ts)[i];
    const double hi = (*ts)[i + 1];
    if (hi <= lo) continue;
    geom::Segment3D sa(sample_at(a, lo), sample_at(a, hi));
    geom::Segment3D sb(sample_at(b, lo), sample_at(b, hi));
    const geom::MovingDistance md = geom::DistanceBetweenMoving(sa, sb);
    integral += md.avg_dist * (hi - lo);
    min_d = std::min(min_d, md.min_dist);
  }
  return {integral / (t1 - t0), min_d};
}

bool SameSamples(const Trajectory& x, const Trajectory& y) {
  return x.object_id() == y.object_id() && x.size() == y.size() &&
         (x.empty() || std::memcmp(x.samples().data(), y.samples().data(),
                                   x.size() * sizeof(geom::Point3D)) == 0);
}

/// The breakpoint merge tolerance at time `t`.
double MergeTol(double t) { return 1e-9 + 1e-9 * std::fabs(t); }

/// A polyline through `times` at random positions near (x0, y0).
Trajectory AtTimes(Rng* rng, ObjectId id, const std::vector<double>& times,
                   double x0, double y0, double step) {
  Trajectory t(id);
  double x = x0, y = y0;
  for (double time : times) {
    EXPECT_TRUE(t.Append({x, y, time}).ok());
    x += rng->Uniform(-step, step);
    y += rng->Uniform(-step, step);
  }
  return t;
}

TEST(BoundaryPathTest, SliceAndDistanceMatchScanAndSortVersions) {
  // Seeded pairs in five families at time offsets 0, 1e9, 1.7e9 and
  // 1.7e12 (merge tolerances 1e-9 to 1.7e3): free random walks; pairs
  // sharing some sample times; pairs whose times sit within about one
  // tolerance of each other, the second often ending within a tolerance
  // after a sample of the first, which drops the t1 tail; dense
  // interleaved chains whose steps are below the tolerance, so each kept
  // breakpoint absorbs several candidates; and spatially moved copies.
  // Each polyline and each pair is also sliced to windows on sample
  // times, inside segments, outside the lifespan and of zero length.
  Rng rng(2018);
  const double kInf = std::numeric_limits<double>::infinity();
  const double kOffsets[] = {0.0, 1e9, 1.7e9, 1.7e12};
  size_t slices = 0, distances = 0, merged = 0, dropped_tail = 0;
  for (int round = 0; round < 4000; ++round) {
    const int family = round % 5;
    const double toff = kOffsets[(round / 5) % 4];
    const double step = std::pow(10.0, rng.Uniform(-3.0, 3.0));
    const double tol = MergeTol(toff);
    Trajectory a, b;
    switch (family) {
      case 0: {
        const double dt = std::pow(10.0, rng.Uniform(-3.0, 2.0)) + tol;
        a = RandomWalk(&rng, 0, 0, toff, step, dt);
        b = RandomWalk(&rng, step, 0, toff + rng.Uniform(-2, 2) * dt, step,
                       dt);
        break;
      }
      case 1: {
        // b keeps about half of a's times and adds its own in between.
        a = RandomWalk(&rng, 0, 0, toff, step,
                       tol * std::pow(10.0, rng.Uniform(1, 4)));
        std::vector<double> ta, tb;
        for (const auto& p : a.samples()) ta.push_back(p.t);
        for (size_t i = 0; i < ta.size(); ++i) {
          if (rng.NextBool(0.5)) tb.push_back(ta[i]);
          if (i + 1 < ta.size() && rng.NextBool(0.3)) {
            tb.push_back(ta[i] + (ta[i + 1] - ta[i]) * rng.Uniform(0.1, 0.9));
          }
        }
        if (tb.size() < 2) tb = {ta.front(), ta.back()};
        b = AtTimes(&rng, 2, tb, 0, step, step);
        break;
      }
      case 2: {
        // b's times are a's, each moved by up to 1.5 tolerances; b ends a
        // fraction of a tolerance after one of a's samples (or runs on).
        std::vector<double> ta, tb;
        double t = toff;
        const int n = 3 + static_cast<int>(rng.NextBelow(6));
        for (int i = 0; i < n; ++i) {
          ta.push_back(t);
          t += MergeTol(t) * std::pow(10.0, rng.Uniform(0.7, 2.0));
        }
        const size_t end = 1 + rng.NextBelow(ta.size() - 1);
        for (size_t i = 0; i < end; ++i) {
          tb.push_back(ta[i] + MergeTol(ta[i]) * rng.Uniform(-1.5, 1.5));
        }
        tb.push_back(ta[end] + MergeTol(ta[end]) * rng.Uniform(-0.2, 1.0));
        if (tb.back() <= tb[tb.size() - 2]) tb.pop_back();
        if (tb.size() < 2) tb.push_back(ta.back() + 2 * MergeTol(ta.back()));
        a = AtTimes(&rng, 1, ta, 0, 0, step);
        b = AtTimes(&rng, 2, tb, step, 0, step);
        break;
      }
      case 3: {
        // One increasing sequence with steps of 0.2 to 0.9 tolerances,
        // dealt to a and b at random.
        std::vector<double> ta, tb;
        double t = toff;
        const int n = 6 + static_cast<int>(rng.NextBelow(20));
        for (int i = 0; i < n; ++i) {
          (rng.NextBool(0.5) ? ta : tb).push_back(t);
          t += MergeTol(t) * rng.Uniform(0.2, 0.9);
        }
        while (ta.size() < 2) ta.push_back(t += MergeTol(t) * 0.5);
        while (tb.size() < 2) tb.push_back(t += MergeTol(t) * 0.5);
        a = AtTimes(&rng, 1, ta, 0, 0, step);
        b = AtTimes(&rng, 2, tb, 0, step, step);
        break;
      }
      default: {
        const double dt = tol * std::pow(10.0, rng.Uniform(-1.0, 3.0));
        a = RandomWalk(&rng, 0, 0, toff, step, dt);
        b = Moved(a, step * rng.Uniform(-2, 2), step * rng.Uniform(-2, 2),
                  0.0);
        break;
      }
    }
    ASSERT_TRUE(a.Validate().ok()) << "round " << round;
    ASSERT_TRUE(b.Validate().ok()) << "round " << round;

    // Windows over the pair's time domain: on sample times, inside
    // segments, partly or wholly outside, and instantaneous.
    const double lo = std::min(a.StartTime(), b.StartTime());
    const double hi = std::max(a.EndTime(), b.EndTime());
    const double span = hi - lo;
    auto sample_time = [&]() {
      const Trajectory& t = rng.NextBool(0.5) ? a : b;
      return t[rng.NextBelow(t.size())].t;
    };
    auto inside = [&]() { return lo + span * rng.NextDouble(); };
    std::vector<std::pair<double, double>> windows = {
        {-kInf, kInf}, {lo - span, lo - span / 2}, {hi + span, hi + 2 * span},
        {lo - span, hi + span}};
    for (int k = 0; k < 4; ++k) {
      double w0 = sample_time(), w1 = sample_time();
      if (w1 < w0) std::swap(w0, w1);
      windows.push_back({w0, w1});
      double v0 = inside(), v1 = inside();
      if (v1 < v0) std::swap(v0, v1);
      windows.push_back({v0, v1});
      const double at = sample_time();
      windows.push_back({at, at});
      windows.push_back({v0, v0});
      windows.push_back({w0, v1 < w0 ? w0 : v1});
      windows.push_back({lo - span * rng.NextDouble(), v1});
    }

    auto check_distance = [&](const Trajectory& x, const Trajectory& y) {
      const TimeAwareDistance d = ComputeTimeAwareDistance(x, y);
      if (!d.Coexist()) return;
      std::vector<double> ts;
      size_t candidates = 0;
      const auto [avg, min] = SortedSeparation(x, y, &ts, &candidates);
      ASSERT_TRUE(SameBits(d.avg, avg)) << "round " << round;
      ASSERT_TRUE(SameBits(d.min, min)) << "round " << round;
      ++distances;
      merged += ts.size() < candidates;
      dropped_tail += ts.back() != std::min(x.EndTime(), y.EndTime());
    };
    check_distance(a, b);
    check_distance(b, a);
    for (const auto& [w0, w1] : windows) {
      const Trajectory sa = a.Slice(w0, w1);
      const Trajectory sb = b.Slice(w0, w1);
      ASSERT_TRUE(SameSamples(sa, ScanSlice(a, w0, w1)))
          << "round " << round << " window [" << w0 << ", " << w1 << "]";
      ASSERT_TRUE(SameSamples(sb, ScanSlice(b, w0, w1)))
          << "round " << round << " window [" << w0 << ", " << w1 << "]";
      slices += 2;
      check_distance(sa, b);
      check_distance(sa, sb);
    }
  }
  // Every family's feature is exercised, not merely allowed.
  EXPECT_GE(slices, 200000u);
  EXPECT_GE(distances, 100000u);
  EXPECT_GT(merged, 50000u);
  EXPECT_GT(dropped_tail, 20000u);
}

// ---------------------------------------------------------------------------
// The chord upper bound and the yes/no cut-off
// ---------------------------------------------------------------------------

/// A straight run through (x0, y0) at time `tc`, heading `angle` at
/// `speed`, sampled at `n` random times in [tc - half, tc + half].
Trajectory Crossing(Rng* rng, ObjectId id, double x0, double y0, double tc,
                    double half, double angle, double speed) {
  std::vector<double> times = {tc - half, tc + half};
  const int extra = static_cast<int>(rng->NextBelow(4));
  for (int i = 0; i < extra; ++i) times.push_back(tc + rng->Uniform(-half, half));
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  Trajectory t(id);
  for (double time : times) {
    const double s = (time - tc) * speed;
    EXPECT_TRUE(
        t.Append({x0 + s * std::cos(angle), y0 + s * std::sin(angle), time})
            .ok());
  }
  return t;
}

TEST(DistanceTest, UpperBoundCoversTheIntegralAndAtMostIsExact) {
  // Seeded pairs in seven families, each at coordinate offsets 0, 1e7 and
  // 3e8 and time offsets 0, 1e9 and 1.7e12: free random walks; straight
  // crossing runs whose separation touches 0; one path, copied or
  // resampled at other times, so the separation is rounding alone;
  // near-static sub-metre pieces; pairs far apart; pairs sharing some
  // sample times; and pairs whose times sit within about one merge
  // tolerance of each other, the second often dropping the t1 tail.
  Rng rng(20250);
  const double kInf = std::numeric_limits<double>::infinity();
  const double kOffsets[] = {0.0, 1e7, 3e8};
  const double kTimeOffsets[] = {0.0, 1e9, 1.7e12};
  size_t pairs = 0, rejected = 0, accepted = 0, integrated_count = 0;
  for (int round = 0; round < 3780; ++round) {
    const int family = round % 7;
    const double off = kOffsets[(round / 7) % 3];
    const double toff = kTimeOffsets[(round / 21) % 3];
    const double tol = MergeTol(toff);
    const double step = std::pow(10.0, rng.Uniform(-1.0, 3.0));
    const double dt = tol * std::pow(10.0, rng.Uniform(1.0, 4.0));
    Trajectory a, b;
    switch (family) {
      case 0:
        a = RandomWalk(&rng, off, off, toff, step, dt);
        b = RandomWalk(&rng, off + rng.Uniform(-4, 4) * step,
                       off + rng.Uniform(-4, 4) * step,
                       toff + rng.Uniform(-2, 2) * dt, step, dt);
        break;
      case 1: {
        // Both pass (off, off) at about the same time.
        const double half = dt * rng.Uniform(1.0, 5.0);
        const double speed = step / dt;
        const double tc = toff + half;
        a = Crossing(&rng, 1, off, off, tc, half, rng.Uniform(0, 6.3), speed);
        b = Crossing(&rng, 2, off + step * rng.Uniform(-1e-3, 1e-3), off,
                     tc + rng.Uniform(-0.01, 0.01) * half, half,
                     rng.Uniform(0, 6.3), speed * rng.Uniform(0.5, 2.0));
        break;
      }
      case 2: {
        // One path: a copy of a walk, or a walk or a long straight run
        // through (off, off) resampled at other times, so the separation
        // is rounding alone. Near the origin the run's moves are long
        // next to the ulps of its coordinates: there only the absolute
        // slack covers the rounding.
        const uint64_t kind = rng.NextBelow(3);
        a = RandomWalk(&rng, off, off, toff, step, dt);
        if (kind == 0) {
          b = a;
          break;
        }
        if (kind == 2) {
          const double run = step * rng.Uniform(1, 100);
          a = Trajectory(1, {{off - run, off - run * rng.Uniform(0.1, 2), toff},
                             {off + run * rng.Uniform(0.5, 2), off + run,
                              toff + dt}});
        }
        std::vector<double> tb = {a.StartTime(), a.EndTime()};
        for (int i = 0; i < 6; ++i) {
          tb.push_back(a.StartTime() + a.Duration() * rng.NextDouble());
        }
        std::sort(tb.begin(), tb.end());
        tb.erase(std::unique(tb.begin(), tb.end()), tb.end());
        b = Trajectory(2);
        for (double t : tb) {
          const geom::Point2D p = *a.PositionAt(t);
          ASSERT_TRUE(b.Append({p.x, p.y, t}).ok());
        }
        break;
      }
      case 3: {
        const double tiny = std::pow(10.0, rng.Uniform(-4.0, -0.5));
        a = RandomWalk(&rng, off, off, toff, tiny, dt);
        b = RandomWalk(&rng, off + rng.Uniform(-2, 2) * tiny, off,
                       toff + rng.Uniform(-1, 1) * dt, tiny, dt);
        break;
      }
      case 4:
        a = RandomWalk(&rng, off, off, toff, step, dt);
        b = Moved(a, step * std::pow(10.0, rng.Uniform(1.0, 3.0)),
                  step * rng.Uniform(-1, 1), dt * rng.Uniform(-0.5, 0.5));
        break;
      case 5: {
        a = RandomWalk(&rng, off, off, toff, step, dt);
        std::vector<double> ta, tb;
        for (const auto& p : a.samples()) ta.push_back(p.t);
        for (size_t i = 0; i < ta.size(); ++i) {
          if (rng.NextBool(0.6)) tb.push_back(ta[i]);
          if (i + 1 < ta.size() && rng.NextBool(0.3)) {
            tb.push_back(ta[i] + (ta[i + 1] - ta[i]) * rng.Uniform(0.1, 0.9));
          }
        }
        if (tb.size() < 2) tb = {ta.front(), ta.back()};
        b = AtTimes(&rng, 2, tb, off + step * rng.Uniform(-2, 2), off, step);
        break;
      }
      default: {
        std::vector<double> ta, tb;
        double t = toff;
        const int n = 3 + static_cast<int>(rng.NextBelow(6));
        for (int i = 0; i < n; ++i) {
          ta.push_back(t);
          t += MergeTol(t) * std::pow(10.0, rng.Uniform(0.7, 2.0));
        }
        const size_t end = 1 + rng.NextBelow(ta.size() - 1);
        for (size_t i = 0; i < end; ++i) {
          tb.push_back(ta[i] + MergeTol(ta[i]) * rng.Uniform(-1.5, 1.5));
        }
        tb.push_back(ta[end] + MergeTol(ta[end]) * rng.Uniform(-0.2, 1.0));
        if (tb.back() <= tb[tb.size() - 2]) tb.pop_back();
        if (tb.size() < 2) tb.push_back(ta.back() + 2 * MergeTol(ta.back()));
        a = AtTimes(&rng, 1, ta, off, off, step);
        b = AtTimes(&rng, 2, tb, off + step * rng.Uniform(-1, 1), off, step);
        break;
      }
    }
    ASSERT_TRUE(a.Validate().ok()) << "round " << round;
    ASSERT_TRUE(b.Validate().ok()) << "round " << round;

    auto check = [&](const Trajectory& x, const Trajectory& y) {
      const geom::Mbb3D bx = x.Bounds();
      const geom::Mbb3D by = y.Bounds();
      for (double ratio : {0.0, 0.5}) {
        const double d = ClusteringDistance(x, y, ratio);
        const double upper = ClusteringDistanceUpperBound(x, bx, y, by, ratio);
        ASSERT_GE(upper, d) << "round " << round << " ratio " << ratio;
        ++pairs;
        const double limits[] = {d,
                                 std::nextafter(d, kInf),
                                 std::nextafter(d, -kInf),
                                 d * (1 + 1e-9),
                                 d * (1 - 1e-9),
                                 0.99 * d,
                                 1.01 * d,
                                 0.0,
                                 2 * d};
        for (double limit : limits) {
          const bool want =
              ClusteringDistance(x, bx, y, by, ratio, limit) <= limit;
          bool integrated = true;
          const bool got =
              ClusteringDistanceAtMost(x, bx, y, by, ratio, limit, &integrated);
          ASSERT_EQ(got, want) << "round " << round << " limit " << limit
                               << " d " << d << " upper " << upper;
          if (std::isinf(d)) continue;  // Not admitted: no bound decides.
          if (integrated) {
            ++integrated_count;
          } else if (got) {
            ++accepted;
          } else {
            ++rejected;
          }
        }
      }
    };
    check(a, b);
    check(b, a);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(pairs, 15000u);
  // Each of the three decisions is exercised, not merely allowed.
  EXPECT_GE(rejected, 1000u);
  EXPECT_GE(accepted, 1000u);
  EXPECT_GE(integrated_count, 1000u);
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

// ---------------------------------------------------------------------------
// Time index: SliceSize, and the store's lifespan columns, zone maps and
// running aggregates against scans
// ---------------------------------------------------------------------------

/// A polyline of `n` samples from time `t0`, time steps in
/// [0.1, 1.1) * `dt` so they stay representable at epoch offsets.
Trajectory TimedWalk(Rng* rng, ObjectId id, double t0, double dt, int n) {
  Trajectory t(id);
  double x = rng->Uniform(-50, 50), y = rng->Uniform(-50, 50), time = t0;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(t.Append({x, y, time}).ok());
    x += rng->Uniform(-5, 5);
    y += rng->Uniform(-5, 5);
    time += dt * (0.1 + rng->NextDouble());
  }
  return t;
}

TEST(TimeIndexTest, SliceSizeIsTheSizeOfSlice) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(2029);
  size_t windows = 0;
  for (const double offset : {0.0, 1e9, 1.7e12}) {
    for (int trial = 0; trial < 60; ++trial) {
      const int n = 1 + static_cast<int>(rng.NextBelow(9));
      const Trajectory t = TimedWalk(&rng, 1, offset, 10.0, n);
      const double start = t.StartTime();
      const double end = t.EndTime();
      const double d = 0.5 + rng.NextDouble() * 20;
      std::vector<std::pair<double, double>> cuts = {
          {start, end},      {start - d, start}, {start, start + d},
          {end - d, end},    {end, end + d},     {end + d, end + 2 * d},
          {start - 2 * d, start - d},            {-inf, inf},
          {-inf, start},     {end, inf},         {-inf, -inf},
          {inf, inf},        {start, start},     {end, end},
          {std::nextafter(end, inf), inf},
          {-inf, std::nextafter(start, -inf)}};
      for (int i = 0; i < n; ++i) {
        const double ti = t[i].t;
        cuts.push_back({ti, ti});  // Zero length on a sample.
        for (int j = i; j < n; ++j) cuts.push_back({ti, t[j].t});
        if (i + 1 < n) {
          // Inside segment i: zero length, within it, and across others.
          const double gap = t[i + 1].t - ti;
          const double u = ti + gap * rng.NextDouble();
          const double v = u + (t[i + 1].t - u) * rng.NextDouble();
          cuts.push_back({u, u});
          cuts.push_back({u, v});
          cuts.push_back({u, end + gap * rng.NextDouble()});
          cuts.push_back({start - gap * rng.NextDouble(), v});
        }
      }
      for (const auto& [t0, t1] : cuts) {
        ASSERT_LE(t0, t1);
        EXPECT_EQ(t.SliceSize(t0, t1), t.Slice(t0, t1).size())
            << "offset " << offset << " trial " << trial << " [" << t0
            << ", " << t1 << "]";
        ++windows;
      }
    }
  }
  EXPECT_GT(windows, 3000u);
}

bool SameBox(const geom::Mbb3D& a, const geom::Mbb3D& b) {
  return std::memcmp(&a, &b, sizeof(geom::Mbb3D)) == 0;
}

/// Checks `store`'s time index against scans of its trajectories in id
/// order: the aggregates as the pre-index store computed them, each
/// slot's lifespan, each block's zone map, and `NextOverlapping` on
/// windows that end exactly on zone-map bounds.
void ExpectIndexMatchesScan(const TrajectoryStore& store,
                            const std::string& label) {
  SCOPED_TRACE(label);
  const size_t n = store.NumTrajectories();
  size_t segments = 0;
  geom::Mbb3D box;
  for (TrajectoryId id = 0; id < n; ++id) {
    segments += store.Get(id).NumSegments();
    box.Extend(store.Get(id).Bounds());
  }
  std::pair<double, double> domain = {0.0, 0.0};
  if (n > 0) {
    domain = {store.Get(0).StartTime(), store.Get(0).EndTime()};
    for (TrajectoryId id = 0; id < n; ++id) {
      domain.first = std::min(domain.first, store.Get(id).StartTime());
      domain.second = std::max(domain.second, store.Get(id).EndTime());
    }
  }
  EXPECT_EQ(store.NumSegments(), segments);
  EXPECT_TRUE(SameBox(store.Bounds(), box));
  EXPECT_TRUE(SameBits(store.TimeDomain().first, domain.first));
  EXPECT_TRUE(SameBits(store.TimeDomain().second, domain.second));

  ASSERT_EQ(store.NumBlocks(), (n + TrajBlock::kMask) / TrajBlock::kRows);
  std::vector<double> bounds;
  for (size_t b = 0; b < store.NumBlocks(); ++b) {
    const TrajBlock& block = store.block(b);
    double min_start = std::numeric_limits<double>::infinity();
    double max_end = -std::numeric_limits<double>::infinity();
    for (TrajectoryId id = b * TrajBlock::kRows;
         id < std::min<size_t>(n, (b + 1) * TrajBlock::kRows); ++id) {
      const Trajectory& t = store.Get(id);
      const size_t row = id & TrajBlock::kMask;
      EXPECT_EQ(block.slots[row].get(), &t);
      ASSERT_TRUE(SameBits(block.start[row], t.StartTime())) << id;
      ASSERT_TRUE(SameBits(block.end[row], t.EndTime())) << id;
      min_start = std::min(min_start, t.StartTime());
      max_end = std::max(max_end, t.EndTime());
    }
    EXPECT_TRUE(SameBits(block.min_start, min_start)) << "block " << b;
    EXPECT_TRUE(SameBits(block.max_end, max_end)) << "block " << b;
    bounds.push_back(min_start);
    bounds.push_back(max_end);
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> windows = {{-inf, inf}, {inf, inf}};
  for (size_t i = 0; i < bounds.size(); ++i) {
    windows.push_back({bounds[i], bounds[i]});
    windows.push_back({bounds[i], bounds[(i + 1) % bounds.size()]});
    windows.push_back({-inf, bounds[i]});
    windows.push_back({bounds[i], inf});
  }
  for (const auto& [t0, t1] : windows) {
    if (!(t0 <= t1)) continue;
    std::vector<TrajectoryId> want, got;
    for (TrajectoryId id = 0; id < n; ++id) {
      const Trajectory& t = store.Get(id);
      if (!t.Slice(t0, t1).empty()) want.push_back(id);
    }
    for (TrajectoryId id = store.NextOverlapping(0, t0, t1); id < n;
         id = store.NextOverlapping(id + 1, t0, t1)) {
      got.push_back(id);
    }
    EXPECT_EQ(got, want) << "[" << t0 << ", " << t1 << "]";
  }
}

TEST(TimeIndexTest, StoreIndexMatchesScansAfterEveryAddAndOnSnapshots) {
  Rng rng(1029);
  TrajectoryStore store;
  ExpectIndexMatchesScan(store, "empty");
  std::vector<std::pair<TrajectoryStore, size_t>> snapshots;
  const size_t total = 3 * TrajBlock::kRows - 200;  // 3 blocks, > 1,024.
  for (size_t i = 0; i < total; ++i) {
    Trajectory t;
    if (i == 3 || i == 900) {
      // Signed zeros: times and coordinates at -0.0 and +0.0.
      const double z = (i == 3) ? -0.0 : 0.0;
      t = Trajectory(i, {{z, -z, z}, {-z, z, 1.0}});
    } else if (i == 4 || i == 901) {
      const double z = (i == 4) ? 0.0 : -0.0;
      t = Trajectory(i, {{z, z, z}});
    } else if (rng.NextBool(0.05)) {
      // Out of order: an early or a late lifespan.
      t = TimedWalk(&rng, i, rng.Uniform(-500, 20000), 10.0,
                    1 + static_cast<int>(rng.NextBelow(6)));
    } else {
      // Live-feed order: starts advance with the id.
      t = TimedWalk(&rng, i, 10.0 * static_cast<double>(i), 8.0,
                    1 + static_cast<int>(rng.NextBelow(6)));
    }
    ASSERT_TRUE(store.Add(std::move(t)).ok());
    ExpectIndexMatchesScan(store, "after add " + std::to_string(i));
    if (i == 100 || i == TrajBlock::kRows - 1 || i == 700 || i == 1100) {
      snapshots.emplace_back(store.Snapshot(), i + 1);
    }
  }
  EXPECT_EQ(store.NumBlocks(), 3u);

  // Snapshots taken mid-block kept their own tail block.
  for (const auto& [snap, size] : snapshots) {
    EXPECT_EQ(snap.NumTrajectories(), size);
    ExpectIndexMatchesScan(snap, "snapshot of " + std::to_string(size));
  }

  TrajectoryStore copied(store);
  ExpectIndexMatchesScan(copied, "copy-constructed");
  TrajectoryStore assigned;
  ASSERT_TRUE(assigned.Add(Trajectory(7, {{1, 2, 3}})).ok());
  assigned = store;
  ExpectIndexMatchesScan(assigned, "copy-assigned");
  EXPECT_TRUE(SameBox(assigned.Bounds(), store.Bounds()));
  TrajectoryStore moved(std::move(copied));
  ExpectIndexMatchesScan(moved, "move-constructed");
  ExpectIndexMatchesScan(copied, "moved-from");  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copied.NumTrajectories(), 0u);       // NOLINT(bugprone-use-after-move)
  TrajectoryStore move_assigned;
  move_assigned = std::move(assigned);
  ExpectIndexMatchesScan(move_assigned, "move-assigned");
  EXPECT_TRUE(SameBits(move_assigned.TimeDomain().first,
                       store.TimeDomain().first));
  // A moved-from store starts its aggregates over.
  ASSERT_TRUE(assigned.Add(Trajectory(8, {{5, 6, 7}})).ok());  // NOLINT(bugprone-use-after-move)
  ExpectIndexMatchesScan(assigned, "reused after move");
  EXPECT_EQ(assigned.TimeDomain(), std::make_pair(7.0, 7.0));
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
