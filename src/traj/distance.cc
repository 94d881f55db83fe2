#include "traj/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/mathutil.h"
#include "geom/moving_point.h"

namespace hermes::traj {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Breakpoints closer than `AlmostEqual` with this absolute and relative
/// tolerance are merged.
constexpr double kBreakpointTol = 1e-9;

/// Slack of the cut-off's bounds (see `SeparationLowerBound` and
/// `SeparationUpperBound`).
constexpr double kRelSlack = 1e-6;
constexpr double kAbsSlack = 1e-6;

/// The common lifespan [t0, t1] of two polylines; `overlap` stays 0 when
/// they do not co-exist (or either has no segment).
struct Lifespan {
  double t0 = 0.0;
  double t1 = 0.0;
  double overlap = 0.0;
  double overlap_ratio = 0.0;

  /// The clustering distance is finite (the similarity non-zero).
  bool Admits(double min_overlap_ratio) const {
    return overlap > 0.0 && !(overlap_ratio < min_overlap_ratio);
  }
};

Lifespan CommonLifespan(const Trajectory& a, const Trajectory& b) {
  Lifespan s;
  if (a.size() < 2 || b.size() < 2) return s;
  s.t0 = std::max(a.StartTime(), b.StartTime());
  s.t1 = std::min(a.EndTime(), b.EndTime());
  if (s.t0 >= s.t1) return s;
  s.overlap = s.t1 - s.t0;
  const double min_dur = std::min(a.Duration(), b.Duration());
  s.overlap_ratio = min_dur > 0.0 ? s.overlap / min_dur : 0.0;
  return s;
}

/// Positions of one polyline at non-decreasing times inside its lifespan,
/// as `Trajectory::PositionAt` computes them, without a search per time.
struct PositionCursor {
  const std::vector<geom::Point3D>& s;
  size_t i = 0;  // First sample with t >= the last time asked.

  geom::Point3D At(double time) {
    while (s[i].t < time) ++i;
    if (i == 0) return {s[0].x, s[0].y, time};
    const geom::Point2D p = geom::InterpolateAt(s[i - 1], s[i], time);
    return {p.x, p.y, time};
  }
};

/// Calls `interval(pa, qa, pb, qb)` for each elementary interval of a
/// non-empty `span`, in ascending time: `pa`/`qa` are `a`'s positions at
/// the interval's ends (their `t`), `pb`/`qb` are `b`'s. Within one
/// interval both objects move linearly. Breakpoints are t0, both
/// polylines' sample times inside (t0, t1) and t1, merged in one pass.
/// One within `AlmostEqual`'s tolerance of the last kept breakpoint is
/// dropped, t1 too, so a tail under it drops out.
template <typename F>
void ForEachInterval(const Trajectory& a, const Trajectory& b,
                     const Lifespan& span, F&& interval) {
  const auto& sa = a.samples();
  const auto& sb = b.samples();
  size_t ia = 0, ib = 0;
  while (sa[ia].t <= span.t0) ++ia;
  while (sb[ib].t <= span.t0) ++ib;
  PositionCursor ca{sa}, cb{sb};
  double lo = span.t0;
  geom::Point3D pa = ca.At(lo), pb = cb.At(lo);
  auto keep = [&](double hi) {
    if (AlmostEqual(lo, hi, kBreakpointTol, kBreakpointTol)) return;
    const geom::Point3D qa = ca.At(hi), qb = cb.At(hi);
    interval(pa, qa, pb, qb);
    lo = hi;
    pa = qa;
    pb = qb;
  };
  while (sa[ia].t < span.t1 || sb[ib].t < span.t1) {
    keep(sb[ib].t < span.t1 && sb[ib].t < sa[ia].t ? sb[ib++].t : sa[ia++].t);
  }
  keep(span.t1);
}

/// Average and minimum synchronized separation over a non-empty `span`.
void Separation(const Trajectory& a, const Trajectory& b, const Lifespan& span,
                TimeAwareDistance* out) {
  double integral = 0.0;
  double min_d = kInf;
  ForEachInterval(a, b, span,
                  [&](const geom::Point3D& pa, const geom::Point3D& qa,
                      const geom::Point3D& pb, const geom::Point3D& qb) {
                    // The moving-point analysis is exact for an interval
                    // of linear motion.
                    const geom::MovingDistance md = geom::DistanceBetweenMoving(
                        geom::Segment3D(pa, qa), geom::Segment3D(pb, qb));
                    integral += md.avg_dist * (qa.t - pa.t);
                    min_d = std::min(min_d, md.min_dist);
                  });
  out->avg = integral / span.overlap;
  out->min = min_d;
}

/// The largest |coordinate| of two boxes: the scale of the rounding in
/// positions interpolated inside them.
double CoordinateScale(const geom::Mbb3D& box_a, const geom::Mbb3D& box_b) {
  return std::max({std::fabs(box_a.min_x), std::fabs(box_a.max_x),
                   std::fabs(box_a.min_y), std::fabs(box_a.max_y),
                   std::fabs(box_b.min_x), std::fabs(box_b.max_x),
                   std::fabs(box_b.min_y), std::fabs(box_b.max_y)});
}

/// A lower bound on what `Separation` computes as the average over `span`
/// of two polylines inside `box_a` and `box_b`.
///
/// Every separation the integral samples is between two positions
/// interpolated inside the boxes, so in exact arithmetic it is at least
/// the 2-D gap between the boxes. The computed value can fall below that
/// gap in three ways, and the bound gives each up:
/// - Rounding relative to the gap (the Simpson weights, the interval
///   lengths, the final division): `kRelSlack * gap`.
/// - Rounding of the coordinates themselves. An interpolated position can
///   leave its box by an ulp of the coordinate, and the separation is the
///   square root of a quadratic that cancels, which loses up to about
///   sqrt(machine epsilon) of the boxes' extent. This does not shrink
///   with the gap, so near-zero gaps need `kAbsSlack * scale`, where
///   `scale` is the boxes' largest |coordinate|.
/// - Merged breakpoints. A tail of the lifespan shorter than the merge
///   tolerance can drop out of the integral while the division still
///   uses the whole overlap, so the bound scales by the share of the
///   overlap that is surely integrated.
double SeparationLowerBound(const geom::Mbb3D& box_a, const geom::Mbb3D& box_b,
                            const Lifespan& span) {
  const double dx =
      std::max({0.0, box_a.min_x - box_b.max_x, box_b.min_x - box_a.max_x});
  const double dy =
      std::max({0.0, box_a.min_y - box_b.max_y, box_b.min_y - box_a.max_y});
  const double gap = std::sqrt(dx * dx + dy * dy);
  const double sure_gap =
      gap * (1.0 - kRelSlack) - kAbsSlack * CoordinateScale(box_a, box_b);
  const double merge_tol =
      kBreakpointTol +
      kBreakpointTol * std::max(std::fabs(span.t0), std::fabs(span.t1));
  const double covered = 1.0 - merge_tol / span.overlap;
  if (!(sure_gap > 0.0) || !(covered > 0.0)) return 0.0;
  return sure_gap * covered;
}

/// An upper bound on what `Separation` computes as the average over a
/// non-empty `span` of two polylines inside `box_a` and `box_b`.
///
/// It visits the same intervals as `Separation`, so the same tail drops
/// out, and sums each one's trapezoid in place of its integral. The
/// separation of two linearly moving points is the norm of an affine
/// function of time, so it is convex, and on each interval the exact
/// integral lies under the chord. So does Simpson's value: its weights are
/// positive and it is exact for a line, so applied to a convex function it
/// stays under the same rule applied to the chord. When the interval is
/// split at the minimum, each half stays under its own chord, and both
/// chords under the whole one, because the minimum lies under it. The
/// computed value can still exceed the chord by rounding, which the bound
/// gives up as the lower bound does: `kRelSlack` of the sum, and
/// `kAbsSlack * scale` for the cancelling square root and the
/// interpolation, which do not shrink with the separation.
double SeparationUpperBound(const Trajectory& a, const geom::Mbb3D& box_a,
                            const Trajectory& b, const geom::Mbb3D& box_b,
                            const Lifespan& span) {
  auto separation = [](const geom::Point3D& p, const geom::Point3D& q) {
    const double dx = p.x - q.x;
    const double dy = p.y - q.y;
    return std::sqrt(dx * dx + dy * dy);
  };
  double chords = 0.0;  // Twice the trapezoid sum.
  ForEachInterval(a, b, span,
                  [&](const geom::Point3D& pa, const geom::Point3D& qa,
                      const geom::Point3D& pb, const geom::Point3D& qb) {
                    chords += (separation(pa, pb) + separation(qa, qb)) *
                              (qa.t - pa.t);
                  });
  return 0.5 * chords / span.overlap * (1.0 + kRelSlack) +
         kAbsSlack * CoordinateScale(box_a, box_b);
}
}  // namespace

TimeAwareDistance ComputeTimeAwareDistance(const Trajectory& a,
                                           const Trajectory& b) {
  TimeAwareDistance out;
  const Lifespan span = CommonLifespan(a, b);
  out.overlap = span.overlap;
  out.overlap_ratio = span.overlap_ratio;
  if (!out.Coexist()) {
    out.avg = out.min = kInf;
    return out;
  }
  Separation(a, b, span, &out);
  return out;
}

TimeAwareDistance ComputeTimeAwareDistance(const SubTrajectory& a,
                                           const SubTrajectory& b) {
  return ComputeTimeAwareDistance(a.points, b.points);
}

double ClusteringDistance(const Trajectory& a, const Trajectory& b,
                          double min_overlap_ratio) {
  const Lifespan span = CommonLifespan(a, b);
  if (!span.Admits(min_overlap_ratio)) return kInf;
  TimeAwareDistance d;
  Separation(a, b, span, &d);
  return d.avg;
}

double ClusteringDistance(const Trajectory& a, const geom::Mbb3D& box_a,
                          const Trajectory& b, const geom::Mbb3D& box_b,
                          double min_overlap_ratio, double limit) {
  const Lifespan span = CommonLifespan(a, b);
  if (!span.Admits(min_overlap_ratio)) return kInf;
  if (SeparationLowerBound(box_a, box_b, span) > limit) return kInf;
  TimeAwareDistance d;
  Separation(a, b, span, &d);
  return d.avg;
}

double ClusteringDistanceUpperBound(const Trajectory& a,
                                    const geom::Mbb3D& box_a,
                                    const Trajectory& b,
                                    const geom::Mbb3D& box_b,
                                    double min_overlap_ratio) {
  const Lifespan span = CommonLifespan(a, b);
  if (!span.Admits(min_overlap_ratio)) return kInf;
  return SeparationUpperBound(a, box_a, b, box_b, span);
}

bool ClusteringDistanceAtMost(const Trajectory& a, const geom::Mbb3D& box_a,
                              const Trajectory& b, const geom::Mbb3D& box_b,
                              double min_overlap_ratio, double limit,
                              bool* integrated) {
  if (integrated != nullptr) *integrated = false;
  const Lifespan span = CommonLifespan(a, b);
  // Where the cut-off distance returns +inf, so does this comparison.
  if (!span.Admits(min_overlap_ratio) ||
      SeparationLowerBound(box_a, box_b, span) > limit) {
    return kInf <= limit;
  }
  if (SeparationUpperBound(a, box_a, b, box_b, span) <= limit) return true;
  if (integrated != nullptr) *integrated = true;
  TimeAwareDistance d;
  Separation(a, b, span, &d);
  return d.avg <= limit;
}

double TimeAwareSimilarity(const Trajectory& a, const Trajectory& b,
                           double sigma, double min_overlap_ratio) {
  const Lifespan span = CommonLifespan(a, b);
  if (!span.Admits(min_overlap_ratio)) return 0.0;
  TimeAwareDistance d;
  Separation(a, b, span, &d);
  return GaussianKernel(d.avg, sigma) * Clamp(span.overlap_ratio, 0.0, 1.0);
}

}  // namespace hermes::traj
