#ifndef HERMES_TRAJ_DISTANCE_H_
#define HERMES_TRAJ_DISTANCE_H_

#include "geom/mbb.h"
#include "traj/sub_trajectory.h"
#include "traj/trajectory.h"

namespace hermes::traj {

/// \brief The time-aware distance between two (sub-)trajectories.
///
/// Defined over the intersection of the two lifespans: the positions are
/// synchronized by linear interpolation and the Euclidean separation is
/// averaged over time (piecewise-exact between breakpoints). When the
/// lifespans are disjoint the distance is infinite — objects that never
/// co-exist are never "close" in the time-aware sense. This is precisely
/// the property TRACLUS lacks (spatial-only comparison).
struct TimeAwareDistance {
  double avg = 0.0;            ///< Time-averaged synchronized separation.
  double min = 0.0;            ///< Minimum separation over the overlap.
  double overlap = 0.0;        ///< Common lifespan duration (seconds).
  double overlap_ratio = 0.0;  ///< overlap / min(duration_a, duration_b).

  bool Coexist() const { return overlap > 0.0; }
};

/// Computes the time-aware distance between two polylines.
TimeAwareDistance ComputeTimeAwareDistance(const Trajectory& a,
                                           const Trajectory& b);

/// Convenience overload on sub-trajectories.
TimeAwareDistance ComputeTimeAwareDistance(const SubTrajectory& a,
                                           const SubTrajectory& b);

/// \brief Scalar distance used for clustering decisions: the average
/// synchronized separation, or +inf when the temporal overlap ratio is
/// below `min_overlap_ratio`.
double ClusteringDistance(const Trajectory& a, const Trajectory& b,
                          double min_overlap_ratio = 0.5);

/// \brief `ClusteringDistance` with a cut-off, for loops that only need
/// distances up to `limit`: returns exactly `ClusteringDistance(a, b,
/// min_overlap_ratio)` whenever that is <= `limit`, and some value >
/// `limit` otherwise (+inf when the integral was skipped).
///
/// `box_a` and `box_b` must be `a.Bounds()` and `b.Bounds()`; callers
/// compute each box once. The average separation is never below the 2-D
/// gap between the boxes, so the integral is skipped when that gap, less
/// a slack for rounding, exceeds `limit` (strictly). The slack has a part
/// relative to the gap and an absolute part scaled to the boxes' largest
/// coordinate (see distance.cc for why both are needed).
double ClusteringDistance(const Trajectory& a, const geom::Mbb3D& box_a,
                          const Trajectory& b, const geom::Mbb3D& box_b,
                          double min_overlap_ratio, double limit);

/// \brief An upper bound on `ClusteringDistance(a, b, min_overlap_ratio)`
/// for `box_a == a.Bounds()` and `box_b == b.Bounds()`; +inf when the
/// pair is not admitted (the distance is +inf too).
///
/// Walks the same breakpoints as the integral, but takes the chord
/// (trapezoid) of the separation on each interval in place of its
/// integral: the separation of two linearly moving points is convex in
/// time, so the integral never exceeds the chord. Slack covers rounding
/// (see distance.cc).
double ClusteringDistanceUpperBound(const Trajectory& a,
                                    const geom::Mbb3D& box_a,
                                    const Trajectory& b,
                                    const geom::Mbb3D& box_b,
                                    double min_overlap_ratio);

/// \brief Exactly `ClusteringDistance(a, box_a, b, box_b,
/// min_overlap_ratio, limit) <= limit`, for loops that only need the
/// yes/no answer.
///
/// Rejects when the box gap bound exceeds `limit`, accepts when
/// `ClusteringDistanceUpperBound` is within it, and only otherwise runs
/// the integral. `*integrated`, when given, is set to whether it did.
bool ClusteringDistanceAtMost(const Trajectory& a, const geom::Mbb3D& box_a,
                              const Trajectory& b, const geom::Mbb3D& box_b,
                              double min_overlap_ratio, double limit,
                              bool* integrated = nullptr);

/// \brief Similarity in [0, 1]: Gaussian kernel of the clustering distance
/// with bandwidth `sigma`, scaled by the temporal overlap ratio. 0 when the
/// trajectories never co-exist.
double TimeAwareSimilarity(const Trajectory& a, const Trajectory& b,
                           double sigma, double min_overlap_ratio = 0.5);

}  // namespace hermes::traj

#endif  // HERMES_TRAJ_DISTANCE_H_
