#ifndef HERMES_TRAJ_TRAJECTORY_H_
#define HERMES_TRAJ_TRAJECTORY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "geom/mbb.h"
#include "geom/point.h"
#include "geom/segment.h"

namespace hermes::traj {

/// Identifier of a moving object (user-assigned, stable across sessions).
using ObjectId = uint64_t;
/// Identifier of a trajectory inside a `TrajectoryStore`.
using TrajectoryId = uint64_t;

/// \brief Reference to one 3D segment inside a store: (trajectory, index).
struct SegmentRef {
  TrajectoryId trajectory = 0;
  uint32_t segment_index = 0;

  bool operator==(const SegmentRef& o) const {
    return trajectory == o.trajectory && segment_index == o.segment_index;
  }
};

/// \brief A trajectory: the recorded movement of one object as an ordered
/// polyline in (x, y, t) with strictly increasing timestamps.
///
/// Between consecutive samples the object is assumed to move linearly
/// (constant speed), the standard MOD interpolation model.
class Trajectory {
 public:
  Trajectory() = default;
  explicit Trajectory(ObjectId object_id) : object_id_(object_id) {}
  Trajectory(ObjectId object_id, std::vector<geom::Point3D> samples)
      : object_id_(object_id), samples_(std::move(samples)) {}

  ObjectId object_id() const { return object_id_; }
  void set_object_id(ObjectId id) { object_id_ = id; }

  const std::vector<geom::Point3D>& samples() const { return samples_; }
  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  const geom::Point3D& operator[](size_t i) const { return samples_[i]; }
  const geom::Point3D& front() const { return samples_.front(); }
  const geom::Point3D& back() const { return samples_.back(); }

  /// Appends a sample; returns InvalidArgument when `p.t` does not strictly
  /// increase the time domain.
  Status Append(const geom::Point3D& p);
  /// Reserves room for `n` samples, so `n` appends never reallocate.
  void Reserve(size_t n) { samples_.reserve(n); }

  /// Number of 3D segments (size()-1, or 0 when fewer than 2 samples).
  size_t NumSegments() const {
    return samples_.size() < 2 ? 0 : samples_.size() - 1;
  }

  /// The i-th 3D segment (between samples i and i+1).
  geom::Segment3D SegmentAt(size_t i) const;

  double StartTime() const { return samples_.empty() ? 0.0 : front().t; }
  double EndTime() const { return samples_.empty() ? 0.0 : back().t; }
  double Duration() const { return EndTime() - StartTime(); }

  /// Total spatial (2D) path length.
  double SpatialLength() const;

  /// Interpolated position at time `t`, or nullopt outside the lifespan.
  std::optional<geom::Point2D> PositionAt(double t) const;

  /// Minimum bounding box over all samples.
  geom::Mbb3D Bounds() const;

  /// \brief The portion of this trajectory inside [t0, t1], with
  /// interpolated boundary samples when the cut falls inside a segment.
  /// Returns an empty trajectory when the lifespan and [t0, t1] are
  /// disjoint. Requires t0 <= t1.
  Trajectory Slice(double t0, double t1) const;
  /// `Slice(t0, t1).size()`, by the same two binary searches and without
  /// building the slice. Requires t0 <= t1.
  size_t SliceSize(double t0, double t1) const;

  /// \brief Resamples onto a uniform time grid of step `dt` covering the
  /// lifespan (both endpoints kept). Requires dt > 0 and size() >= 2.
  StatusOr<Trajectory> Resample(double dt) const;

  /// Validates the invariants (strictly increasing t, finite coordinates).
  Status Validate() const;

 private:
  /// Where `Slice(t0, t1)` cuts: the clamped window [lo, hi] and the
  /// samples strictly inside it, [first, last). `meets` is false when the
  /// lifespan and the window are disjoint (the other fields are unset).
  struct Cut {
    bool meets = false;
    double lo = 0.0;
    double hi = 0.0;
    std::vector<geom::Point3D>::const_iterator first;
    std::vector<geom::Point3D>::const_iterator last;
  };
  Cut CutAt(double t0, double t1) const;

  ObjectId object_id_ = 0;
  std::vector<geom::Point3D> samples_;
};

}  // namespace hermes::traj

#endif  // HERMES_TRAJ_TRAJECTORY_H_
