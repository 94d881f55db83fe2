#include "traj/trajectory.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hermes::traj {

Status Trajectory::Append(const geom::Point3D& p) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.t)) {
    return Status::InvalidArgument("non-finite sample");
  }
  if (!samples_.empty() && p.t <= samples_.back().t) {
    return Status::InvalidArgument("timestamps must strictly increase");
  }
  samples_.push_back(p);
  return Status::OK();
}

geom::Segment3D Trajectory::SegmentAt(size_t i) const {
  HERMES_CHECK(i + 1 < samples_.size()) << "segment index out of range";
  return geom::Segment3D(samples_[i], samples_[i + 1]);
}

double Trajectory::SpatialLength() const {
  double len = 0.0;
  for (size_t i = 0; i + 1 < samples_.size(); ++i) {
    len += geom::SpatialDistance(samples_[i], samples_[i + 1]);
  }
  return len;
}

std::optional<geom::Point2D> Trajectory::PositionAt(double t) const {
  if (samples_.empty() || t < StartTime() || t > EndTime()) {
    return std::nullopt;
  }
  if (samples_.size() == 1) return samples_[0].xy();
  // First sample with time >= t.
  auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const geom::Point3D& p, double v) { return p.t < v; });
  if (it == samples_.begin()) return samples_.front().xy();
  if (it == samples_.end()) return samples_.back().xy();
  const geom::Point3D& hi = *it;
  const geom::Point3D& lo = *(it - 1);
  return geom::InterpolateAt(lo, hi, t);
}

geom::Mbb3D Trajectory::Bounds() const {
  geom::Mbb3D box;
  for (const auto& p : samples_) box.ExtendPoint(p);
  return box;
}

Trajectory Trajectory::Slice(double t0, double t1) const {
  HERMES_CHECK(t0 <= t1) << "Slice requires t0 <= t1";
  Trajectory out(object_id_);
  if (samples_.empty() || t1 < StartTime() || t0 > EndTime()) return out;

  const double lo = std::max(t0, StartTime());
  const double hi = std::min(t1, EndTime());

  // Interior samples strictly inside (lo, hi).
  const auto first = std::upper_bound(
      samples_.begin(), samples_.end(), lo,
      [](double v, const geom::Point3D& p) { return v < p.t; });
  const auto last = std::lower_bound(
      first, samples_.end(), hi,
      [](const geom::Point3D& p, double v) { return p.t < v; });
  out.samples_.reserve(static_cast<size_t>(last - first) + 2);
  // Interpolated entry sample; lo and hi lie inside the lifespan.
  const geom::Point2D entry = *PositionAt(lo);
  out.samples_.push_back({entry.x, entry.y, lo});
  out.samples_.insert(out.samples_.end(), first, last);
  // Interpolated exit sample (skip when the slice is instantaneous).
  if (hi > lo) {
    const geom::Point2D exit = *PositionAt(hi);
    out.samples_.push_back({exit.x, exit.y, hi});
  }
  return out;
}

StatusOr<Trajectory> Trajectory::Resample(double dt) const {
  if (dt <= 0.0) return Status::InvalidArgument("Resample requires dt > 0");
  if (samples_.size() < 2) {
    return Status::InvalidArgument("Resample requires >= 2 samples");
  }
  Trajectory out(object_id_);
  const double t_start = StartTime();
  const double t_end = EndTime();
  for (double t = t_start; t < t_end; t += dt) {
    auto p = PositionAt(t);
    HERMES_CHECK(p.has_value());
    HERMES_CHECK_OK(out.Append({p->x, p->y, t}));
  }
  auto p = PositionAt(t_end);
  HERMES_CHECK(p.has_value());
  HERMES_CHECK_OK(out.Append({p->x, p->y, t_end}));
  return out;
}

Status Trajectory::Validate() const {
  for (size_t i = 0; i < samples_.size(); ++i) {
    const auto& p = samples_[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.t)) {
      return Status::Corruption("non-finite sample");
    }
    if (i > 0 && p.t <= samples_[i - 1].t) {
      return Status::Corruption("timestamps not strictly increasing");
    }
  }
  return Status::OK();
}

}  // namespace hermes::traj
