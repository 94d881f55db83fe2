#ifndef HERMES_TRAJ_SUB_TRAJECTORY_H_
#define HERMES_TRAJ_SUB_TRAJECTORY_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "traj/trajectory.h"

namespace hermes::traj {

/// Identifier of a sub-trajectory within a clustering run / ReTraTree.
using SubTrajectoryId = uint64_t;

/// \brief A sub-trajectory: a contiguous piece of a source trajectory,
/// materialized as its own polyline and carrying provenance plus the
/// voting descriptor produced by NaTS.
///
/// Sub-trajectories are the unit of clustering in both S2T- and
/// QuT-Clustering.
struct SubTrajectory {
  SubTrajectoryId id = 0;
  TrajectoryId source_trajectory = 0;
  ObjectId object_id = 0;
  /// Index of the first source sample covered (provenance; boundary
  /// samples introduced by temporal trimming keep the nearest index).
  size_t first_sample_index = 0;
  /// The movement itself.
  Trajectory points;
  /// Mean voting value over the covered segments (0 when unknown).
  double mean_voting = 0.0;

  double StartTime() const { return points.StartTime(); }
  double EndTime() const { return points.EndTime(); }
  double Duration() const { return points.Duration(); }
  geom::Mbb3D Bounds() const { return points.Bounds(); }

  std::string ToString() const;
};

/// \brief Trims `st` to the window [t0, t1]; result keeps provenance and
/// voting descriptor. Returns an empty-points sub-trajectory when disjoint.
SubTrajectory TrimToWindow(const SubTrajectory& st, double t0, double t1);

/// \brief A read-only list of sub-trajectories stored elsewhere; elements
/// read as `const SubTrajectory&`.
///
/// It holds only pointers: whoever fills it keeps the storage alive for
/// as long as the list is read (`core::QuTResult` owns what its lists
/// point into).
class SubTrajectoryRefs {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SubTrajectory;
    using difference_type = std::ptrdiff_t;
    using pointer = const SubTrajectory*;
    using reference = const SubTrajectory&;

    const_iterator() = default;
    explicit const_iterator(const SubTrajectory* const* at) : at_(at) {}
    reference operator*() const { return **at_; }
    pointer operator->() const { return *at_; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator was = *this;
      ++at_;
      return was;
    }
    bool operator==(const const_iterator& o) const { return at_ == o.at_; }
    bool operator!=(const const_iterator& o) const { return at_ != o.at_; }

   private:
    const SubTrajectory* const* at_ = nullptr;
  };

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const SubTrajectory& operator[](size_t i) const { return *items_[i]; }
  const_iterator begin() const { return const_iterator(items_.data()); }
  const_iterator end() const {
    return const_iterator(items_.data() + items_.size());
  }

  void reserve(size_t n) { items_.reserve(n); }
  /// Appends a reference to `st`, which must outlive the list's reads.
  void push_back(const SubTrajectory& st) { items_.push_back(&st); }
  void push_back(const SubTrajectory&& st) = delete;
  /// Appends every element of `other`, in order.
  void Append(const SubTrajectoryRefs& other) {
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }

 private:
  std::vector<const SubTrajectory*> items_;
};

}  // namespace hermes::traj

#endif  // HERMES_TRAJ_SUB_TRAJECTORY_H_
