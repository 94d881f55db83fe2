#include "traj/trajectory_store.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace hermes::traj {

StatusOr<TrajectoryId> TrajectoryStore::Add(Trajectory trajectory) {
  HERMES_RETURN_NOT_OK(trajectory.Validate());
  if (trajectory.empty()) {
    return Status::InvalidArgument("empty trajectory");
  }
  // The whole append happens under the snapshot lock, so a concurrent
  // `Snapshot` sees the list and the arena at the same trajectory count.
  common::MutexLock lock(&mu_);
  const TrajectoryId id = size_;
  if ((size_ & TrajBlock::kMask) == 0) {
    blocks_.push_back(std::make_shared<TrajBlock>());
  }
  const double start = trajectory.StartTime();
  const double end = trajectory.EndTime();
  num_points_ += trajectory.size();
  t_min_ = std::min(t_min_, start);
  t_max_ = std::max(t_max_, end);
  bounds_.Extend(trajectory.Bounds());
  TrajBlock& block = *blocks_.back();
  const size_t row = size_ & TrajBlock::kMask;
  block.start[row] = start;
  block.end[row] = end;
  block.min_start = std::min(block.min_start, start);
  block.max_end = std::max(block.max_end, end);
  block.slots[row] = std::make_shared<const Trajectory>(std::move(trajectory));
  ++size_;
  arena_.Append(*block.slots[row], id);
  return id;
}

const Trajectory& TrajectoryStore::Get(TrajectoryId id) const {
  HERMES_CHECK(id < size_) << "trajectory id out of range";
  return At(id);
}

TrajectoryId TrajectoryStore::NextOverlapping(TrajectoryId from, double t0,
                                              double t1) const {
  TrajectoryId id = from;
  while (id < size_) {
    const TrajBlock& block = *blocks_[id >> TrajBlock::kShift];
    const TrajectoryId block_end = std::min<TrajectoryId>(
        size_, (id | TrajBlock::kMask) + 1);
    if (t1 < block.min_start || t0 > block.max_end) {
      id = block_end;
      continue;
    }
    for (; id < block_end; ++id) {
      const size_t row = id & TrajBlock::kMask;
      if (!(t1 < block.start[row] || t0 > block.end[row])) return id;
    }
  }
  return size_;
}

void TrajectoryStore::CopyFrom(const TrajectoryStore& o) {
  common::MutexLock lock(&o.mu_);
  blocks_ = o.blocks_;  // Shares every full (hence immutable) block.
  if (!blocks_.empty() && (o.size_ & TrajBlock::kMask) != 0) {
    // The tail block is still being appended to; give the snapshot its
    // own copy so the writer's later slot stores cannot race readers.
    blocks_.back() = std::make_shared<TrajBlock>(*o.blocks_.back());
  }
  size_ = o.size_;
  num_points_ = o.num_points_;
  t_min_ = o.t_min_;
  t_max_ = o.t_max_;
  bounds_ = o.bounds_;
  arena_ = o.arena_;  // Builder copy shares full blocks (own tail copy).
}

void TrajectoryStore::MoveFrom(TrajectoryStore&& o) {
  common::MutexLock lock(&o.mu_);
  blocks_ = std::move(o.blocks_);
  size_ = o.size_;
  num_points_ = o.num_points_;
  t_min_ = o.t_min_;
  t_max_ = o.t_max_;
  bounds_ = o.bounds_;
  arena_ = std::move(o.arena_);
  o.blocks_.clear();
  o.size_ = 0;
  o.num_points_ = 0;
  o.t_min_ = std::numeric_limits<double>::infinity();
  o.t_max_ = -std::numeric_limits<double>::infinity();
  o.bounds_ = geom::Mbb3D();
}

std::vector<TrajectoryId> TrajectoryStore::TrajectoriesOf(
    ObjectId object) const {
  std::vector<TrajectoryId> ids;
  for (TrajectoryId id = 0; id < size_; ++id) {
    if (At(id).object_id() == object) ids.push_back(id);
  }
  return ids;
}

geom::Segment3D TrajectoryStore::Resolve(const SegmentRef& ref) const {
  return Get(ref.trajectory).SegmentAt(ref.segment_index);
}

Status TrajectoryStore::LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  // Buffer per object id, preserving file order within each object.
  std::map<ObjectId, Trajectory> builders;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1 && line.find_first_not_of(
                            "0123456789+-.eE, \t") != std::string::npos) {
      continue;  // Header row.
    }
    std::istringstream ss(line);
    std::string field;
    double vals[4];
    int k = 0;
    while (k < 4 && std::getline(ss, field, ',')) {
      try {
        vals[k] = std::stod(field);
      } catch (...) {
        return Status::Corruption("bad CSV field at line " +
                                  std::to_string(line_no));
      }
      ++k;
    }
    if (k != 4) {
      return Status::Corruption("expected obj_id,t,x,y at line " +
                                std::to_string(line_no));
    }
    const ObjectId obj = static_cast<ObjectId>(vals[0]);
    auto [it, inserted] = builders.try_emplace(obj, Trajectory(obj));
    Status st = it->second.Append({vals[2], vals[3], vals[1]});
    if (!st.ok()) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                st.message());
    }
  }
  for (auto& [obj, t] : builders) {
    HERMES_RETURN_NOT_OK(Add(std::move(t)).ok()
                             ? Status::OK()
                             : Status::Corruption("add failed"));
  }
  return Status::OK();
}

Status TrajectoryStore::SaveCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << "obj_id,t,x,y\n";
  for (TrajectoryId id = 0; id < size_; ++id) {
    const Trajectory& t = At(id);
    for (const auto& p : t.samples()) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%llu,%.6f,%.6f,%.6f\n",
                    static_cast<unsigned long long>(t.object_id()), p.t, p.x,
                    p.y);
      out << buf;
    }
  }
  return out ? Status::OK() : Status::IOError("write failed");
}

}  // namespace hermes::traj
