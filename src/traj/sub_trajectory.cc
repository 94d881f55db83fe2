#include "traj/sub_trajectory.h"

#include <cstdio>

namespace hermes::traj {

std::string SubTrajectory::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sub#%llu(obj=%llu, traj=%llu, n=%zu, [%.2f,%.2f], V=%.3f)",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(object_id),
                static_cast<unsigned long long>(source_trajectory),
                points.size(), StartTime(), EndTime(), mean_voting);
  return buf;
}

SubTrajectory TrimToWindow(const SubTrajectory& st, double t0, double t1) {
  // Field by field, so the source's points are only read by the slice,
  // never copied whole.
  SubTrajectory out;
  out.id = st.id;
  out.source_trajectory = st.source_trajectory;
  out.object_id = st.object_id;
  out.first_sample_index = st.first_sample_index;
  out.points = st.points.Slice(t0, t1);
  out.mean_voting = st.mean_voting;
  return out;
}

}  // namespace hermes::traj
