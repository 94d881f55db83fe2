#include "baselines/range_rebuild.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "rtree/str_bulk_load.h"

namespace hermes::baselines {

namespace {
int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

StatusOr<RangeRebuildResult> RunRangeRebuild(
    const traj::TrajectoryStore& store, const rtree::RTree3D& global_index,
    double wi, double we, const core::S2TParams& s2t_params) {
  if (!(wi < we)) {
    return Status::InvalidArgument(std::isnan(wi) || std::isnan(we)
                                       ? "non-numeric window bound"
                                       : "empty window");
  }
  RangeRebuildResult result;

  // (i) Temporal range query: all segments intersecting W, grouped back
  // into per-trajectory windows, then materialized (sliced to W).
  int64_t t0 = NowUs();
  const double kBig = 1e18;
  geom::Mbb3D window(-kBig, -kBig, wi, kBig, kBig, we);
  HERMES_ASSIGN_OR_RETURN(std::vector<uint64_t> hits,
                          global_index.Search(window));
  std::set<traj::TrajectoryId> touched;
  for (uint64_t datum : hits) {
    touched.insert(rtree::UnpackSegmentRef(datum).trajectory);
  }
  for (traj::TrajectoryId tid : touched) {
    traj::Trajectory sliced = store.Get(tid).Slice(wi, we);
    if (sliced.size() >= 2) {
      HERMES_ASSIGN_OR_RETURN(traj::TrajectoryId ignored,
                              result.window_store.Add(std::move(sliced)));
      (void)ignored;
    }
  }
  result.timings.range_query_us = NowUs() - t0;

  // (ii) + (iii) S2T-Clustering from scratch over the window, which builds
  // a fresh in-memory R-tree on the materialized result first.
  t0 = NowUs();
  HERMES_ASSIGN_OR_RETURN(
      result.s2t, core::S2TClustering(s2t_params).Run(result.window_store));
  result.timings.index_build_us = result.s2t.timings.index_build_us;
  result.timings.s2t_us = NowUs() - t0 - result.timings.index_build_us;
  return result;
}

}  // namespace hermes::baselines
