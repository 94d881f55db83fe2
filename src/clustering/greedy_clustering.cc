#include "clustering/greedy_clustering.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "traj/distance.h"

namespace hermes::clustering {

size_t ClusteringResult::TotalMembers() const {
  size_t n = 0;
  for (const auto& c : clusters) n += c.members.size();
  return n;
}

std::vector<int> ClusteringResult::Assignment(size_t n) const {
  std::vector<int> a(n, -1);
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    for (size_t m : clusters[ci].members) a[m] = static_cast<int>(ci);
  }
  return a;
}

ClusteringResult ClusterAroundRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const std::vector<size_t>& representative_indices,
    const ClusteringParams& params) {
  ClusteringResult out;
  std::unordered_set<size_t> rep_set(representative_indices.begin(),
                                     representative_indices.end());
  out.clusters.reserve(representative_indices.size());
  for (size_t rep : representative_indices) {
    Cluster c;
    c.representative = rep;
    c.members.push_back(rep);
    out.clusters.push_back(std::move(c));
  }

  std::vector<geom::Mbb3D> rep_boxes;
  rep_boxes.reserve(representative_indices.size());
  for (size_t rep : representative_indices) {
    rep_boxes.push_back(subs[rep].Bounds());
  }

  for (size_t i = 0; i < subs.size(); ++i) {
    if (rep_set.count(i) > 0) continue;
    const geom::Mbb3D box = subs[i].Bounds();
    double best_dist = std::numeric_limits<double>::infinity();
    size_t best_cluster = out.clusters.size();
    for (size_t ci = 0; ci < out.clusters.size(); ++ci) {
      const size_t rep = out.clusters[ci].representative;
      // A representative farther than epsilon or than the best so far
      // cannot win, so its distance is only needed up to that cut-off.
      const double d = traj::ClusteringDistance(
          subs[i].points, box, subs[rep].points, rep_boxes[ci],
          params.min_overlap_ratio, std::min(best_dist, params.epsilon));
      if (d < best_dist) {
        best_dist = d;
        best_cluster = ci;
      }
    }
    if (best_cluster < out.clusters.size() && best_dist <= params.epsilon) {
      out.clusters[best_cluster].members.push_back(i);
    } else {
      out.outliers.push_back(i);
    }
  }
  return out;
}

}  // namespace hermes::clustering
