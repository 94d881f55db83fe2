#include "core/qut_clustering.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "traj/distance.h"

namespace hermes::core {

namespace {
int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Union-find over cluster pieces for stitching.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// One cluster piece gathered from a sub-chunk before stitching.
struct Piece {
  int64_t sub_chunk = 0;
  traj::SubTrajectory representative;
  std::vector<traj::SubTrajectory> members;
};
}  // namespace

double QuTCluster::StartTime() const {
  double t = std::numeric_limits<double>::infinity();
  for (const auto& r : representatives) t = std::min(t, r.StartTime());
  for (const auto& m : members) t = std::min(t, m.StartTime());
  return t;
}

double QuTCluster::EndTime() const {
  double t = -std::numeric_limits<double>::infinity();
  for (const auto& r : representatives) t = std::max(t, r.EndTime());
  for (const auto& m : members) t = std::max(t, m.EndTime());
  return t;
}

size_t QuTResult::TotalMembers() const {
  size_t n = 0;
  for (const auto& c : clusters) n += c.members.size();
  return n;
}

StatusOr<QuTResult> QuTClustering::Query(double wi, double we,
                                         const QuTParams& params) const {
  if (we <= wi) return Status::InvalidArgument("empty window");
  const int64_t t_start = NowUs();

  const ReTraTreeParams& tp = tree_->params();
  const double stitch_d =
      params.stitch_distance > 0.0 ? params.stitch_distance : tp.d_assign;
  const double stitch_gap = params.stitch_time_gap >= 0.0
                                ? params.stitch_time_gap
                                : tp.delta * 0.01;

  QuTResult result;
  std::vector<Piece> pieces;

  for (const SubChunk* sc : tree_->SubChunksIn(wi, we)) {
    ++result.stats.sub_chunks_visited;
    const bool full = sc->start >= wi && sc->end <= we;
    if (full) {
      ++result.stats.sub_chunks_full;
    } else {
      ++result.stats.sub_chunks_partial;
    }
    const double lo = std::max(wi, sc->start);
    const double hi = std::min(we, sc->end);

    for (const auto& entry : sc->representatives) {
      Piece piece;
      piece.sub_chunk = sc->global_index;
      if (full) {
        // The progressive fast path: stored clusters are the answer.
        piece.representative = entry->representative;
        HERMES_ASSIGN_OR_RETURN(piece.members, tree_->ReadMembers(*entry));
        result.stats.members_read += piece.members.size();
      } else {
        // Boundary sub-chunk: trim to W and re-validate membership.
        piece.representative =
            traj::TrimToWindow(entry->representative, lo, hi);
        if (piece.representative.points.size() < 2) continue;
        const geom::Mbb3D rep_box = piece.representative.Bounds();
        HERMES_ASSIGN_OR_RETURN(
            std::vector<traj::SubTrajectory> members,
            tree_->ReadMembersInWindow(*entry, lo, hi));
        result.stats.members_read += members.size();
        for (auto& m : members) {
          traj::SubTrajectory trimmed = traj::TrimToWindow(m, lo, hi);
          if (trimmed.points.size() < 2 ||
              trimmed.Duration() < params.min_member_duration) {
            continue;
          }
          const double d = traj::ClusteringDistance(
              trimmed.points, trimmed.Bounds(), piece.representative.points,
              rep_box, tp.min_overlap_ratio, tp.d_assign);
          if (d <= tp.d_assign) {
            piece.members.push_back(std::move(trimmed));
          } else {
            ++result.stats.members_reassigned;
            result.outliers.push_back(std::move(trimmed));
          }
        }
      }
      if (!piece.members.empty()) pieces.push_back(std::move(piece));
    }

    // Outliers of this sub-chunk, trimmed to the window.
    HERMES_ASSIGN_OR_RETURN(std::vector<traj::SubTrajectory> outs,
                            tree_->ReadOutliers(*sc));
    for (auto& o : outs) {
      traj::SubTrajectory trimmed = full ? o : traj::TrimToWindow(o, lo, hi);
      if (trimmed.points.size() < 2) continue;
      result.outliers.push_back(std::move(trimmed));
    }
  }

  // Stitch cluster pieces of consecutive sub-chunks whose representatives
  // are continuous at the shared boundary.
  DisjointSet ds(pieces.size());
  for (size_t i = 0; i < pieces.size(); ++i) {
    for (size_t j = 0; j < pieces.size(); ++j) {
      if (i == j) continue;
      const auto& a = pieces[i].representative;
      const auto& b = pieces[j].representative;
      // a must end where b starts (adjacent sub-chunks).
      if (pieces[j].sub_chunk != pieces[i].sub_chunk + 1) continue;
      const double tgap = std::fabs(b.StartTime() - a.EndTime());
      if (tgap > stitch_gap + 1e-9) continue;
      const double sgap =
          geom::Distance(a.points.back().xy(), b.points.front().xy());
      if (sgap > stitch_d) continue;
      ds.Union(i, j);
      ++result.stats.stitches;
    }
  }

  std::map<size_t, QuTCluster> merged;
  for (size_t i = 0; i < pieces.size(); ++i) {
    QuTCluster& c = merged[ds.Find(i)];
    c.representatives.push_back(pieces[i].representative);
    for (auto& m : pieces[i].members) c.members.push_back(std::move(m));
  }
  result.clusters.reserve(merged.size());
  for (auto& [root, cluster] : merged) {
    std::sort(cluster.representatives.begin(), cluster.representatives.end(),
              [](const traj::SubTrajectory& a, const traj::SubTrajectory& b) {
                return a.StartTime() < b.StartTime();
              });
    result.clusters.push_back(std::move(cluster));
  }
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const QuTCluster& a, const QuTCluster& b) {
              return a.StartTime() < b.StartTime();
            });

  result.stats.elapsed_us = NowUs() - t_start;
  return result;
}

}  // namespace hermes::core
