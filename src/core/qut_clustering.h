#ifndef HERMES_CORE_QUT_CLUSTERING_H_
#define HERMES_CORE_QUT_CLUSTERING_H_

#include <limits>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "core/retratree.h"

namespace hermes::core {

/// \brief Query-time parameters of QuT-Clustering (defaults derive from the
/// owning ReTraTree's parameters).
struct QuTParams {
  /// Max spatial gap between consecutive cluster pieces for stitching
  /// (defaults to the tree's d_assign when <= 0).
  double stitch_distance = -1.0;
  /// Max time gap at the stitch boundary (defaults to 1% of delta when < 0).
  double stitch_time_gap = -1.0;
  /// Minimum duration of a trimmed member to stay in the answer.
  double min_member_duration = 1e-9;
};

/// \brief One answer cluster: a chain of representative pieces across
/// consecutive sub-chunks plus all (window-trimmed) member
/// sub-trajectories.
///
/// `members` refer into storage the owning `QuTResult` keeps alive.
struct QuTCluster {
  std::vector<traj::SubTrajectory> representatives;
  traj::SubTrajectoryRefs members;
  /// Earliest start / latest end over representatives and members,
  /// computed once when the cluster is assembled.
  double start_time = std::numeric_limits<double>::infinity();
  double end_time = -std::numeric_limits<double>::infinity();

  double StartTime() const { return start_time; }
  double EndTime() const { return end_time; }
};

/// \brief Work counters proving the progressive property (boundary-only
/// recomputation).
struct QuTStats {
  size_t sub_chunks_visited = 0;
  size_t sub_chunks_full = 0;      ///< Served without any recomputation.
  size_t sub_chunks_partial = 0;   ///< Boundary sub-chunks (trim + recheck).
  size_t members_read = 0;
  size_t members_reassigned = 0;   ///< Boundary members demoted to outliers.
  /// Trimmed boundary members checked against the trimmed representative.
  size_t members_rechecked = 0;
  /// Rechecked members whose check ran the time-aware integral; the rest
  /// were decided by a distance bound.
  size_t exact_distances = 0;
  size_t stitches = 0;
  int64_t elapsed_us = 0;
};

/// \brief Result of a QuT query: clusters and outliers restricted to W.
///
/// Members and outliers are read in place: they point into the hot-tier
/// snapshots and cold-decoded records the query read, and into the
/// window-trimmed pieces it made, all of which `storage` owns. A held
/// result therefore pins its snapshots — they stay alive, and count in
/// `HotTierStats::hot_partitions`, until the result is released — and it
/// stays valid after its tree re-clusters, demotes or is dropped. Copies
/// share that storage.
struct QuTResult {
  std::vector<QuTCluster> clusters;
  traj::SubTrajectoryRefs outliers;
  QuTStats stats;
  /// What `members` and `outliers` point into.
  std::vector<std::shared_ptr<const void>> storage;

  size_t TotalMembers() const;
};

/// The window precondition of every QUT: `InvalidArgument` ("non-numeric
/// window bound" or "empty window") unless `wi < we`. Checked before any
/// tree is built or refreshed, so a window no tree can answer costs none.
Status CheckQutWindow(double wi, double we);

/// \brief QuT-Clustering (DMKD 2017): given a temporal window W, assembles
/// the sub-trajectory clusters and outliers that temporally intersect W
/// from the ReTraTree — without re-running the clustering pipeline.
///
/// Sub-chunks fully covered by W contribute their clusters as stored;
/// boundary sub-chunks trim members to W and re-validate membership
/// against the trimmed representative; cluster pieces of consecutive
/// sub-chunks whose representatives are continuous at the boundary are
/// stitched into one answer cluster.
class QuTClustering {
 public:
  explicit QuTClustering(const ReTraTree* tree) : tree_(tree) {}

  /// Runs `SELECT QUT(D, Wi, We, ...)`.
  StatusOr<QuTResult> Query(double wi, double we,
                            const QuTParams& params = QuTParams()) const;

 private:
  const ReTraTree* tree_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_QUT_CLUSTERING_H_
