#ifndef HERMES_CORE_S2T_CLUSTERING_H_
#define HERMES_CORE_S2T_CLUSTERING_H_

#include <functional>
#include <vector>

#include "clustering/greedy_clustering.h"
#include "common/statusor.h"
#include "exec/exec_context.h"
#include "rtree/rtree3d.h"
#include "sampling/saco_sampling.h"
#include "segmentation/nats.h"
#include "traj/segment_arena.h"
#include "traj/trajectory_store.h"
#include "voting/voting.h"

namespace hermes::core {

/// \brief All parameters of Sampling-based Sub-Trajectory Clustering.
///
/// Phase 1 (NaTS): `voting` + `segmentation`; phase 2 (SaCO): `sampling` +
/// `clustering`. `SetSigma`/`SetEpsilon` keep the bandwidths consistent
/// across phases.
struct S2TParams {
  voting::VotingParams voting;
  segmentation::NatsParams segmentation;
  sampling::SamplingParams sampling;
  clustering::ClusteringParams clustering;
  /// Use the indexed voting engine (the in-DBMS fast path): candidate
  /// pairs are pruned by range queries on an in-memory STR R-tree probed
  /// without locks. Off runs the naive all-pairs engine.
  bool use_index = true;

  /// Sets the spatial bandwidth sigma everywhere it appears. All three
  /// phases that interpret the bandwidth (voting, NaTS segmentation,
  /// SaCO sampling) receive the same value, so a single call cannot leave
  /// them silently diverged.
  S2TParams& SetSigma(double sigma) {
    voting.sigma = sigma;
    segmentation.sigma = sigma;
    sampling.sigma = sigma;
    return *this;
  }
  /// Sets the cluster radius epsilon.
  S2TParams& SetEpsilon(double eps) {
    clustering.epsilon = eps;
    return *this;
  }
};

/// \brief Wall-clock phase breakdown (microseconds), reported by the
/// benchmark harness.
struct S2TTimings {
  int64_t arena_build_us = 0;
  int64_t index_build_us = 0;
  int64_t voting_us = 0;
  int64_t segmentation_us = 0;
  int64_t sampling_us = 0;
  int64_t clustering_us = 0;
  // Sub-phases (not part of TotalUs): the probe/kernel split of voting_us
  // and the DP/materialize split of segmentation_us — the four phases the
  // exec engine fans out, tracked separately so thread sweeps show where
  // the speedup lands.
  int64_t voting_probe_us = 0;
  int64_t voting_kernel_us = 0;
  int64_t segmentation_dp_us = 0;
  int64_t segmentation_materialize_us = 0;

  int64_t TotalUs() const {
    return arena_build_us + index_build_us + voting_us + segmentation_us +
           sampling_us + clustering_us;
  }

  /// Records every phase into `stats` under "s2t_<phase>" keys (repeat
  /// exports accumulate). This is how a SQL session surfaces the
  /// breakdown as typed columns (`SHOW STATS`) instead of log scraping.
  void ExportTo(exec::ExecStats* stats) const;

  /// Field-wise accumulation (e.g. the ReTraTree's cumulative S2T stats).
  S2TTimings& operator+=(const S2TTimings& o) {
    arena_build_us += o.arena_build_us;
    index_build_us += o.index_build_us;
    voting_us += o.voting_us;
    segmentation_us += o.segmentation_us;
    sampling_us += o.sampling_us;
    clustering_us += o.clustering_us;
    voting_probe_us += o.voting_probe_us;
    voting_kernel_us += o.voting_kernel_us;
    segmentation_dp_us += o.segmentation_dp_us;
    segmentation_materialize_us += o.segmentation_materialize_us;
    return *this;
  }

  /// Field-wise difference (the work between two cumulative snapshots).
  S2TTimings& operator-=(const S2TTimings& o) {
    arena_build_us -= o.arena_build_us;
    index_build_us -= o.index_build_us;
    voting_us -= o.voting_us;
    segmentation_us -= o.segmentation_us;
    sampling_us -= o.sampling_us;
    clustering_us -= o.clustering_us;
    voting_probe_us -= o.voting_probe_us;
    voting_kernel_us -= o.voting_kernel_us;
    segmentation_dp_us -= o.segmentation_dp_us;
    segmentation_materialize_us -= o.segmentation_materialize_us;
    return *this;
  }
};

/// \brief Full output of an S2T-Clustering run.
struct S2TResult {
  /// All sub-trajectories produced by NaTS (cluster members and outliers
  /// index into this array).
  std::vector<traj::SubTrajectory> sub_trajectories;
  /// Indices of the sampled representatives, in selection order.
  std::vector<size_t> representatives;
  /// Clusters + outliers over `sub_trajectories`.
  clustering::ClusteringResult clustering;
  /// Raw voting descriptors (per trajectory, per segment).
  voting::VotingResult voting;
  S2TTimings timings;

  size_t NumClusters() const { return clustering.clusters.size(); }
  size_t NumOutliers() const { return clustering.outliers.size(); }
};

/// \brief Sampling-based Sub-Trajectory Clustering (EDBT 2017): voting →
/// segmentation → sampling → greedy clustering + outlier detection, over a
/// `TrajectoryStore`.
class S2TClustering {
 public:
  explicit S2TClustering(S2TParams params) : params_(std::move(params)) {}

  const S2TParams& params() const { return params_; }

  /// Runs the full pipeline. A columnar `SegmentArena` is snapshotted
  /// first and shared by index construction and voting (its cost is
  /// reported in `timings.arena_build_us`); when `params.use_index` an
  /// in-memory STR R-tree is bulk-loaded over the arena (reported in
  /// `timings.index_build_us`) and probed without locks. `ctx`
  /// parallelizes the arena build, the STR sort phases, the voting probe
  /// and kernel, and both NaTS segmentation passes; results are identical
  /// at any thread count.
  StatusOr<S2TResult> Run(const traj::TrajectoryStore& store,
                          exec::ExecContext* ctx = nullptr) const;

  /// Runs with a caller-provided paged segment index (e.g. the scenario-2
  /// baseline's freshly built one). Voting copies the index's entries into
  /// an in-memory tree (charged to the voting probe, not to
  /// `index_build_us`); every phase fans out over `ctx`.
  StatusOr<S2TResult> RunWithIndex(const traj::TrajectoryStore& store,
                                   const rtree::RTree3D& index,
                                   exec::ExecContext* ctx = nullptr) const;

 private:
  using VoteFn = std::function<StatusOr<voting::VotingResult>()>;

  /// Times `vote` as the voting phase, then runs segmentation, sampling
  /// and clustering.
  StatusOr<S2TResult> RunPhases(const traj::TrajectoryStore& store,
                                const VoteFn& vote, S2TTimings timings,
                                exec::ExecContext* ctx) const;

  S2TParams params_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_S2T_CLUSTERING_H_
