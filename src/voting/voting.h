#ifndef HERMES_VOTING_VOTING_H_
#define HERMES_VOTING_VOTING_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "exec/exec_context.h"
#include "rtree/mem_rtree3d.h"
#include "rtree/rtree3d.h"
#include "storage/env.h"
#include "traj/segment_arena.h"
#include "traj/trajectory_store.h"

namespace hermes::voting {

/// \brief Parameters of the NaTS voting process.
struct VotingParams {
  /// Gaussian bandwidth of the vote kernel, in spatial units (meters).
  double sigma = 100.0;
  /// Kernel truncation radius, in sigmas: trajectories farther than
  /// `cutoff_sigmas * sigma` everywhere during a segment's lifespan
  /// contribute a 0 vote. Keeping the kernel compact makes the naive and
  /// index-accelerated engines produce *identical* results.
  double cutoff_sigmas = 3.0;
  /// Minimum fraction of a segment's lifespan another trajectory must
  /// co-exist with to cast a vote.
  double min_overlap_ratio = 0.5;
};

/// \brief Per-trajectory voting descriptors: one value per 3D segment.
///
/// `votes[tid][i]` is the (fractional) number of other trajectories
/// co-moving with segment i of trajectory tid — the paper's "value ranging
/// from 0 to N ... how many trajectories co-move with that trajectory for a
/// certain period of time".
struct VotingResult {
  std::vector<std::vector<double>> votes;
  /// Candidate (segment, other-trajectory) pairs examined — the work metric
  /// the index reduces.
  uint64_t pairs_evaluated = 0;
  /// Wall time of the index probe phase (0 for the naive engine, which has
  /// no probe) and of the vote kernel — the S2T per-phase breakdown's
  /// sub-phases of `voting_us`.
  int64_t probe_us = 0;
  int64_t kernel_us = 0;

  double TotalVoting(traj::TrajectoryId tid) const;
  double MeanVoting(traj::TrajectoryId tid) const;
};

/// \brief A paged index's backing file. Accepted and ignored by the paged
/// overload of `ComputeVotingIndexed`. Its one caller outside the tests is
/// `DecomposedS2T` in `perfbench/driver/analytics.cc`; ROADMAP item I step 1
/// moves that driver to the in-memory overload, and both go then.
struct IndexProbeSource {
  storage::Env* env = nullptr;
  std::string fname;
  size_t cache_pages = 256;
};

/// \brief Computes voting descriptors for every trajectory in the MOD.
///
/// Two engines with identical output:
///  - `ComputeVotingNaive` — the "corresponding PostgreSQL function":
///    every segment is compared against every other trajectory, O(S·N).
///  - `ComputeVotingIndexed` — the in-DBMS fast path: a pg3D R-tree range
///    query (segment MBB expanded by the kernel truncation radius) prunes
///    the candidate set first. The range queries run on an in-memory STR
///    R-tree (`rtree::MemRTree3D`) probed without locks.
///
/// Both consume a columnar `SegmentArena` snapshot and an optional
/// `ExecContext`. The vote kernel is partitioned by trajectory: every
/// trajectory's votes are produced by exactly one chunk with the same
/// per-segment, per-candidate accumulation order as the sequential engine,
/// so the result is bit-for-bit identical at any thread count.
///
/// The indexed engine's probe fans out too: fixed-size row chunks share
/// the one immutable tree, and per-segment candidate lists (sorted +
/// deduplicated per segment) are stitched back in row order — so the CSR
/// candidate structure, and with it the votes, stay bit-identical at any
/// thread count. The chunk count is recorded in `ctx`'s stats under
/// "voting_probe_handles".
StatusOr<VotingResult> ComputeVotingNaive(const traj::SegmentArena& arena,
                                          const traj::TrajectoryStore& store,
                                          const VotingParams& params,
                                          exec::ExecContext* ctx = nullptr);

StatusOr<VotingResult> ComputeVotingIndexed(const traj::SegmentArena& arena,
                                            const traj::TrajectoryStore& store,
                                            const rtree::MemRTree3D& index,
                                            const VotingParams& params,
                                            exec::ExecContext* ctx = nullptr);

/// Paged adapter: copies `index`'s current entries (one full-domain scan,
/// so removed entries stay out) into an in-memory tree and votes on that.
/// The copy is charged to `probe_us`. `probe` is ignored. Its one caller
/// outside the tests is `DecomposedS2T` in `perfbench/driver/analytics.cc`;
/// ROADMAP item I step 1 moves that driver to the overload above, which
/// removes this one.
StatusOr<VotingResult> ComputeVotingIndexed(const traj::SegmentArena& arena,
                                            const traj::TrajectoryStore& store,
                                            const rtree::RTree3D& index,
                                            const VotingParams& params,
                                            exec::ExecContext* ctx = nullptr,
                                            const IndexProbeSource* probe =
                                                nullptr);

/// Store-walking convenience: snapshots an arena, then runs the naive
/// engine sequentially.
StatusOr<VotingResult> ComputeVotingNaive(const traj::TrajectoryStore& store,
                                          const VotingParams& params);

/// \brief Vote cast by trajectory `other` for segment `seg`: the truncated
/// Gaussian kernel of their time-synchronized average distance during the
/// segment's lifespan. Exposed for tests.
double VoteFor(const geom::Segment3D& seg, const traj::Trajectory& other,
               const VotingParams& params);

}  // namespace hermes::voting

#endif  // HERMES_VOTING_VOTING_H_
