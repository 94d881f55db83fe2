#include "voting/voting.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/mathutil.h"
#include "exec/parallel_for.h"
#include "geom/moving_point.h"
#include "rtree/str_bulk_load.h"

namespace hermes::voting {

double VotingResult::TotalVoting(traj::TrajectoryId tid) const {
  double s = 0.0;
  for (double v : votes[tid]) s += v;
  return s;
}

double VotingResult::MeanVoting(traj::TrajectoryId tid) const {
  if (votes[tid].empty()) return 0.0;
  return TotalVoting(tid) / static_cast<double>(votes[tid].size());
}

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Average synchronized distance between the moving point of `seg` and
/// trajectory `other`, over the overlap of their lifespans; +inf when the
/// overlap covers less than `min_overlap_ratio` of the segment's lifespan.
double SegmentTrajectoryDistance(const geom::Segment3D& seg,
                                 const traj::Trajectory& other,
                                 double min_overlap_ratio) {
  const double t0 = std::max(seg.a.t, other.StartTime());
  const double t1 = std::min(seg.b.t, other.EndTime());
  if (t0 >= t1) return std::numeric_limits<double>::infinity();
  const double seg_dur = seg.duration();
  if (seg_dur <= 0.0) return std::numeric_limits<double>::infinity();
  if ((t1 - t0) / seg_dur < min_overlap_ratio) {
    return std::numeric_limits<double>::infinity();
  }

  // Breakpoints: the other trajectory's sample times inside (t0, t1).
  const auto& samples = other.samples();
  auto it = std::lower_bound(
      samples.begin(), samples.end(), t0,
      [](const geom::Point3D& p, double v) { return p.t < v; });

  double integral = 0.0;
  double prev = t0;
  auto piece = [&](double lo, double hi) {
    if (hi <= lo) return;
    auto pa = other.PositionAt(lo);
    auto pb = other.PositionAt(hi);
    geom::Segment3D other_piece({pa->x, pa->y, lo}, {pb->x, pb->y, hi});
    const geom::MovingDistance md =
        geom::DistanceBetweenMoving(seg, other_piece);
    integral += md.avg_dist * (hi - lo);
  };
  for (; it != samples.end() && it->t < t1; ++it) {
    if (it->t > prev) {
      piece(prev, it->t);
      prev = it->t;
    }
  }
  piece(prev, t1);
  return integral / (t1 - t0);
}

/// Per-trajectory candidate lists in CSR form: candidates of segment row r
/// are `tids[offsets[r] .. offsets[r + 1])`, sorted and deduplicated. Rows
/// are arena rows, so the layout is shared by probe and kernel phases.
struct CandidateLists {
  std::vector<size_t> offsets;
  std::vector<traj::TrajectoryId> tids;
};

/// The vote kernel: Gaussian-kernel integration of every (segment,
/// candidate) pair — the dominant cost of voting. Partitioned by
/// trajectory: each chunk owns a contiguous trajectory range and writes
/// only its own `votes` entries, with the same accumulation order as a
/// sequential sweep, so results are bit-identical at any thread count.
void RunVoteKernel(const traj::SegmentArena& arena,
                   const traj::TrajectoryStore& store,
                   const VotingParams& params, const CandidateLists& cands,
                   exec::ExecContext* ctx, VotingResult* result) {
  const int64_t start = NowUs();
  const size_t n = store.NumTrajectories();
  exec::ParallelFor(ctx, n, /*grain=*/1,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (traj::TrajectoryId tid = begin; tid < end; ++tid) {
      std::vector<double>& votes = result->votes[tid];
      for (size_t r = arena.RowBegin(tid); r < arena.RowEnd(tid); ++r) {
        const geom::Segment3D seg = arena.SegmentOf(r);
        double& vote = votes[arena.segment_index(r)];
        for (size_t k = cands.offsets[r]; k < cands.offsets[r + 1]; ++k) {
          vote += VoteFor(seg, store.Get(cands.tids[k]), params);
        }
      }
    }
  });
  result->kernel_us = NowUs() - start;
  if (ctx != nullptr) {
    ctx->stats().RecordPhaseUs("voting_kernel", result->kernel_us);
  }
}

/// Rows per probe chunk. Fixed, so the chunking (and with it the
/// `voting_probe_handles` count) is the same at any thread count.
constexpr size_t kProbeGrain = 512;

/// Candidates of arena row `r`: owners of every segment intersecting the
/// row's MBB expanded by the kernel truncation radius, minus the row's own
/// trajectory, sorted + deduplicated. This per-row list is a pure function
/// of (index entries, row), which is what lets the parallel probe stitch
/// per-chunk output back together bit-identically.
void ProbeRow(const traj::SegmentArena& arena, const rtree::MemRTree3D& index,
              double radius, size_t r, std::vector<uint64_t>* hits,
              std::vector<traj::TrajectoryId>* candidates) {
  const traj::TrajectoryId tid = arena.owner(r);
  const geom::Mbb3D query = arena.BoundsOf(r).Expanded(radius, 0.0);
  index.SearchInto(query, rtree::QueryMode::kIntersects, hits);
  candidates->clear();
  for (uint64_t datum : *hits) {
    const traj::SegmentRef ref = rtree::UnpackSegmentRef(datum);
    if (ref.trajectory != tid) candidates->push_back(ref.trajectory);
  }
  std::sort(candidates->begin(), candidates->end());
  candidates->erase(std::unique(candidates->begin(), candidates->end()),
                    candidates->end());
}

/// The probe phase: per-segment candidate lists in CSR form. Chunks of
/// rows fan out over `ctx`, all reading the one immutable tree without
/// locks; each chunk appends to its own list.
CandidateLists ProbeCandidates(const traj::SegmentArena& arena,
                               const rtree::MemRTree3D& index,
                               const VotingParams& params,
                               exec::ExecContext* ctx) {
  const size_t rows = arena.num_segments();
  const double radius = params.cutoff_sigmas * params.sigma;
  const size_t chunks = exec::NumChunks(rows, kProbeGrain);
  std::vector<std::vector<traj::TrajectoryId>> chunk_tids(chunks);
  std::vector<uint32_t> row_counts(rows, 0);
  exec::ParallelFor(ctx, rows, kProbeGrain,
                    [&](size_t begin, size_t end, size_t chunk) {
    std::vector<uint64_t> hits;  // Reused across the chunk's rows.
    std::vector<traj::TrajectoryId> candidates;
    for (size_t r = begin; r < end; ++r) {
      ProbeRow(arena, index, radius, r, &hits, &candidates);
      row_counts[r] = static_cast<uint32_t>(candidates.size());
      chunk_tids[chunk].insert(chunk_tids[chunk].end(), candidates.begin(),
                               candidates.end());
    }
  });

  // Stitch the CSR back together in row order. Chunks cover ascending,
  // disjoint row ranges, so concatenating per-chunk lists in chunk order
  // reproduces the sequential layout exactly.
  CandidateLists cands;
  cands.offsets.assign(rows + 1, 0);
  for (size_t r = 0; r < rows; ++r) {
    cands.offsets[r + 1] = cands.offsets[r] + row_counts[r];
  }
  cands.tids.reserve(cands.offsets[rows]);
  for (const auto& tids : chunk_tids) {
    cands.tids.insert(cands.tids.end(), tids.begin(), tids.end());
  }
  if (ctx != nullptr) {
    ctx->stats().AddCounter("voting_probe_handles",
                            static_cast<int64_t>(chunks));
  }
  return cands;
}

Status ValidateParams(const VotingParams& params) {
  // Written so NaN fails too; +inf would widen the probe to everything.
  if (!(params.sigma > 0.0) || !std::isfinite(params.sigma)) {
    return Status::InvalidArgument("sigma must be finite and positive");
  }
  return Status::OK();
}

Status ValidateVotingInputs(const traj::SegmentArena& arena,
                            const traj::TrajectoryStore& store,
                            const VotingParams& params) {
  HERMES_RETURN_NOT_OK(ValidateParams(params));
  if (arena.num_trajectories() != store.NumTrajectories()) {
    return Status::InvalidArgument(
        "segment arena is stale: trajectory count differs from store");
  }
  return Status::OK();
}

void SizeResult(const traj::TrajectoryStore& store, VotingResult* result) {
  const size_t n = store.NumTrajectories();
  result->votes.resize(n);
  for (traj::TrajectoryId tid = 0; tid < n; ++tid) {
    result->votes[tid].assign(store.Get(tid).NumSegments(), 0.0);
  }
}

/// The indexed engine after validation: probe, then kernel. `probe_start`
/// is when the probe phase began, so a caller that first has to prepare
/// the tree (the paged adapter) charges that work to the probe too.
VotingResult VoteIndexed(const traj::SegmentArena& arena,
                         const traj::TrajectoryStore& store,
                         const rtree::MemRTree3D& index,
                         const VotingParams& params, exec::ExecContext* ctx,
                         int64_t probe_start) {
  VotingResult result;
  SizeResult(store, &result);

  // Probe phase. Range query: spatial expansion by the kernel truncation
  // radius, exact lifespan in time. Any trajectory that could cast a
  // non-zero vote has at least one segment intersecting the box.
  const CandidateLists cands = ProbeCandidates(arena, index, params, ctx);
  result.pairs_evaluated = cands.tids.size();
  result.probe_us = NowUs() - probe_start;
  if (ctx != nullptr) {
    ctx->stats().RecordPhaseUs("voting_probe", result.probe_us);
  }

  RunVoteKernel(arena, store, params, cands, ctx, &result);
  return result;
}

}  // namespace

double VoteFor(const geom::Segment3D& seg, const traj::Trajectory& other,
               const VotingParams& params) {
  const double d =
      SegmentTrajectoryDistance(seg, other, params.min_overlap_ratio);
  if (!std::isfinite(d)) return 0.0;
  if (d > params.cutoff_sigmas * params.sigma) return 0.0;  // Truncated.
  return GaussianKernel(d, params.sigma);
}

StatusOr<VotingResult> ComputeVotingNaive(const traj::SegmentArena& arena,
                                          const traj::TrajectoryStore& store,
                                          const VotingParams& params,
                                          exec::ExecContext* ctx) {
  HERMES_RETURN_NOT_OK(ValidateVotingInputs(arena, store, params));
  VotingResult result;
  SizeResult(store, &result);
  const size_t n = store.NumTrajectories();
  if (n > 1) {
    result.pairs_evaluated =
        static_cast<uint64_t>(arena.num_segments()) * (n - 1);
  }

  // Candidates are implicit (every other trajectory), so there is no CSR
  // materialization; the loop preserves the oid = 0..n-1 accumulation
  // order of a sequential sweep within each trajectory-owned chunk.
  const int64_t start = NowUs();
  exec::ParallelFor(ctx, n, /*grain=*/1,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (traj::TrajectoryId tid = begin; tid < end; ++tid) {
      std::vector<double>& votes = result.votes[tid];
      for (size_t r = arena.RowBegin(tid); r < arena.RowEnd(tid); ++r) {
        const geom::Segment3D seg = arena.SegmentOf(r);
        double& vote = votes[arena.segment_index(r)];
        for (traj::TrajectoryId oid = 0; oid < n; ++oid) {
          if (oid == tid) continue;
          vote += VoteFor(seg, store.Get(oid), params);
        }
      }
    }
  });
  result.kernel_us = NowUs() - start;
  if (ctx != nullptr) {
    ctx->stats().RecordPhaseUs("voting_kernel", result.kernel_us);
  }
  return result;
}

StatusOr<VotingResult> ComputeVotingIndexed(const traj::SegmentArena& arena,
                                            const traj::TrajectoryStore& store,
                                            const rtree::MemRTree3D& index,
                                            const VotingParams& params,
                                            exec::ExecContext* ctx) {
  HERMES_RETURN_NOT_OK(ValidateVotingInputs(arena, store, params));
  return VoteIndexed(arena, store, index, params, ctx, NowUs());
}

StatusOr<VotingResult> ComputeVotingIndexed(
    const traj::SegmentArena& arena, const traj::TrajectoryStore& store,
    const rtree::RTree3D& index, const VotingParams& params,
    exec::ExecContext* ctx, const IndexProbeSource* /*probe*/) {
  HERMES_RETURN_NOT_OK(ValidateVotingInputs(arena, store, params));
  // Copy the paged index's current entries (not the arena's rows) into an
  // in-memory tree, then probe that: same candidate sets, no pager.
  const int64_t probe_start = NowUs();
  const double inf = std::numeric_limits<double>::infinity();
  HERMES_ASSIGN_OR_RETURN(
      const std::vector<rtree::RTreeHit> entries,
      index.SearchHits(geom::Mbb3D(-inf, -inf, -inf, inf, inf, inf)));
  std::vector<std::pair<geom::Mbb3D, uint64_t>> items;
  items.reserve(entries.size());
  for (const rtree::RTreeHit& e : entries) items.emplace_back(e.box, e.datum);
  const std::unique_ptr<rtree::MemRTree3D> mem =
      rtree::MemRTree3D::BulkLoad(std::move(items), /*fill_factor=*/0.9, ctx);
  return VoteIndexed(arena, store, *mem, params, ctx, probe_start);
}

StatusOr<VotingResult> ComputeVotingNaive(const traj::TrajectoryStore& store,
                                          const VotingParams& params) {
  const traj::SegmentArena arena = traj::SegmentArena::Build(store);
  return ComputeVotingNaive(arena, store, params, nullptr);
}

StatusOr<VotingResult> ComputeVotingIndexed(const traj::TrajectoryStore& store,
                                            const rtree::RTree3D& index,
                                            const VotingParams& params) {
  const traj::SegmentArena arena = traj::SegmentArena::Build(store);
  return ComputeVotingIndexed(arena, store, index, params, nullptr);
}

StatusOr<VotingResult> ComputeVotingParallel(
    const traj::TrajectoryStore& store, storage::Env* env,
    const std::string& index_file, const VotingParams& params,
    size_t num_threads) {
  HERMES_RETURN_NOT_OK(ValidateParams(params));
  if (num_threads == 0) {
    return Status::InvalidArgument("need at least one thread");
  }
  if (!env->FileExists(index_file)) {
    return Status::NotFound("no index file " + index_file);
  }
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<rtree::RTree3D> index,
                          rtree::RTree3D::Open(env, index_file));
  exec::ExecContext ctx(num_threads);
  const traj::SegmentArena arena = traj::SegmentArena::Build(store, &ctx);
  return ComputeVotingIndexed(arena, store, *index, params, &ctx);
}

StatusOr<VotingResult> ComputeVoting(const traj::TrajectoryStore& store,
                                     const VotingParams& params) {
  const traj::SegmentArena arena = traj::SegmentArena::Build(store);
  const std::unique_ptr<rtree::MemRTree3D> index =
      rtree::BuildMemSegmentIndex(arena);
  return ComputeVotingIndexed(arena, store, *index, params, nullptr);
}

}  // namespace hermes::voting
