#include "core/retratree.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/coding.h"
#include "common/logging.h"
#include "exec/parallel_for.h"
#include "traj/distance.h"

namespace hermes::core {

namespace {
/// Sub-chunk pieces must fit one heap-file record; longer pieces are split
/// into consecutive runs of at most this many samples.
constexpr size_t kMaxSamplesPerPiece = 300;

/// Trajectories per chunk of the batch split fan-out.
constexpr size_t kSplitGrain = 8;

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::string EncodeSubTrajectory(const traj::SubTrajectory& st) {
  std::string out;
  PutFixed64(&out, st.id);
  PutFixed64(&out, st.source_trajectory);
  PutFixed64(&out, st.object_id);
  PutFixed64(&out, st.first_sample_index);
  PutDouble(&out, st.mean_voting);
  PutFixed32(&out, static_cast<uint32_t>(st.points.size()));
  for (const auto& p : st.points.samples()) {
    PutDouble(&out, p.x);
    PutDouble(&out, p.y);
    PutDouble(&out, p.t);
  }
  return out;
}

StatusOr<traj::SubTrajectory> DecodeSubTrajectory(const std::string& bytes) {
  if (bytes.size() < 44) return Status::Corruption("sub-trajectory too short");
  Decoder dec(bytes);
  traj::SubTrajectory st;
  st.id = dec.ReadFixed64();
  st.source_trajectory = dec.ReadFixed64();
  st.object_id = dec.ReadFixed64();
  st.first_sample_index = dec.ReadFixed64();
  st.mean_voting = dec.ReadDouble();
  const uint32_t n = dec.ReadFixed32();
  if (dec.remaining() != static_cast<size_t>(n) * 24) {
    return Status::Corruption("sub-trajectory size mismatch");
  }
  traj::Trajectory points(st.object_id);
  points.Reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const double x = dec.ReadDouble();
    const double y = dec.ReadDouble();
    const double t = dec.ReadDouble();
    HERMES_RETURN_NOT_OK(points.Append({x, y, t}));
  }
  st.points = std::move(points);
  return st;
}

ReTraTree::ReTraTree(ReTraTreeParams params, storage::Env* env,
                     std::string dir, exec::ExecContext* exec)
    : params_(std::move(params)),
      env_(env),
      dir_(std::move(dir)),
      exec_(exec) {}

StatusOr<std::unique_ptr<ReTraTree>> ReTraTree::Open(storage::Env* env,
                                                     const std::string& dir,
                                                     ReTraTreeParams params,
                                                     exec::ExecContext* exec) {
  if (params.tau <= 0.0 || params.delta <= 0.0) {
    return Status::InvalidArgument("tau and delta must be positive");
  }
  if (params.delta > params.tau) {
    return Status::InvalidArgument("delta must not exceed tau");
  }
  // Snap delta so an integer number of sub-chunks tiles each chunk.
  const double ratio = std::round(params.tau / params.delta);
  params.delta = params.tau / std::max(1.0, ratio);

  HERMES_RETURN_NOT_OK(env->CreateDirs(dir));
  return std::unique_ptr<ReTraTree>(
      new ReTraTree(std::move(params), env, dir, exec));
}

std::string ReTraTree::PartitionPath(const std::string& name) const {
  return dir_ + "/" + name + ".part";
}

StatusOr<std::unique_ptr<storage::HeapFile>> ReTraTree::OpenPartition(
    const std::string& name) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<storage::HeapFile> file,
                          storage::HeapFile::Open(env_, PartitionPath(name)));
  common::MutexLock lock(&files_mu_);
  open_files_.insert(file.get());
  return file;
}

int64_t ReTraTree::ChunkIndexOf(double t) const {
  return static_cast<int64_t>(std::floor((t - params_.origin) / params_.tau));
}

int64_t ReTraTree::SubChunkIndexOf(double t) const {
  return static_cast<int64_t>(
      std::floor((t - params_.origin) / params_.delta));
}

SubChunk* ReTraTree::GetOrCreateSubChunkByIndex(int64_t si) {
  const double mid = params_.origin + si * params_.delta + params_.delta / 2;
  const int64_t ci = ChunkIndexOf(mid);
  auto [cit, cnew] = chunks_.try_emplace(ci);
  Chunk& chunk = cit->second;
  if (cnew) {
    chunk.index = ci;
    chunk.start = params_.origin + ci * params_.tau;
    chunk.end = chunk.start + params_.tau;
  }
  auto [sit, snew] = chunk.sub_chunks.try_emplace(si);
  SubChunk& sc = sit->second;
  if (snew) {
    sc.global_index = si;
    sc.start = params_.origin + si * params_.delta;
    sc.end = sc.start + params_.delta;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "sc%lld_out",
                  static_cast<long long>(si));
    sc.outlier_partition = buf;
  }
  return &sc;
}

StatusOr<uint64_t> ReTraTree::NextDerivedId(SubChunk* sc) {
  // `SplitTrajectory` keeps every sub-chunk index inside the key space.
  const int64_t si = sc->global_index;
  const uint64_t key = si >= 0
                           ? (static_cast<uint64_t>(si) << 1)
                           : ((static_cast<uint64_t>(-(si + 1)) << 1) | 1);
  if (sc->derived_seq >= (uint64_t{1} << 24)) {
    return Status::ResourceExhausted("derived-id space of sub-chunk " +
                                     std::to_string(si) + " exhausted");
  }
  return (uint64_t{1} << 63) | (key << 24) | sc->derived_seq++;
}

Status ReTraTree::SplitTrajectory(const traj::Trajectory& trajectory,
                                  traj::TrajectoryId source_id,
                                  std::vector<PendingPiece>* out) const {
  // Rejected before the batch touches any tree state: a sub-chunk index
  // outside [-2^38, 2^38), which a derived id's 39-bit zig-zagged key
  // cannot hold (e.g. epoch-ms data under a small delta).
  for (const double t : {trajectory.StartTime(), trajectory.EndTime()}) {
    const double si = std::floor((t - params_.origin) / params_.delta);
    if (!(si >= -0x1p38 && si < 0x1p38)) {
      return Status::InvalidArgument(
          "sub-chunk index " + std::to_string(si) +
          " outside the derived-id key space [-2^38, 2^38); raise delta");
    }
  }
  // Split at sub-chunk boundaries (which include chunk boundaries).
  const int64_t first = SubChunkIndexOf(trajectory.StartTime());
  const int64_t last = SubChunkIndexOf(trajectory.EndTime());
  for (int64_t si = first; si <= last; ++si) {
    const double lo = params_.origin + si * params_.delta;
    const double hi = lo + params_.delta;
    traj::Trajectory piece = trajectory.Slice(lo, hi);
    // Long pieces are split to honor the record-size bound, overlapping
    // one sample to keep continuity; a piece that fits is moved whole.
    const std::vector<geom::Point3D>& s = piece.samples();
    const size_t n = s.size();
    for (size_t offset = 0; offset + 1 < n; offset += kMaxSamplesPerPiece - 1) {
      const size_t end = std::min(offset + kMaxSamplesPerPiece, n);
      PendingPiece pp;
      pp.sub_chunk = si;
      pp.st.source_trajectory = source_id;
      pp.st.object_id = trajectory.object_id();
      pp.st.first_sample_index = offset;
      pp.st.points =
          end - offset == n
              ? std::move(piece)
              : traj::Trajectory(trajectory.object_id(),
                                 {s.begin() + offset, s.begin() + end});
      out->push_back(std::move(pp));
    }
  }
  return Status::OK();
}

Status ReTraTree::Insert(const traj::Trajectory& trajectory,
                         traj::TrajectoryId source_id) {
  if (trajectory.size() < 2) {
    return Status::InvalidArgument("trajectory needs >= 2 samples");
  }
  std::vector<std::vector<PendingPiece>> per_traj(1);
  HERMES_RETURN_NOT_OK(SplitTrajectory(trajectory, source_id, &per_traj[0]));
  return ApplyPieces(std::move(per_traj), exec_);
}

Status ReTraTree::InsertStore(const traj::TrajectoryStore& store,
                              exec::ExecContext* exec) {
  return InsertBatch(store, exec != nullptr ? exec : exec_);
}

Status ReTraTree::InsertBatch(const traj::TrajectoryStore& store,
                              exec::ExecContext* exec) {
  return InsertBatch(store, exec, 0, store.NumTrajectories());
}

Status ReTraTree::InsertBatch(const traj::TrajectoryStore& store,
                              exec::ExecContext* exec,
                              traj::TrajectoryId first, size_t count) {
  exec::ExecContext* ctx = exec != nullptr ? exec : exec_;
  if (first + count > store.NumTrajectories()) {
    return Status::InvalidArgument(
        "InsertBatch range [" + std::to_string(first) + ", " +
        std::to_string(first + count) + ") exceeds store size " +
        std::to_string(store.NumTrajectories()));
  }
  const size_t n = count;
  if (n == 0) return Status::OK();

  // ---- Phase 1: split. Pure per-trajectory work fans out, touching no
  // tree state.
  const int64_t split_start = NowUs();
  std::vector<std::vector<PendingPiece>> per_traj(n);
  std::vector<Status> split_status(exec::NumChunks(n, kSplitGrain),
                                   Status::OK());
  exec::ParallelFor(ctx, n, kSplitGrain,
                    [&](size_t begin, size_t end, size_t chunk) {
    for (size_t i = begin; i < end; ++i) {
      const traj::TrajectoryId tid = first + i;
      const traj::Trajectory& t = store.Get(tid);
      if (t.size() < 2) {
        split_status[chunk] = Status::InvalidArgument(
            "trajectory " + std::to_string(tid) + " needs >= 2 samples");
        return;
      }
      const Status st = SplitTrajectory(t, tid, &per_traj[i]);
      if (!st.ok()) {
        split_status[chunk] = st;
        return;
      }
    }
  });
  for (const Status& st : split_status) {
    HERMES_RETURN_NOT_OK(st);
  }
  const int64_t split_us = NowUs() - split_start;

  // ---- Phase 2: apply.
  const int64_t apply_start = NowUs();
  HERMES_RETURN_NOT_OK(ApplyPieces(std::move(per_traj), ctx));
  const int64_t apply_us = NowUs() - apply_start;

  {
    common::MutexLock lock(&stats_mu_);
    stats_.ingest_split_us += split_us;
    stats_.ingest_apply_us += apply_us;
  }
  if (ctx != nullptr) {
    ctx->stats().RecordPhaseUs("ingest_split", split_us);
    ctx->stats().RecordPhaseUs("ingest_apply", apply_us);
  }
  return Status::OK();
}

namespace {
/// A batch's target sub-chunks, held exclusive from construction, where
/// they are taken in the order given (ascending index), to destruction.
/// A lock set of runtime size, which the analysis cannot follow: each
/// apply task states its sub-chunk's hold with `AssertHeld`.
class ExclusiveSubChunks {
 public:
  explicit ExclusiveSubChunks(std::vector<SubChunk*> held)
      NO_THREAD_SAFETY_ANALYSIS : held_(std::move(held)) {
    for (SubChunk* sc : held_) sc->mu.lock();
  }
  ~ExclusiveSubChunks() NO_THREAD_SAFETY_ANALYSIS {
    for (SubChunk* sc : held_) sc->mu.unlock();
  }
  ExclusiveSubChunks(const ExclusiveSubChunks&) = delete;
  ExclusiveSubChunks& operator=(const ExclusiveSubChunks&) = delete;

 private:
  const std::vector<SubChunk*> held_;
};
}  // namespace

Status ReTraTree::ApplyPieces(std::vector<std::vector<PendingPiece>> per_traj,
                              exec::ExecContext* ctx) {
  struct ApplyTask {
    SubChunk* sc;
    std::vector<traj::SubTrajectory> pieces;
  };
  std::vector<ApplyTask> tasks;
  std::optional<ExclusiveSubChunks> held;
  {
    common::WriterMutexLock nodes(&nodes_mu_);
    if (failed()) {
      return Status::Unavailable("ReTraTree holds half a failed batch");
    }
    // Ids in (trajectory, piece) order — the exact order a sequential
    // Insert loop draws them from next_sub_id_ — while bucketing pieces
    // per sub-chunk in the same global order. Every L1/L2 node is created
    // here, so the apply fan-out never changes the chunk maps.
    std::map<int64_t, std::vector<traj::SubTrajectory>> buckets;
    for (std::vector<PendingPiece>& pieces : per_traj) {
      for (PendingPiece& pp : pieces) {
        pp.st.id = next_sub_id_++;
        buckets[pp.sub_chunk].push_back(std::move(pp.st));
      }
    }
    tasks.reserve(buckets.size());
    std::vector<SubChunk*> targets;
    targets.reserve(buckets.size());
    for (auto& [si, pieces] : buckets) {
      tasks.push_back({GetOrCreateSubChunkByIndex(si), std::move(pieces)});
      targets.push_back(tasks.back().sc);
    }
    // In ascending index order (the buckets'), as every reader takes them.
    held.emplace(std::move(targets));
  }

  // One task per sub-chunk. Each touches only its sub-chunk's
  // representatives, partitions, and id/name sequences; the
  // partition manager, the hot tier and the stats are the only shared
  // state, each under its own mutex.
  std::vector<Status> apply_status(tasks.size(), Status::OK());
  exec::ParallelFor(ctx, tasks.size(), /*grain=*/1,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (size_t k = begin; k < end; ++k) {
      SubChunk* sc = tasks[k].sc;
      sc->mu.AssertHeld();  // By `held`.
      for (traj::SubTrajectory& piece : tasks[k].pieces) {
        const Status st = InsertPiece(sc, std::move(piece), true, ctx);
        if (!st.ok()) {
          apply_status[k] = st;
          break;
        }
      }
    }
  });
  for (const Status& st : apply_status) {
    if (!st.ok()) {
      // Before `held` lets the sub-chunks go, so no reader that waited
      // for them answers from half a batch.
      failed_.store(true, std::memory_order_release);
      return st;
    }
  }
  return Status::OK();
}

Status ReTraTree::InsertPiece(SubChunk* sc, traj::SubTrajectory piece,
                              bool allow_recluster,
                              exec::ExecContext* ctx) {
  // L3 assignment: closest representative within (d, t).
  RepresentativeEntry* best = nullptr;
  double best_dist = params_.d_assign;
  const geom::Mbb3D piece_box = piece.Bounds();
  for (auto& entry : sc->representatives) {
    const traj::SubTrajectory& rep = entry->representative;
    const double mismatch =
        std::max(std::fabs(piece.StartTime() - rep.StartTime()),
                 std::fabs(piece.EndTime() - rep.EndTime()));
    if (mismatch > params_.t_align) continue;
    // Cut off at the best so far: the prune is strict, so a tie still
    // gets its exact distance and the `<=` rule below keeps the last one.
    const double d = traj::ClusteringDistance(
        piece.points, piece_box, rep.points, entry->representative_box,
        params_.min_overlap_ratio, best_dist);
    if (d <= best_dist) {
      best_dist = d;
      best = entry.get();
    }
  }
  if (best != nullptr) {
    {
      common::MutexLock lock(&stats_mu_);
      ++stats_.pieces_inserted;
      ++stats_.assigned_to_existing;
    }
    return AppendMember(sc, best, piece);
  }

  // Outlier path: the buffer's file exists from its first outlier on.
  if (sc->outlier_file == nullptr) {
    HERMES_ASSIGN_OR_RETURN(sc->outlier_file,
                            OpenPartition(sc->outlier_partition));
  }
  HERMES_RETURN_NOT_OK(sc->outlier_file->Append(EncodeSubTrajectory(piece)));
  {
    common::MutexLock lock(&stats_mu_);
    ++stats_.pieces_inserted;
    ++stats_.sent_to_outliers;
    ++stats_.records_written;
  }
  ++sc->outlier_count;
  HERMES_RETURN_NOT_OK(ExtendHotSnapshot(&sc->hot_outliers, piece));

  if (allow_recluster && sc->outlier_count >= params_.gamma &&
      sc->outlier_count >= sc->recluster_watermark) {
    return ReclusterOutliers(sc, ctx);
  }
  return Status::OK();
}

Status ReTraTree::AppendMember(SubChunk* /*sc*/, RepresentativeEntry* entry,
                               const traj::SubTrajectory& member) {
  HERMES_RETURN_NOT_OK(entry->file->Append(EncodeSubTrajectory(member)));
  {
    common::MutexLock lock(&stats_mu_);
    ++stats_.records_written;
  }
  ++entry->member_count;
  // Incremental catch-up extends a live hot snapshot by the record it
  // just appended (no-op while the partition is cold).
  return ExtendHotSnapshot(&entry->hot, member);
}

Status ReTraTree::ReclusterOutliers(SubChunk* sc,
                                    exec::ExecContext* ctx) {
  // Drain the buffered outliers straight from disk — no hot promotion;
  // the buffer is about to be dropped.
  HERMES_ASSIGN_OR_RETURN(std::vector<traj::SubTrajectory> buffered,
                          ScanPartition(*sc->outlier_file));

  // Re-cluster them with S2T: each buffered piece acts as a trajectory of
  // the temporary MOD.
  traj::TrajectoryStore temp;
  std::vector<size_t> temp_to_buffered;
  for (size_t i = 0; i < buffered.size(); ++i) {
    if (buffered[i].points.size() < 2) continue;
    auto added = temp.Add(buffered[i].points);
    if (!added.ok()) continue;
    temp_to_buffered.push_back(i);
  }
  if (temp.NumTrajectories() < 2) return Status::OK();

  S2TClustering s2t(params_.s2t);
  HERMES_ASSIGN_OR_RETURN(S2TResult result, s2t.Run(temp, ctx));
  {
    common::MutexLock lock(&stats_mu_);
    ++stats_.s2t_runs;
    stats_.s2t_timings += result.timings;
  }

  // Delete the outlier partition; survivors are re-appended to a fresh
  // one. Its handle leaves the registry before it closes (writing
  // nothing).
  {
    common::MutexLock lock(&files_mu_);
    open_files_.erase(sc->outlier_file.get());
  }
  sc->outlier_file.reset();
  HERMES_RETURN_NOT_OK(env_->DeleteFile(PartitionPath(sc->outlier_partition)));
  sc->outlier_count = 0;
  {
    // Any published snapshot described the dropped buffer; residues
    // re-enter cold and the next read re-promotes.
    common::MutexLock lock(&hot_mu_);
    DemoteLocked(&sc->hot_outliers);
  }

  // Back-propagate discovered representatives (clusters big enough).
  std::vector<bool> archived(result.sub_trajectories.size(), false);
  for (const auto& cluster : result.clustering.clusters) {
    if (cluster.members.size() < params_.min_new_cluster_size) continue;
    auto entry = std::make_unique<RepresentativeEntry>();
    traj::SubTrajectory rep =
        result.sub_trajectories[cluster.representative];
    // Restore provenance from the buffered piece the rep came from.
    const size_t buf_idx =
        temp_to_buffered[rep.source_trajectory];
    HERMES_ASSIGN_OR_RETURN(rep.id, NextDerivedId(sc));
    rep.source_trajectory = buffered[buf_idx].source_trajectory;
    entry->representative = rep;
    entry->representative_box = rep.Bounds();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "sc%lld_r%llu",
                  static_cast<long long>(sc->global_index),
                  static_cast<unsigned long long>(sc->rep_seq++));
    entry->partition_name = buf;
    HERMES_ASSIGN_OR_RETURN(entry->file, OpenPartition(entry->partition_name));
    RepresentativeEntry* raw = entry.get();
    sc->representatives.push_back(std::move(entry));
    {
      common::MutexLock lock(&stats_mu_);
      ++stats_.representatives_created;
    }

    for (size_t m : cluster.members) {
      traj::SubTrajectory member = result.sub_trajectories[m];
      const size_t mbuf = temp_to_buffered[member.source_trajectory];
      HERMES_ASSIGN_OR_RETURN(member.id, NextDerivedId(sc));
      member.source_trajectory = buffered[mbuf].source_trajectory;
      member.object_id = buffered[mbuf].object_id;
      HERMES_RETURN_NOT_OK(AppendMember(sc, raw, member));
      archived[m] = true;
    }
  }

  // Residual outliers re-enter the tree; the new representatives may now
  // accommodate them, otherwise they land back in the (fresh) buffer.
  // Residues are sub-pieces of this sub-chunk's buffered pieces, so they
  // stay inside `sc` — which keeps the apply fan-out's sub-chunk ownership
  // intact.
  for (size_t o : result.clustering.outliers) {
    if (archived[o]) continue;
    traj::SubTrajectory residue = result.sub_trajectories[o];
    const size_t rbuf = temp_to_buffered[residue.source_trajectory];
    HERMES_ASSIGN_OR_RETURN(residue.id, NextDerivedId(sc));
    residue.source_trajectory = buffered[rbuf].source_trajectory;
    residue.object_id = buffered[rbuf].object_id;
    {
      common::MutexLock lock(&stats_mu_);
      ++stats_.reinserted_after_s2t;
    }
    HERMES_RETURN_NOT_OK(InsertPiece(sc, std::move(residue), false, ctx));
  }
  // Members of clusters that were too small also return to the buffer.
  for (const auto& cluster : result.clustering.clusters) {
    if (cluster.members.size() >= params_.min_new_cluster_size) continue;
    for (size_t m : cluster.members) {
      traj::SubTrajectory residue = result.sub_trajectories[m];
      const size_t rbuf = temp_to_buffered[residue.source_trajectory];
      HERMES_ASSIGN_OR_RETURN(residue.id, NextDerivedId(sc));
      residue.source_trajectory = buffered[rbuf].source_trajectory;
      residue.object_id = buffered[rbuf].object_id;
      {
        common::MutexLock lock(&stats_mu_);
        ++stats_.reinserted_after_s2t;
      }
      HERMES_RETURN_NOT_OK(InsertPiece(sc, std::move(residue), false, ctx));
    }
  }
  // Raise the trigger so residues alone cannot immediately re-fire S2T.
  sc->recluster_watermark = sc->outlier_count + params_.gamma;
  return Status::OK();
}

void SubChunkView::Acquire() {
  for (const SubChunk* sc : held_) sc->mu.lock_shared();
}

void SubChunkView::Release() {
  for (const SubChunk* sc : held_) sc->mu.unlock_shared();
  held_.clear();
}

SubChunkView ReTraTree::SubChunksIn(double t0, double t1) const {
  SubChunkView view;
  common::ReaderMutexLock nodes(&nodes_mu_);
  // Chunks and their sub-chunks are keyed by index, so this visits the
  // window's sub-chunks in ascending index order, which is time order
  // and the order a batch takes them in.
  for (const auto& [ci, chunk] : chunks_) {
    if (chunk.end <= t0 || chunk.start >= t1) continue;
    for (const auto& [si, sc] : chunk.sub_chunks) {
      if (sc.end <= t0 || sc.start >= t1) continue;
      view.held_.push_back(&sc);
    }
  }
  view.Acquire();
  return view;
}

StatusOr<std::vector<traj::SubTrajectory>> ReTraTree::ScanPartition(
    const storage::HeapFile& file) const {
  std::vector<traj::SubTrajectory> out;
  Status decode_status = Status::OK();
  HERMES_RETURN_NOT_OK(file.Scan([&](const std::string& rec) {
    auto st = DecodeSubTrajectory(rec);
    if (!st.ok()) {
      decode_status = st.status();
      return false;
    }
    out.push_back(std::move(st).value());
    return true;
  }));
  HERMES_RETURN_NOT_OK(decode_status);
  {
    common::MutexLock lock(&stats_mu_);
    stats_.records_read += out.size();
  }
  return out;
}

namespace {
/// Span of every element of `items`.
MemberSpan SpanOf(const std::vector<traj::SubTrajectory>& items) {
  MemberSpan span;
  for (const auto& st : items) span.Add(st);
  return span;
}

/// Shares every element of `items` (held by `storage`, spanning `span`)
/// in order.
PartitionRead ShareAll(std::shared_ptr<const void> storage,
                       const std::vector<traj::SubTrajectory>& items,
                       const MemberSpan& span) {
  PartitionRead read;
  read.members.reserve(items.size());
  for (const auto& st : items) read.members.push_back(st);
  read.storage = std::move(storage);
  read.span = span;
  return read;
}

/// A full hot read: every member of the pinned snapshot.
PartitionRead ShareSnapshot(std::shared_ptr<const HotPartition> hot) {
  const HotPartition& snapshot = *hot;
  return ShareAll(std::move(hot), snapshot.members, snapshot.span);
}

/// Takes ownership of cold-decoded records and shares them in order.
PartitionRead ShareDecoded(std::vector<traj::SubTrajectory> decoded) {
  const MemberSpan span = SpanOf(decoded);
  auto owned = std::make_shared<const std::vector<traj::SubTrajectory>>(
      std::move(decoded));
  const std::vector<traj::SubTrajectory>& items = *owned;
  return ShareAll(std::move(owned), items, span);
}
}  // namespace

StatusOr<PartitionRead> ReTraTree::ReadMembers(
    const RepresentativeEntry& entry) const {
  if (HotSlot hot = std::atomic_load(&entry.hot)) {
    qut_hot_probes_.fetch_add(1, std::memory_order_relaxed);
    TouchHot(*hot);
    return ShareSnapshot(std::move(hot));
  }
  qut_cold_probes_.fetch_add(1, std::memory_order_relaxed);
  HERMES_ASSIGN_OR_RETURN(std::vector<traj::SubTrajectory> out,
                          ScanPartition(*entry.file));
  if (HotSlot hot = MaybePromote(&entry.hot, &out)) {
    return ShareSnapshot(std::move(hot));
  }
  return ShareDecoded(std::move(out));
}

StatusOr<PartitionRead> ReTraTree::ReadMembersInWindow(
    const RepresentativeEntry& entry, double t0, double t1) const {
  // Time-only range: unbounded spatial extent.
  const double kBig = 1e18;
  const geom::Mbb3D window(-kBig, -kBig, t0, kBig, kBig, t1);

  HotSlot hot = std::atomic_load(&entry.hot);
  std::vector<traj::SubTrajectory> all;
  if (hot == nullptr) {
    // Promote-on-read: fault the partition in once, then serve this and
    // every later window probe from the snapshot.
    HERMES_ASSIGN_OR_RETURN(all, ScanPartition(*entry.file));
    hot = MaybePromote(&entry.hot, &all);
    if (hot == nullptr) hot = std::atomic_load(&entry.hot);  // Lost a race.
  }
  if (hot != nullptr) {
    qut_hot_probes_.fetch_add(1, std::memory_order_relaxed);
    TouchHot(*hot);
    // A closed-box test per member, in member (append) order — the same
    // test, in the same order, as the cold filter below.
    PartitionRead read;
    read.members.reserve(hot->members.size());
    for (size_t i = 0; i < hot->boxes.size(); ++i) {
      if (!hot->boxes[i].Intersects(window)) continue;
      const traj::SubTrajectory& m = hot->members[i];
      read.members.push_back(m);
      read.span.Add(m);
    }
    read.storage = std::move(hot);
    return read;
  }

  // Not promoted (tier disabled or snapshot over budget): filter the
  // scan's records.
  qut_cold_probes_.fetch_add(1, std::memory_order_relaxed);
  all.erase(std::remove_if(all.begin(), all.end(),
                           [&](const traj::SubTrajectory& m) {
                             return !m.Bounds().Intersects(window);
                           }),
            all.end());
  return ShareDecoded(std::move(all));
}

StatusOr<PartitionRead> ReTraTree::ReadOutliers(const SubChunk& sc) const {
  if (HotSlot hot = std::atomic_load(&sc.hot_outliers)) {
    qut_hot_probes_.fetch_add(1, std::memory_order_relaxed);
    TouchHot(*hot);
    return ShareSnapshot(std::move(hot));
  }
  qut_cold_probes_.fetch_add(1, std::memory_order_relaxed);
  sc.mu.AssertReaderHeld();  // By the caller's view.
  if (sc.outlier_file == nullptr) {
    // No outlier yet (or none since re-clustering): an empty buffer.
    // Promote the empty snapshot too, or every query re-counts this
    // sub-chunk as a cold probe; a later outlier insert extends it in
    // the same order the (then-created) heap partition would produce.
    std::vector<traj::SubTrajectory> none;
    MaybePromote(&sc.hot_outliers, &none);
    return PartitionRead{};
  }
  HERMES_ASSIGN_OR_RETURN(std::vector<traj::SubTrajectory> out,
                          ScanPartition(*sc.outlier_file));
  if (HotSlot hot = MaybePromote(&sc.hot_outliers, &out)) {
    return ShareSnapshot(std::move(hot));
  }
  return ShareDecoded(std::move(out));
}

size_t ReTraTree::HotBytesOf(
    const std::vector<traj::SubTrajectory>& members) {
  size_t bytes = sizeof(HotPartition) +
                 members.size() * (sizeof(traj::SubTrajectory) +
                                   sizeof(geom::Mbb3D));
  for (const auto& m : members) {
    bytes += m.points.size() * 3 * sizeof(double);
  }
  return bytes;
}

ReTraTree::HotSlot ReTraTree::MaybePromote(
    HotSlot* slot, std::vector<traj::SubTrajectory>* members) const {
  if (hot_index_budget() == 0) return nullptr;  // Tier off: skip hot_mu_.
  common::MutexLock lock(&hot_mu_);
  const size_t budget = hot_index_budget_.load(std::memory_order_relaxed);
  if (budget == 0) return nullptr;
  if (*slot != nullptr) return nullptr;  // Lost a promote race.
  const size_t bytes = HotBytesOf(*members);
  if (bytes > budget) return nullptr;
  auto hot = std::make_shared<HotPartition>();
  hot->boxes.reserve(members->size());
  for (const auto& m : *members) {
    hot->boxes.push_back(m.Bounds());
    hot->span.Add(m);
  }
  hot->members = std::move(*members);
  hot->bytes = bytes;
  hot->pin = std::make_unique<traj::EpochPin>(hot_pins_);
  TouchHot(*hot);
  hot_bytes_.fetch_add(hot->bytes, std::memory_order_relaxed);
  hot_promotions_.fetch_add(1, std::memory_order_relaxed);
  bool known = false;
  for (HotSlot* s : hot_slots_) known = known || (s == slot);
  if (!known) hot_slots_.push_back(slot);
  HotSlot published = std::move(hot);
  std::atomic_store(slot, published);
  EnforceBudgetLocked();
  return published;
}

Status ReTraTree::ExtendHotSnapshot(HotSlot* slot,
                                    const traj::SubTrajectory& member) const {
  common::MutexLock lock(&hot_mu_);
  HotSlot cur = std::atomic_load(slot);
  if (cur == nullptr) return Status::OK();  // Cold: nothing to maintain.
  // Republishing copies every member under hot_mu_; past this size that
  // tax per append serializes the tier tree-wide, so drop the snapshot
  // and let the next read re-promote once instead.
  if (cur->members.size() >= kMaxHotExtendMembers) {
    DemoteLocked(slot);
    return Status::OK();
  }
  // Roundtrip through the record encoding so the hot copy stays
  // bit-identical to what a cold read would decode. On failure the
  // record is already durable in the heap file, so a still-published
  // snapshot would silently hide it from hot reads: demote so the next
  // read re-promotes from disk.
  StatusOr<traj::SubTrajectory> decoded_or =
      DecodeSubTrajectory(EncodeSubTrajectory(member));
  if (!decoded_or.ok()) {
    DemoteLocked(slot);
    return decoded_or.status();
  }
  traj::SubTrajectory decoded = std::move(decoded_or).value();
  auto next = std::make_shared<HotPartition>();
  next->members.reserve(cur->members.size() + 1);
  next->members.assign(cur->members.begin(), cur->members.end());
  next->boxes.reserve(cur->boxes.size() + 1);
  next->boxes.assign(cur->boxes.begin(), cur->boxes.end());
  next->span = cur->span;
  next->span.Add(decoded);
  next->boxes.push_back(decoded.Bounds());
  next->members.push_back(std::move(decoded));
  next->bytes = HotBytesOf(next->members);
  next->pin = std::make_unique<traj::EpochPin>(hot_pins_);
  next->last_access.store(cur->last_access.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  hot_bytes_.fetch_add(next->bytes, std::memory_order_relaxed);
  hot_bytes_.fetch_sub(cur->bytes, std::memory_order_relaxed);
  std::atomic_store(slot, HotSlot(std::move(next)));
  EnforceBudgetLocked();
  return Status::OK();
}

void ReTraTree::DemoteLocked(HotSlot* slot) const {
  const HotPartition* cur = slot->get();
  if (cur == nullptr) return;
  hot_bytes_.fetch_sub(cur->bytes, std::memory_order_relaxed);
  hot_demotions_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_store(slot, HotSlot());
}

void ReTraTree::EnforceBudgetLocked() const {
  const size_t budget = hot_index_budget_.load(std::memory_order_relaxed);
  while (hot_bytes_.load(std::memory_order_relaxed) > budget) {
    HotSlot* victim = nullptr;
    uint64_t victim_access = 0;
    for (HotSlot* s : hot_slots_) {
      const HotPartition* cur = s->get();
      if (cur == nullptr) continue;
      const uint64_t a = cur->last_access.load(std::memory_order_relaxed);
      if (victim == nullptr || a < victim_access) {
        victim = s;
        victim_access = a;
      }
    }
    if (victim == nullptr) break;
    DemoteLocked(victim);
  }
}

void ReTraTree::SetHotIndexBudget(size_t bytes) {
  common::MutexLock lock(&hot_mu_);
  hot_index_budget_.store(bytes, std::memory_order_relaxed);
  EnforceBudgetLocked();
}

HotTierStats ReTraTree::hot_stats() const {
  HotTierStats s;
  s.qut_hot_probes = qut_hot_probes_.load(std::memory_order_relaxed);
  s.qut_cold_probes = qut_cold_probes_.load(std::memory_order_relaxed);
  s.hot_promotions = hot_promotions_.load(std::memory_order_relaxed);
  s.hot_demotions = hot_demotions_.load(std::memory_order_relaxed);
  s.hot_index_bytes = hot_bytes_.load(std::memory_order_relaxed);
  s.hot_partitions = hot_pins_->live.load(std::memory_order_relaxed);
  s.hot_pins_total = hot_pins_->total.load(std::memory_order_relaxed);
  return s;
}

ColdIoStats ReTraTree::cold_io_stats() const {
  ColdIoStats s;
  common::MutexLock lock(&files_mu_);
  // HERMES-LINT-ALLOW(unordered-iteration): every field is a sum, which
  // visit order cannot change.
  for (const storage::HeapFile* hf : open_files_) {
    const storage::PagerStats io = hf->io_stats();
    s.heap_page_fetches += io.cache_hits + io.cache_misses;
    s.resident_pages += io.resident_pages;
    const storage::LockStats ls = hf->lock_stats();
    s.heap_lock_acquisitions +=
        ls.shared_acquisitions + ls.exclusive_acquisitions;
  }
  return s;
}

size_t ReTraTree::TotalRepresentatives() const {
  size_t n = 0;
  common::ReaderMutexLock nodes(&nodes_mu_);
  for (const auto& [ci, chunk] : chunks_) {
    for (const auto& sub : chunk.sub_chunks) {
      const SubChunk& sc = sub.second;
      common::ReaderMutexLock lock(&sc.mu);
      n += sc.representatives.size();
    }
  }
  return n;
}

Status ReTraTree::Validate() const {
  common::ReaderMutexLock nodes(&nodes_mu_);
  for (const auto& [ci, chunk] : chunks_) {
    if (chunk.index != ci) return Status::Corruption("chunk index mismatch");
    for (const auto& [si, sub] : chunk.sub_chunks) {
      const SubChunk& sc = sub;
      if (sc.global_index != si) {
        return Status::Corruption("sub-chunk index mismatch");
      }
      if (sc.start < chunk.start - 1e-9 || sc.end > chunk.end + 1e-9) {
        return Status::Corruption("sub-chunk outside its chunk");
      }
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& entry : sc.representatives) {
        HERMES_ASSIGN_OR_RETURN(auto members, ReadMembers(*entry));
        if (members.size() != entry->member_count) {
          return Status::Corruption("partition/member count mismatch for " +
                                    entry->partition_name);
        }
        // Representative must live inside its sub-chunk.
        const auto& rep = entry->representative;
        if (rep.StartTime() < sc.start - 1e-6 ||
            rep.EndTime() > sc.end + 1e-6) {
          return Status::Corruption("representative outside sub-chunk");
        }
      }
    }
  }
  return Status::OK();
}

Status ReTraTree::Flush() {
  common::ReaderMutexLock nodes(&nodes_mu_);
  for (const auto& [ci, chunk] : chunks_) {
    for (const auto& [si, sc] : chunk.sub_chunks) {
      common::ReaderMutexLock lock(&sc.mu);
      for (const auto& entry : sc.representatives) {
        HERMES_RETURN_NOT_OK(entry->file->Flush());
      }
      if (sc.outlier_file != nullptr) {
        HERMES_RETURN_NOT_OK(sc.outlier_file->Flush());
      }
    }
  }
  return Status::OK();
}

}  // namespace hermes::core
