#ifndef HERMES_CORE_RETRATREE_H_
#define HERMES_CORE_RETRATREE_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/s2t_clustering.h"
#include "geom/mbb.h"
#include "storage/env.h"
#include "storage/partition_manager.h"
#include "traj/segment_arena.h"
#include "traj/sub_trajectory.h"
#include "traj/trajectory_store.h"

namespace hermes::core {

/// \brief Parameters of the ReTraTree (Representative Trajectory Tree).
///
/// The SQL signature `QUT(D, Wi, We, τ, δ, t, d, γ)` maps to:
/// `tau`, `delta`, `t_align`, `d_assign`, `gamma`.
struct ReTraTreeParams {
  /// L1: temporal chunk width (τ).
  double tau = 3600.0;
  /// L2: sub-chunk width (δ); must divide into τ (enforced by rounding).
  double delta = 900.0;
  /// Max temporal misalignment between a piece and a representative for
  /// assignment (t).
  double t_align = 225.0;
  /// Max time-aware distance between a piece and a representative for
  /// cluster membership (d).
  double d_assign = 200.0;
  /// Outlier-partition size that triggers an S2T re-clustering run (γ).
  size_t gamma = 64;
  /// Minimum temporal overlap ratio used in distance evaluations.
  double min_overlap_ratio = 0.5;
  /// Minimum cluster size for a representative discovered by the buffer
  /// S2T run to be back-propagated.
  size_t min_new_cluster_size = 2;
  /// Time origin of the chunk grid.
  double origin = 0.0;
  /// S2T configuration for outlier-buffer re-clustering runs.
  S2TParams s2t;
};

/// \brief Maintenance counters (Fig. 2's loop, made observable), plus the
/// wall time the buffer re-clustering runs spent per phase.
///
/// All counters are order-independent sums, so a batch ingest reports the
/// same totals as the sequential loop at any thread count (timing fields
/// excepted — they are wall clocks).
struct ReTraTreeStats {
  uint64_t pieces_inserted = 0;
  uint64_t assigned_to_existing = 0;
  uint64_t sent_to_outliers = 0;
  uint64_t s2t_runs = 0;
  uint64_t representatives_created = 0;
  uint64_t reinserted_after_s2t = 0;
  uint64_t records_written = 0;
  uint64_t records_read = 0;
  /// Batch-ingest phase split (µs): parallel split/segmentation of the
  /// batch vs the per-sub-chunk apply fan-out.
  int64_t ingest_split_us = 0;
  int64_t ingest_apply_us = 0;
  /// Cumulative phase breakdown of all S2T re-clustering runs (µs),
  /// including the columnar arena snapshots they build.
  S2TTimings s2t_timings;
};

/// Default `hermes.hot_index_budget`: bytes of hot-tier snapshots a tree
/// may keep resident before LRU demotion kicks in.
inline constexpr size_t kDefaultHotIndexBudget = size_t{64} << 20;

/// \brief Earliest start and latest end over a set of sub-trajectories
/// (+inf and -inf while empty). Each `Add` keeps the first of equal
/// values, so folding spans gives the bits one fold over their union does.
struct MemberSpan {
  double start = std::numeric_limits<double>::infinity();
  double end = -std::numeric_limits<double>::infinity();

  void Add(const traj::SubTrajectory& st) {
    start = std::min(start, st.StartTime());
    end = std::max(end, st.EndTime());
  }
  void Add(const MemberSpan& o) {
    start = std::min(start, o.start);
    end = std::max(end, o.end);
  }
};

/// \brief Immutable hot-tier snapshot of one on-disk partition: its
/// decoded records in append (RecordId) order plus their bounding boxes.
/// A window probe scans the boxes in member order; partitions hold a few
/// members each, so a scan beats any index and costs nothing to build.
///
/// Published with an atomic shared_ptr swap; a reader that loaded a
/// snapshot keeps it (and its `EpochPin`) alive through its own reference
/// until the probe finishes, so demotion/republish never invalidates an
/// in-flight read.
struct HotPartition {
  /// Members in append order — the order a cold scan yields too —
  /// stored as the Decode(Encode(...)) record roundtrip so hot and cold
  /// reads are bit-identical.
  std::vector<traj::SubTrajectory> members;
  /// Span of `members`, computed at promotion and carried forward by each
  /// copy-on-write extension.
  MemberSpan span;
  /// `boxes[i]` is `members[i].Bounds()`.
  std::vector<geom::Mbb3D> boxes;
  /// Budget accounting, fixed at publication time.
  size_t bytes = 0;
  /// Lifecycle accounting in the tree's `EpochPinRegistry` (live = hot
  /// snapshots still referenced somewhere, total = ever published).
  std::unique_ptr<traj::EpochPin> pin;
  /// LRU stamp of the last hot probe (tree-wide logical clock).
  mutable std::atomic<uint64_t> last_access{0};
};

/// \brief Hot-tier observability counters (surfaced by `SHOW STATS` and
/// `SHOW SERVICE STATS`).
struct HotTierStats {
  uint64_t qut_hot_probes = 0;
  uint64_t qut_cold_probes = 0;
  uint64_t hot_promotions = 0;
  uint64_t hot_demotions = 0;
  uint64_t hot_index_bytes = 0;
  /// Snapshots still alive (pin registry live count: published minus
  /// fully released — a demoted snapshot a reader still holds counts).
  uint64_t hot_partitions = 0;
  uint64_t hot_pins_total = 0;
  /// Bytes of cold-tier buffer-pool frames (the partitions' heap files).
  /// A gauge that `QutTreeSlot::hot_stats` fills from `cold_io_stats`;
  /// `ReTraTree::hot_stats` reads only atomics and leaves it 0.
  uint64_t cold_resident_bytes = 0;

  /// Field-wise sum (the stats surfaces total every tree's counters).
  HotTierStats& operator+=(const HotTierStats& o) {
    qut_hot_probes += o.qut_hot_probes;
    qut_cold_probes += o.qut_cold_probes;
    hot_promotions += o.hot_promotions;
    hot_demotions += o.hot_demotions;
    hot_index_bytes += o.hot_index_bytes;
    hot_partitions += o.hot_partitions;
    hot_pins_total += o.hot_pins_total;
    cold_resident_bytes += o.cold_resident_bytes;
    return *this;
  }
};

/// \brief Cold-tier work aggregated across every open partition — page
/// fetches and lock acquisitions. A warm hot-tier QUT probe must leave
/// every field flat, which is how tests assert the probe path performs
/// zero page reads and takes zero per-partition locks.
struct ColdIoStats {
  uint64_t heap_page_fetches = 0;  ///< Pager hits + misses (heap files).
  uint64_t heap_lock_acquisitions = 0;
  /// Always 0: partitions have no index. Kept only because
  /// `perfbench/driver/analytics.cc` still reads it.
  uint64_t index_page_fetches = 0;
  /// Buffer-pool frames held now.
  uint64_t resident_pages = 0;
};

/// \brief L3 entry: an in-memory representative plus its on-disk member
/// partition, a heap file alone ("pg3D-Rtree-k" in Fig. 2 pairs it with a
/// 3D R-tree; docs/ARCHITECTURE.md "QUT hot/cold tier" says why not).
struct RepresentativeEntry {
  traj::SubTrajectory representative;
  /// `representative.Bounds()`, for the L3 assignment's distance cut-off.
  geom::Mbb3D representative_box;
  std::string partition_name;
  size_t member_count = 0;
  /// Hot-tier snapshot (null = cold). Probes go through
  /// `std::atomic_load` with no lock; publication swaps the pointer under
  /// the tree's hot-tier mutex. Mutable because promotion is a caching
  /// side effect of const read paths.
  mutable std::shared_ptr<const HotPartition> hot;
};

/// \brief L2 node: one sub-chunk of the time domain with its
/// representatives and its outlier partition.
///
/// `mu` guards the sub-chunk's state: a batch holds it exclusive from
/// before its first change to the sub-chunk until the batch is whole (or
/// has failed), and a QUT holds it shared until its answer is built (see
/// `ReTraTree::InsertBatch` and `SubChunksIn`). The representatives'
/// entries (their member counts and partitions) are sub-chunk
/// state too. `global_index`, `start`, `end` and `outlier_partition` are
/// set when the node is created, under the tree's node lock, and never
/// change.
struct SubChunk {
  mutable common::SharedMutex mu;
  int64_t global_index = 0;
  double start = 0.0;
  double end = 0.0;
  std::string outlier_partition;
  std::vector<std::unique_ptr<RepresentativeEntry>> representatives
      GUARDED_BY(mu);
  size_t outlier_count GUARDED_BY(mu) = 0;
  /// Next buffer size that may trigger re-clustering (prevents thrashing
  /// when residues alone still exceed gamma).
  size_t recluster_watermark GUARDED_BY(mu) = 0;
  /// Sequence of derived sub-trajectory ids handed out by this sub-chunk's
  /// re-clustering runs (see `ReTraTree::NextDerivedId`). Per-sub-chunk so
  /// concurrent apply tasks never contend — and so the ids are a pure
  /// function of the sub-chunk's own insertion history, which is what
  /// makes batch and sequential ingest bit-identical.
  uint64_t derived_seq GUARDED_BY(mu) = 0;
  /// Sequence behind this sub-chunk's representative partition names
  /// ("sc<i>_r<seq>"); per-sub-chunk for the same reason.
  uint64_t rep_seq GUARDED_BY(mu) = 0;
  /// Hot-tier snapshot of the outlier partition (see
  /// `RepresentativeEntry::hot`); dropped when re-clustering rebuilds the
  /// buffer.
  mutable std::shared_ptr<const HotPartition> hot_outliers;
};

/// \brief The sub-chunks whose interval intersects a window, ordered by
/// time, each held shared (`SubChunk::mu`) until the view is destroyed:
/// what `ReTraTree::SubChunksIn` returns and a QUT answers from. Code
/// that reads a held sub-chunk's guarded fields states the hold with
/// `sc->mu.AssertReaderHeld()`, since the analysis cannot follow a lock
/// set of runtime size. Move-only.
class SubChunkView {
 public:
  SubChunkView() = default;
  ~SubChunkView() { Release(); }
  SubChunkView(SubChunkView&& other) noexcept
      : held_(std::move(other.held_)) {
    other.held_.clear();
  }
  SubChunkView& operator=(SubChunkView&&) = delete;
  SubChunkView(const SubChunkView&) = delete;
  SubChunkView& operator=(const SubChunkView&) = delete;

  size_t size() const { return held_.size(); }
  bool empty() const { return held_.empty(); }
  const SubChunk* operator[](size_t i) const { return held_[i]; }
  const SubChunk* front() const { return held_.front(); }
  std::vector<const SubChunk*>::const_iterator begin() const {
    return held_.begin();
  }
  std::vector<const SubChunk*>::const_iterator end() const {
    return held_.end();
  }

 private:
  friend class ReTraTree;
  // Take / let go of every sub-chunk in `held_`: a lock set of runtime
  // size, which the analysis cannot follow.
  void Acquire() NO_THREAD_SAFETY_ANALYSIS;
  void Release() NO_THREAD_SAFETY_ANALYSIS;

  std::vector<const SubChunk*> held_;
};

/// \brief L1 node: one temporal chunk holding its sub-chunks.
struct Chunk {
  int64_t index = 0;
  double start = 0.0;
  double end = 0.0;
  std::map<int64_t, SubChunk> sub_chunks;  // Keyed by global sub-chunk index.
};

/// \brief Sub-trajectories read from one partition, sharing ownership of
/// the storage they sit in: the hot snapshot the read was served from
/// (pinned, not copied) or the records a cold read decoded. The elements
/// stay valid while `storage`, or a copy of it, lives; a held hot read
/// keeps its snapshot counted in `HotTierStats::hot_partitions`.
struct PartitionRead {
  std::shared_ptr<const void> storage;
  traj::SubTrajectoryRefs members;
  /// Span of `members`: a full hot read takes its snapshot's, any other
  /// read computes it over what it returns.
  MemberSpan span;

  size_t size() const { return members.size(); }
  bool empty() const { return members.empty(); }
  const traj::SubTrajectory& operator[](size_t i) const { return members[i]; }
  traj::SubTrajectoryRefs::const_iterator begin() const {
    return members.begin();
  }
  traj::SubTrajectoryRefs::const_iterator end() const { return members.end(); }
};

/// Binary (de)serialization of sub-trajectories for partition records.
std::string EncodeSubTrajectory(const traj::SubTrajectory& st);
StatusOr<traj::SubTrajectory> DecodeSubTrajectory(const std::string& bytes);

/// \brief The ReTraTree: a 4-level structure for time-aware sub-trajectory
/// clustering (DMKD 2017).
///
///   L1  temporal chunks (width τ)            — in memory
///   L2  sub-chunks (width δ)                 — in memory
///   L3  cluster representatives              — in memory
///   L4  member/outlier partitions            — on disk (heap files)
///
/// Insertion splits trajectories at chunk/sub-chunk boundaries, assigns
/// each piece to the closest representative (within `d_assign`/`t_align`)
/// or to the sub-chunk's outlier partition; when the partition exceeds γ,
/// S2T-Clustering runs on it and its discovered representatives are
/// back-propagated into L3 (the architecture loop of Fig. 2).
///
/// The tree is a cache of the store it was fed: L1–L3 live only in
/// memory, and nothing saves or reopens a tree. An owner that needs the
/// tree again after a restart rebuilds it from its store
/// (`core::QutTreeSlot`).
class ReTraTree {
 public:
  /// Opens an empty tree storing its partitions under `dir` of `env`
  /// (the directory should hold no files of an earlier tree). `exec`
  /// (optional, not owned, must outlive the tree) is handed to the S2T
  /// re-clustering runs of the maintenance loop so their arena build,
  /// index build, and vote kernel fan out.
  static StatusOr<std::unique_ptr<ReTraTree>> Open(
      storage::Env* env, const std::string& dir, ReTraTreeParams params,
      exec::ExecContext* exec = nullptr);

  /// Inserts a whole trajectory (id used for provenance only).
  Status Insert(const traj::Trajectory& trajectory,
                traj::TrajectoryId source_id);

  /// Bulk-inserts every trajectory of a store by delegating to
  /// `InsertBatch`. `exec` overrides the tree's own context for this batch
  /// (nullptr = use the tree's; a tree without one applies sequentially).
  Status InsertStore(const traj::TrajectoryStore& store,
                     exec::ExecContext* exec = nullptr);

  /// \brief Two-phase batch ingest — the Fig. 2 maintenance loop made
  /// thread-scalable.
  ///
  /// Phase 1 (split) fans out over trajectories: each is sliced at
  /// sub-chunk boundaries and bound by `kMaxSamplesPerPiece`, touching no
  /// tree state. Phase 2 (apply) first hands every piece its
  /// sub-trajectory id in (trajectory, piece) order — exactly the ids the
  /// sequential `Insert` loop's `next_sub_id_++` would hand out — then
  /// fans out one task per sub-chunk: L3 assignment, heap-file append,
  /// and outlier re-clustering all run concurrently because each
  /// sub-chunk owns disjoint partitions and per-sub-chunk
  /// derived-id/partition-name sequences. The resulting catalog is
  /// bit-identical to the sequential loop at any thread count.
  ///
  /// A trajectory with fewer than 2 samples fails the whole batch with
  /// `InvalidArgument` before any mutation (the sequential loop would
  /// abort mid-way instead).
  ///
  /// Locking: ids, node creation and the exclusive hold of every target
  /// sub-chunk, taken in ascending index order, happen under the node
  /// lock, which is released before the apply fan-out; the sub-chunks are
  /// released when the batch is whole. So a QUT whose window shares no
  /// sub-chunk with the batch never waits for it, and one that does sees
  /// the batch wholly or not at all. A batch that fails once it has
  /// started changing sub-chunks marks the tree `failed()` before it
  /// releases them: no reader sees half a batch, and the tree refuses
  /// further batches and reads.
  Status InsertBatch(const traj::TrajectoryStore& store,
                     exec::ExecContext* exec);

  /// Range flavor for incremental ingest: inserts trajectories
  /// [first, first + count) of `store`, with their store ids as the
  /// provenance ids — exactly what the sequential `Insert` loop over that
  /// range would do. The service's ingest worker drains each newly
  /// appended batch into the shared tree through this without re-feeding
  /// the whole store.
  Status InsertBatch(const traj::TrajectoryStore& store,
                     exec::ExecContext* exec, traj::TrajectoryId first,
                     size_t count);

  const ReTraTreeParams& params() const { return params_; }
  /// L1/L2 as they stand, for a quiescent tree only (tests and tools):
  /// the map is handed out without the node lock, so no batch may run
  /// while the caller walks it, and the caller still takes each
  /// sub-chunk's `mu` to read its guarded fields.
  const std::map<int64_t, Chunk>& chunks() const NO_THREAD_SAFETY_ANALYSIS {
    return chunks_;
  }
  /// True once a batch failed part-way: the tree holds half a batch, so
  /// it refuses batches and `QuTClustering` answers from it fail with
  /// `Unavailable`. Its owner drops it and builds a new one.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Snapshot of the ingest/read counters, copied under `stats_mu_` so a
  /// caller never observes a torn update from a concurrent apply task.
  ReTraTreeStats stats() const {
    common::MutexLock lock(&stats_mu_);
    return stats_;
  }

  /// Sub-chunks whose interval intersects [t0, t1), ordered by time, as
  /// one locked view: under the node lock (shared) each is taken shared in
  /// ascending order, and the view holds them until it is destroyed
  /// (strict two-phase locking, so a reader sees each batch wholly or
  /// not at all inside its window). Check `failed()` once the view is
  /// taken: a failed batch marked the tree before it released any
  /// sub-chunk. A thread may hold one view of a tree at a time, and no
  /// batch of that tree.
  SubChunkView SubChunksIn(double t0, double t1) const;

  /// Reads all members of a representative's partition, in append order.
  StatusOr<PartitionRead> ReadMembers(const RepresentativeEntry& entry) const;

  /// Reads members whose bounds meet the closed window [t0, t1], in
  /// append order: a box test per member of the hot snapshot, or of a
  /// full scan when the partition is cold.
  StatusOr<PartitionRead> ReadMembersInWindow(const RepresentativeEntry& entry,
                                              double t0, double t1) const;

  /// Reads the outlier partition of a sub-chunk, in append order.
  StatusOr<PartitionRead> ReadOutliers(const SubChunk& sc) const;

  // ---- Hot index tier (docs/ARCHITECTURE.md "QUT hot/cold tier") ------
  //
  // The three read methods above transparently serve from an immutable
  // in-memory snapshot when one is published for the partition (probe:
  // one atomic load, zero locks, zero page I/O, and the members are
  // handed out in place under the snapshot's pin) and fall back to a
  // scan of the partition's heap file otherwise, promoting the partition
  // on the way out. Appends keep live snapshots coherent by republishing
  // them; re-clustering drops the outlier snapshot with the buffer. Snapshots
  // never change query results — only where the bytes are read from.

  /// Sets the hot-tier byte budget. Shrinking demotes LRU snapshots
  /// immediately; 0 disables the tier and demotes everything.
  void SetHotIndexBudget(size_t bytes);
  size_t hot_index_budget() const {
    return hot_index_budget_.load(std::memory_order_relaxed);
  }
  HotTierStats hot_stats() const;
  ColdIoStats cold_io_stats() const;
  /// Registry every hot snapshot pins (tests watch live/total through it).
  const std::shared_ptr<traj::EpochPinRegistry>& hot_pin_registry() const {
    return hot_pins_;
  }

  /// Total representatives across all sub-chunks.
  size_t TotalRepresentatives() const;

  /// Validates structural invariants (sub-chunk intervals, member counts
  /// against the partitions' records).
  Status Validate() const;

  /// Writes every partition's meta page and dirty pages to the env.
  /// Besides eviction, this is the only way the tree's pages reach it:
  /// destroying the tree discards them.
  Status Flush();

 private:
  ReTraTree(ReTraTreeParams params,
            std::unique_ptr<storage::PartitionManager> partitions,
            exec::ExecContext* exec);

  /// One boundary-trimmed, size-bounded piece awaiting apply, tagged with
  /// the sub-chunk it was bucketed into.
  struct PendingPiece {
    int64_t sub_chunk = 0;
    traj::SubTrajectory st;
  };

  int64_t ChunkIndexOf(double t) const;
  int64_t SubChunkIndexOf(double t) const;

  /// Returns (creating on demand) the sub-chunk with global index `si`
  /// (the batch path's bucket key, so bucketing and lookup cannot
  /// disagree on boundary times).
  SubChunk* GetOrCreateSubChunkByIndex(int64_t si) REQUIRES(nodes_mu_);

  /// Phase 2 of a batch (see `InsertBatch`'s locking): ids, nodes and
  /// sub-chunk locks under the node lock, then the per-sub-chunk apply
  /// fan-out over `ctx`. `per_traj` holds each trajectory's pieces in
  /// batch order.
  Status ApplyPieces(std::vector<std::vector<PendingPiece>> per_traj,
                     exec::ExecContext* ctx);

  /// Splits a trajectory at sub-chunk boundaries and the record-size bound
  /// into pieces with provenance but *no ids yet* (pure: no tree state is
  /// touched) — shared by `Insert` and the batch split phase so the two
  /// paths cannot diverge.
  Status SplitTrajectory(const traj::Trajectory& trajectory,
                         traj::TrajectoryId source_id,
                         std::vector<PendingPiece>* out) const;

  /// Routes one piece into `sc`; `allow_recluster` guards against
  /// recursion from the S2T loop. Only touches `sc`-owned state (plus the
  /// stats under their mutex), which is what makes the per-sub-chunk
  /// apply fan-out safe. `ctx` is handed to any S2T re-clustering run the
  /// piece triggers (a batch's override context, or the tree's own).
  Status InsertPiece(SubChunk* sc, traj::SubTrajectory piece,
                     bool allow_recluster, exec::ExecContext* ctx)
      REQUIRES(sc->mu);

  /// Appends a member to the partition of `entry`, one of `sc`'s
  /// representatives.
  Status AppendMember(SubChunk* sc, RepresentativeEntry* entry,
                      const traj::SubTrajectory& member) REQUIRES(sc->mu);

  /// The Fig. 2 loop: voting/segmentation/sampling over the outlier buffer,
  /// new representatives back-propagated, members redistributed. The S2T
  /// run fans out over `ctx` (results are bit-identical either way).
  Status ReclusterOutliers(SubChunk* sc, exec::ExecContext* ctx)
      REQUIRES(sc->mu);

  /// Full scan + decode of one partition, in append order (the shared
  /// cold-read body of all three read methods and the re-clustering
  /// buffer drain). Counts the records read.
  StatusOr<std::vector<traj::SubTrajectory>> ScanPartition(
      const std::string& name) const;

  using HotSlot = std::shared_ptr<const HotPartition>;

  /// Largest snapshot `ExtendHotSnapshot` will republish instead of
  /// demoting: each republish copies every member under the hot-tier
  /// mutex, so past this size the per-append copy costs more than the
  /// one cold scan that re-promotes the partition.
  static constexpr size_t kMaxHotExtendMembers = 4096;

  /// Publishes a snapshot for `slot` from just-decoded records (a cold
  /// read's side effect), moving them out of `*members`, and returns it.
  /// Returns null and leaves `*members` as it was when the tier is
  /// disabled, the slot raced hot, or the snapshot alone exceeds the
  /// budget (its bytes are known before anything is moved).
  HotSlot MaybePromote(HotSlot* slot,
                       std::vector<traj::SubTrajectory>* members) const;
  /// Copy-on-write republish of a live snapshot after an append — the
  /// drain worker's incremental catch-up extends the snapshot as it
  /// appends to the heap file. No-op when the slot is cold. Past
  /// `kMaxHotExtendMembers` the per-append copy of every member outweighs
  /// the tier's benefit, so the slot is demoted instead (the next read
  /// re-promotes once); the slot is also demoted if the member fails the
  /// encode/decode roundtrip, because the record is already durable and
  /// a stale snapshot would silently hide it from hot reads.
  Status ExtendHotSnapshot(HotSlot* slot,
                           const traj::SubTrajectory& member) const;
  /// Drops a live snapshot.
  void DemoteLocked(HotSlot* slot) const REQUIRES(hot_mu_);
  /// LRU-demotes snapshots until the budget is met.
  void EnforceBudgetLocked() const REQUIRES(hot_mu_);
  void TouchHot(const HotPartition& hot) const {
    hot.last_access.store(
        hot_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  /// Budget bytes of a snapshot of `members`: the snapshot, the members
  /// with their samples, and one box per member.
  static size_t HotBytesOf(const std::vector<traj::SubTrajectory>& members);

  /// Id for a sub-trajectory derived by a re-clustering run (new
  /// representative, re-labeled member, or residue): bit 63 set, the
  /// zig-zagged sub-chunk index in bits [62:24], and the sub-chunk's own
  /// sequence in bits [23:0]. Disjoint from the piece-id space
  /// (`next_sub_id_`), so pre-assigning piece ids by prefix sum stays
  /// exact no matter how many ids re-clustering consumes. Fails once the
  /// sub-chunk's sequence is exhausted.
  StatusOr<uint64_t> NextDerivedId(SubChunk* sc) REQUIRES(sc->mu);

  ReTraTreeParams params_;
  std::unique_ptr<storage::PartitionManager> partitions_;
  exec::ExecContext* exec_;  // Not owned; nullptr = sequential.

  /// The node lock: guards the shape of L1/L2 (`chunks_` and each chunk's
  /// sub-chunk map) and `next_sub_id_`. Taken before any sub-chunk's
  /// `mu`; sub-chunks are always taken in ascending index order.
  mutable common::SharedMutex nodes_mu_;
  std::map<int64_t, Chunk> chunks_ GUARDED_BY(nodes_mu_);
  traj::SubTrajectoryId next_sub_id_ GUARDED_BY(nodes_mu_) = 0;
  /// Set by a batch that failed part-way, before it releases its
  /// sub-chunks (see `failed()`).
  std::atomic<bool> failed_{false};
  /// Serializes stats updates from concurrent apply tasks.
  mutable common::Mutex stats_mu_;
  /// Cold read paths count records read.
  mutable ReTraTreeStats stats_ GUARDED_BY(stats_mu_);

  // ---- Hot tier state. The probe path touches only the atomics and the
  // per-slot shared_ptr (via std::atomic_load); hot_mu_ guards
  // publication, demotion, budget changes, and the slot registry —
  // it is never taken on a hot hit. Every store to a slot holds hot_mu_,
  // so code under it may read a slot plainly.
  mutable common::Mutex hot_mu_;
  /// Every slot that ever published a snapshot (slot addresses are
  /// stable: entries and sub-chunks are never destroyed while the tree
  /// lives). Demoted slots stay listed holding null.
  mutable std::vector<HotSlot*> hot_slots_ GUARDED_BY(hot_mu_);
  std::atomic<size_t> hot_index_budget_{kDefaultHotIndexBudget};
  mutable std::atomic<size_t> hot_bytes_{0};
  mutable std::atomic<uint64_t> hot_clock_{0};
  mutable std::atomic<uint64_t> qut_hot_probes_{0};
  mutable std::atomic<uint64_t> qut_cold_probes_{0};
  mutable std::atomic<uint64_t> hot_promotions_{0};
  mutable std::atomic<uint64_t> hot_demotions_{0};
  std::shared_ptr<traj::EpochPinRegistry> hot_pins_ =
      std::make_shared<traj::EpochPinRegistry>();
};

}  // namespace hermes::core

#endif  // HERMES_CORE_RETRATREE_H_
