#ifndef HERMES_TRAJ_TRAJECTORY_STORE_H_
#define HERMES_TRAJ_TRAJECTORY_STORE_H_

#include <array>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "traj/segment_arena.h"
#include "traj/trajectory.h"

namespace hermes::traj {

/// \brief One fixed-capacity block of trajectory pointers, with each
/// trajectory's lifespan as columns and a zone map over them. Blocks
/// other than the last are full and immutable, so snapshots share them by
/// `shared_ptr` instead of copying 512 refcounted pointers each — the
/// same trick `SegmentBlock` plays for the columnar arena.
///
/// The lifespan columns let a time-window scan test a trajectory without
/// dereferencing it, and the zone map lets it skip the whole block: data
/// appended roughly in time order (a live feed) leaves most blocks
/// disjoint from a recent window.
struct TrajBlock {
  static constexpr size_t kShift = 9;  ///< 512 trajectories per block.
  static constexpr size_t kRows = size_t{1} << kShift;
  static constexpr size_t kMask = kRows - 1;

  std::array<std::shared_ptr<const Trajectory>, kRows> slots;
  /// `slots[r]->StartTime()` / `EndTime()`, for the filled slots.
  std::array<double, kRows> start{};
  std::array<double, kRows> end{};
  /// Zone map: min `start` / max `end` over the filled slots.
  double min_start = std::numeric_limits<double>::infinity();
  double max_end = -std::numeric_limits<double>::infinity();
};

/// \brief The Moving Object Database (MOD): an append-only collection of
/// trajectories with aggregate statistics and CSV import/export.
///
/// This plays the role of the Hermes@PostgreSQL relation holding the raw
/// trajectory data; on top of it the voting engine builds the pg3D-Rtree
/// and the ReTraTree partitions its contents.
///
/// Concurrency contract (mirrors `SegmentArenaBuilder`): `Add`/`LoadCsv`
/// calls are externally serialized — they come from a single writer (the
/// service's ingest worker, or a single-threaded embedder). `Snapshot()`
/// (and the copy constructor, which is the same operation) may run
/// concurrently with the writer; every other accessor is safe on a
/// quiesced store or on a snapshot, but must not race an in-flight `Add`.
/// Trajectories are individually heap-allocated and immutable once added,
/// so snapshots share them (and all full arena blocks) instead of copying
/// sample data. The pointer list itself is chunked into `TrajBlock`s:
/// full blocks are shared wholesale and only the mutable tail block is
/// copied, so a snapshot costs O(#blocks + tail) rather than
/// O(#trajectories) — the difference between republish cost growing with
/// total MOD size and growing with what changed since the last publish.
class TrajectoryStore {
 public:
  TrajectoryStore() = default;
  /// Copying IS snapshotting: locks `o` against its writer and shares the
  /// immutable trajectory objects + arena blocks.
  TrajectoryStore(const TrajectoryStore& o) { CopyFrom(o); }
  TrajectoryStore& operator=(const TrajectoryStore& o) {
    if (this != &o) CopyFrom(o);
    return *this;
  }
  TrajectoryStore(TrajectoryStore&& o) noexcept { MoveFrom(std::move(o)); }
  TrajectoryStore& operator=(TrajectoryStore&& o) noexcept {
    if (this != &o) MoveFrom(std::move(o));
    return *this;
  }

  /// Adds a trajectory after validation; returns its id.
  StatusOr<TrajectoryId> Add(Trajectory trajectory);

  // The read accessors below carry NO_THREAD_SAFETY_ANALYSIS: they read
  // guarded fields without `mu_` under the class contract (quiesced store
  // or private snapshot — see the class comment). Taking the lock here
  // would serialize concurrent snapshot readers on the writer's mutex for
  // races that cannot occur; the annotation records the deliberate escape
  // instead of hiding the fields from the analysis entirely.
  const Trajectory& Get(TrajectoryId id) const NO_THREAD_SAFETY_ANALYSIS;
  size_t NumTrajectories() const NO_THREAD_SAFETY_ANALYSIS { return size_; }
  size_t NumPoints() const NO_THREAD_SAFETY_ANALYSIS { return num_points_; }
  /// Exact: `Add` rejects empty trajectories, so each has size()-1.
  size_t NumSegments() const NO_THREAD_SAFETY_ANALYSIS {
    return num_points_ - size_;
  }

  /// \brief The first id >= `from` whose lifespan meets the closed window
  /// [t0, t1] (the test `Trajectory::Slice` uses for emptiness), or
  /// `NumTrajectories()` when none does. Reads only the blocks' lifespan
  /// columns and skips every block whose zone map misses the window.
  TrajectoryId NextOverlapping(TrajectoryId from, double t0, double t1) const
      NO_THREAD_SAFETY_ANALYSIS;

  /// The pointer blocks; `block(b)` holds ids [b*kRows, (b+1)*kRows).
  /// Diagnostics and tests read the lifespan columns and zone maps here.
  size_t NumBlocks() const NO_THREAD_SAFETY_ANALYSIS { return blocks_.size(); }
  const TrajBlock& block(size_t b) const NO_THREAD_SAFETY_ANALYSIS {
    return *blocks_[b];
  }

  /// \brief An immutable read view for concurrent query execution: readers
  /// sweep the snapshot (full `TrajectoryStore` interface) while the
  /// writer keeps appending to `this`. The snapshot holds shared ownership
  /// of every trajectory and arena block it can see, so it stays valid for
  /// as long as the caller keeps it.
  TrajectoryStore Snapshot() const { return *this; }

  /// Ids of all trajectories of one object (an object may have several
  /// recorded trips). O(#trajectories) scan: the per-object index this
  /// used to maintain cost every snapshot an O(#objects) map copy, and
  /// nothing on the query path needs the grouping — only diagnostics do.
  std::vector<TrajectoryId> TrajectoriesOf(ObjectId object) const
      NO_THREAD_SAFETY_ANALYSIS;

  /// Bounding box over the whole MOD: every trajectory's `Bounds()`
  /// folded with `Mbb3D::Extend` in id order, kept as `Add` runs.
  geom::Mbb3D Bounds() const NO_THREAD_SAFETY_ANALYSIS { return bounds_; }
  /// [min start time, max end time] over the MOD, folded with `std::min`
  /// / `std::max` in id order as `Add` runs; (0,0) when empty.
  std::pair<double, double> TimeDomain() const NO_THREAD_SAFETY_ANALYSIS {
    if (size_ == 0) return {0.0, 0.0};
    return {t_min_, t_max_};
  }

  /// Resolves a segment reference to its geometry.
  geom::Segment3D Resolve(const SegmentRef& ref) const;

  /// \brief The current epoch of the store's columnar segment arena.
  ///
  /// The arena is maintained incrementally: `Add` appends the new
  /// trajectory's rows to fixed-capacity column blocks instead of
  /// re-materializing the snapshot, and this call publishes (or re-returns)
  /// an immutable epoch over the rows added so far. Callers may keep
  /// sweeping an older epoch while further `Add`s proceed. The returned
  /// epoch is pinned (see `SegmentArenaCounters::epochs_pinned`) until the
  /// last copy of it is destroyed.
  SegmentArena ArenaSnapshot() const { return arena_.Snapshot(); }

  /// Append/epoch counters of the arena (observability + regression tests).
  SegmentArenaCounters arena_counters() const { return arena_.counters(); }

  /// \brief Loads `obj_id,t,x,y` CSV rows (header optional). Rows of one
  /// object must be time-ordered; each object yields one trajectory.
  Status LoadCsv(const std::string& path);

  /// Writes the store as `obj_id,t,x,y` CSV.
  Status SaveCsv(const std::string& path) const NO_THREAD_SAFETY_ANALYSIS;

 private:
  // CopyFrom/MoveFrom lock only the *source* store: `this` is a fresh or
  // assignment-target object owned exclusively by the caller, so its
  // fields need no lock. Thread-safety analysis cannot express that
  // asymmetry (it would demand `mu_` for the writes to `this`), hence the
  // deliberate escape.
  void CopyFrom(const TrajectoryStore& o) NO_THREAD_SAFETY_ANALYSIS;
  void MoveFrom(TrajectoryStore&& o) NO_THREAD_SAFETY_ANALYSIS;

  /// Unsynchronized read of slot `id`; callers own the class's read
  /// contract (quiesced store or private snapshot).
  const Trajectory& At(TrajectoryId id) const NO_THREAD_SAFETY_ANALYSIS {
    return *blocks_[id >> TrajBlock::kShift]->slots[id & TrajBlock::kMask];
  }

  /// Guards the block list / aggregate metadata against `Snapshot`
  /// racing the writer (the pointed-to trajectories never need it).
  mutable common::Mutex mu_;
  /// Chunked pointer list; `blocks_[i]` holds ids [i*kRows, (i+1)*kRows).
  /// All blocks but the last are full and never mutated again.
  std::vector<std::shared_ptr<TrajBlock>> blocks_ GUARDED_BY(mu_);
  size_t size_ GUARDED_BY(mu_) = 0;
  size_t num_points_ GUARDED_BY(mu_) = 0;
  /// Running aggregates behind `TimeDomain` and `Bounds`.
  double t_min_ GUARDED_BY(mu_) = std::numeric_limits<double>::infinity();
  double t_max_ GUARDED_BY(mu_) = -std::numeric_limits<double>::infinity();
  geom::Mbb3D bounds_ GUARDED_BY(mu_);
  /// Columnar mirror of `trajectories_`, appended to by `Add`. Internally
  /// locked (its own `mu_`); reassigned only by CopyFrom/MoveFrom, which
  /// own `this` exclusively, so it carries no GUARDED_BY.
  SegmentArenaBuilder arena_;
};

}  // namespace hermes::traj

#endif  // HERMES_TRAJ_TRAJECTORY_STORE_H_
