#ifndef HERMES_CORE_QUT_TREE_SLOT_H_
#define HERMES_CORE_QUT_TREE_SLOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/qut_clustering.h"
#include "core/retratree.h"
#include "exec/exec_context.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"

namespace hermes::core {

/// Maps the SQL `QUT(D, Wi, We, tau, delta, t, d, gamma)` tail — the 5
/// tree parameters — onto `ReTraTreeParams`, including the
/// sigma = epsilon = d convention for the buffer re-clustering runs.
/// Expects values inside the domains `QutTreeSlot` checks (a fractional
/// `gamma` is truncated).
ReTraTreeParams MakeQutTreeParams(const std::vector<double>& tree_params);

/// Deletes every file directly under `dir` (a tree keeps its partitions
/// and their indexes flat in its directory). Best effort: a file that
/// will not go only leaks space.
void DeleteTreeFiles(storage::Env* env, const std::string& dir);

/// What one `QutTreeSlot::Refresh` / `CatchUp` call had to do.
enum class QutTreeWork { kNone, kCaughtUp, kRebuilt };

/// \brief The one lifecycle, lock and read path of a QUT ReTraTree over a
/// growing store: each MOD of a `service::Server` owns one, read by the
/// query path and caught up by the ingest worker. (The embedded
/// `sql::Session` and the shard coordinator's merged views are MODs of
/// private servers.)
///
/// The slot owns the tree, its raw `(tau, delta, t, d, gamma)`, how many
/// store trajectories the tree has consumed, and the sequence naming its
/// env directories (`dir_prefix` + n). One rule keeps it current:
/// rebuild when the parameters change or after `Drop`, otherwise catch up
/// `[consumed, n)` with `ReTraTree::InsertBatch` — bit-identical to a
/// rebuild, because a batch equals the sequential insert loop for any
/// range split. One-sample trajectories (no segment) are left out. Any
/// failure drops the tree, so the next refresh rebuilds from a clean
/// directory instead of re-applying into a half-mutated one.
///
/// A tree is a cache of its store: nothing persists or reopens it, and a
/// retired tree's files are deleted. Every store handed to `Query` /
/// `Refresh` / `CatchUp` must be a prefix or an append-only extension of
/// the trajectory sequence the tree consumed — the same store, or a
/// snapshot of it; an owner whose store is replaced calls `Drop` (the
/// server instead replaces the whole MOD, slot included).
///
/// Thread-safe: queries on a fresh tree and catch-ups share the slot's
/// lock; builds, parameter or budget changes and drops take it
/// exclusive. Catch-ups run one at a time (`catchup_mu_`), and a QUT
/// waits for one only on the sub-chunks its window shares with the
/// batch (`ReTraTree::InsertBatch`). A catch-up that fails part-way
/// leaves its tree `failed()`, so no QUT answers from it, and any failed
/// catch-up drops its tree. The owner keeps the store it passes from
/// changing during a call (an immutable snapshot, or its own lock held),
/// so the slot's lock is always the inner one.
class QutTreeSlot {
 public:
  QutTreeSlot(storage::Env* env, std::string dir_prefix);
  /// Drops the tree (deleting its files).
  ~QutTreeSlot();

  QutTreeSlot(const QutTreeSlot&) = delete;
  QutTreeSlot& operator=(const QutTreeSlot&) = delete;

  /// The QUT read path over `store`: a fresh tree (built with
  /// `tree_params`, covering `store`, budget `hot_budget`, not failed)
  /// answers under the shared lock; otherwise, or when a catch-up fails
  /// under the answer, `Refresh` runs and the window is answered under
  /// the exclusive lock. `work` (optional) gets what it took. A window
  /// `CheckQutWindow` rejects fails first, building nothing.
  StatusOr<QuTResult> Query(const std::vector<double>& tree_params,
                            const traj::TrajectoryStore& store,
                            exec::ExecContext* exec, size_t hot_budget,
                            double wi, double we,
                            exec::ExecStats* archive = nullptr,
                            QutTreeWork* work = nullptr);

  /// True when the tree was built with `tree_params` and has consumed at
  /// least `num_trajectories` of its store's trajectories.
  bool Fresh(const std::vector<double>& tree_params,
             size_t num_trajectories) const;

  /// Brings the tree up to date for `tree_params` over `store` (see the
  /// class comment), then applies `hot_budget`. `exec` runs the inserts
  /// (nullptr = sequential); a live context records its own phase
  /// timings, so only a sequential refresh archives the work it did —
  /// the S2T re-clustering phases and the ingest split — into `archive`
  /// (optional). `tree_params` must hold exactly 5 values inside their
  /// domains — `tau`, `delta`, `d` finite and > 0, `t` finite and >= 0,
  /// `gamma` in [0, 2^32) — else `InvalidArgument` naming the first bad
  /// one, with any existing tree left as it was.
  StatusOr<QutTreeWork> Refresh(const std::vector<double>& tree_params,
                                const traj::TrajectoryStore& store,
                                exec::ExecContext* exec, size_t hot_budget,
                                exec::ExecStats* archive = nullptr);

  /// Catches an existing tree up with `store`; without a tree it does
  /// nothing (the ingest worker keeps a live tree current but never
  /// builds one). Runs under the shared lock, so QUTs on windows the new
  /// trajectories do not touch keep answering meanwhile; on failure it
  /// takes the lock exclusive and drops the tree.
  StatusOr<QutTreeWork> CatchUp(const traj::TrajectoryStore& store,
                                exec::ExecContext* exec,
                                exec::ExecStats* archive = nullptr);

  /// Retires the tree and deletes its files; the next `Refresh` rebuilds.
  void Drop();

  /// The tree's hot-tier counters plus its cold-tier resident bytes;
  /// zeros when there is no tree.
  HotTierStats hot_stats() const;

  /// The current tree, or nullptr (for tests: the pointer dies with the
  /// next rebuild or `Drop`).
  ReTraTree* tree() const;

 private:
  bool FreshLocked(const std::vector<double>& tree_params,
                   size_t num_trajectories) const REQUIRES_SHARED(mu_);
  StatusOr<QutTreeWork> RefreshLocked(const std::vector<double>& tree_params,
                                      const traj::TrajectoryStore& store,
                                      exec::ExecContext* exec,
                                      size_t hot_budget,
                                      exec::ExecStats* archive) REQUIRES(mu_);
  /// Inserts `[consumed_, n)`; on failure the tree holds what it applied
  /// and the caller drops it.
  StatusOr<QutTreeWork> CatchUpLocked(const traj::TrajectoryStore& store,
                                      exec::ExecContext* exec,
                                      exec::ExecStats* archive)
      REQUIRES_SHARED(mu_) REQUIRES(catchup_mu_);
  void DropLocked() REQUIRES(mu_);

  storage::Env* const env_;
  const std::string dir_prefix_;
  mutable common::SharedMutex mu_;
  /// Serializes catch-ups, which hold `mu_` only shared. Taken after it.
  common::Mutex catchup_mu_ ACQUIRED_AFTER(mu_);
  std::unique_ptr<ReTraTree> tree_ GUARDED_BY(mu_);
  std::string dir_ GUARDED_BY(mu_);
  std::vector<double> params_ GUARDED_BY(mu_);
  /// Store trajectories the tree has consumed. Written under `mu_`
  /// shared plus `catchup_mu_`, or `mu_` exclusive; read by QUTs under
  /// `mu_` shared while a catch-up may advance it.
  std::atomic<size_t> consumed_{0};
  /// Bumped by each build, so a failed catch-up drops only its own tree.
  uint64_t seq_ GUARDED_BY(mu_) = 0;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_QUT_TREE_SLOT_H_
