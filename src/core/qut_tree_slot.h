#ifndef HERMES_CORE_QUT_TREE_SLOT_H_
#define HERMES_CORE_QUT_TREE_SLOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/retratree.h"
#include "exec/exec_context.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"

namespace hermes::core {

/// Maps the SQL `QUT(D, Wi, We, tau, delta, t, d, gamma)` tail — the 5
/// tree parameters — onto `ReTraTreeParams`, including the
/// sigma = epsilon = d convention for the buffer re-clustering runs.
ReTraTreeParams MakeQutTreeParams(const std::vector<double>& tree_params);

/// What one `QutTreeSlot::Refresh` / `CatchUp` call had to do.
enum class QutTreeWork { kNone, kCaughtUp, kRebuilt };

/// \brief The one lifecycle of a QUT ReTraTree over a growing store,
/// shared by the embedded session, the service server (query path and
/// ingest worker) and the shard coordinator's merged view.
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
/// retired tree's files are deleted. The store handed to `Refresh` /
/// `CatchUp` must be the one the tree was built over (append-only since);
/// an owner whose store is replaced calls `Drop`.
///
/// Not internally synchronized: owners guard the slot with the lock that
/// guards its store.
class QutTreeSlot {
 public:
  QutTreeSlot(storage::Env* env, std::string dir_prefix);
  /// Drops the tree (deleting its files).
  ~QutTreeSlot();

  QutTreeSlot(const QutTreeSlot&) = delete;
  QutTreeSlot& operator=(const QutTreeSlot&) = delete;

  /// True when the tree was built with `tree_params` and has consumed all
  /// `num_trajectories` of its store — QUT can run without `Refresh`.
  bool Fresh(const std::vector<double>& tree_params,
             size_t num_trajectories) const;

  /// Brings the tree up to date for `tree_params` over `store` (see the
  /// class comment), then applies `hot_budget`. `exec` runs the inserts
  /// (nullptr = sequential); a live context records its own phase
  /// timings, so only a sequential refresh archives the work it did —
  /// the S2T re-clustering phases and the ingest split — into `archive`
  /// (optional). `tree_params` must hold exactly 5 values.
  StatusOr<QutTreeWork> Refresh(const std::vector<double>& tree_params,
                                const traj::TrajectoryStore& store,
                                exec::ExecContext* exec, size_t hot_budget,
                                exec::ExecStats* archive = nullptr);

  /// Catches an existing tree up with `store`; without a tree it does
  /// nothing (the ingest worker keeps a live tree current but never
  /// builds one).
  StatusOr<QutTreeWork> CatchUp(const traj::TrajectoryStore& store,
                                exec::ExecContext* exec,
                                exec::ExecStats* archive = nullptr);

  /// Retires the tree and deletes its files; the next `Refresh` rebuilds.
  void Drop();

  /// The current tree, or nullptr.
  ReTraTree* tree() const { return tree_.get(); }

 private:
  storage::Env* env_;
  std::string dir_prefix_;
  std::unique_ptr<ReTraTree> tree_;
  std::string dir_;
  std::vector<double> params_;
  size_t consumed_ = 0;
  uint64_t seq_ = 0;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_QUT_TREE_SLOT_H_
