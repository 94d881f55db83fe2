#ifndef HERMES_SHARD_COORDINATOR_H_
#define HERMES_SHARD_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/qut_tree_slot.h"
#include "exec/exec_context.h"
#include "service/server.h"
#include "service/service_config.h"
#include "shard/partitioner.h"
#include "sql/statement_executor.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"

namespace hermes::shard {

/// Coordinator-level counters: the shard-wise aggregate plus each
/// shard's own `service::ServiceStats` (the `SHOW SERVICE STATS`
/// breakdown rows).
struct CoordinatorStats {
  service::ServiceStats total;
  std::vector<service::ServiceStats> per_shard;
};

class CoordinatorSession;

/// \brief Scatter–gather front end over N single-writer `service::Server`
/// shards, speaking the same SQL dialect through the same
/// `sql::StatementExecutor` interface as every other backend.
///
/// Ownership / threading:
///
///  - The coordinator owns the env (shared by all shards, each under its
///    own `data_dir/shard<k>` subtree), one `ExecContext` for merges and
///    merged-tree builds, the partitioner, and the N shard servers. It
///    must outlive every session it connects. A session's hooks call
///    the methods below, which call the shards' `service::Server` API.
///  - Statement routing (see docs/SQL.md "Sharded execution"):
///    DDL (`CREATE`/`DROP` MOD), `FLUSH`, and `CHECKPOINT` run on every
///    shard; `INSERT` routes each trajectory to the owning shard by the
///    partitioner (object-id hash); `RANGE` and `STATS` evaluate on each
///    shard's published snapshot and gather — `RANGE` merges row-wise
///    with a stable sort on the object-id key, `STATS` folds the
///    per-shard aggregates exactly (sums for counts, min/max for
///    domains). Clustering analytics (`S2T`, `S2T_MEMBERS`, `QUT`,
///    `TRACLUS`, ...) are *not* shard-decomposable — a cluster may span
///    shards — so they evaluate on a merged snapshot instead.
///  - The merged snapshot is the determinism keystone: per-shard
///    published snapshots are gathered and their trajectories merged in
///    ascending object-id order (stable within an object, and an object
///    lives entirely on one shard), so the merged store — and therefore
///    every analytic result — is bit-identical for any shard count, and
///    identical to the unsharded server whenever objects first appear in
///    ascending id order (the datagen convention). Merged stores are
///    cached per MOD and rebuilt only when some shard publishes a new
///    snapshot; a move of the merge drops the MOD's merged QUT tree
///    (`core::QutTreeSlot::Drop`), and the next QUT rebuilds it.
///
/// Startup is atomic: if shard k fails to recover, `Start` fails with a
/// `"shard k: ..."`-prefixed Status and every already-started shard is
/// shut down — a half-started topology never escapes.
class Coordinator {
 public:
  /// Starts every shard from `config` (validated first). `env` defaults
  /// to a private in-memory environment shared by all shards;
  /// `partitioner` defaults to `MakeHashPartitioner()`.
  static StatusOr<std::unique_ptr<Coordinator>> Start(
      service::ServiceConfig config, storage::Env* env = nullptr,
      std::unique_ptr<Partitioner> partitioner = nullptr);

  ~Coordinator();

  /// Shuts every shard down (drains their ingest queues). Idempotent.
  void Shutdown();

  /// Opens an independent coordinator session: its own settings and
  /// exec context. The coordinator must outlive it.
  std::unique_ptr<sql::StatementExecutor> Connect();

  // ---- DDL and CHECKPOINT: the `service::Server` call on every shard in
  // shard order; the first error wins, unprefixed (lockstep catalogs
  // fail alike).
  Status CreateMod(const std::string& name);
  /// Also retires the MOD's merged store and QUT tree.
  Status DropMod(const std::string& name);
  Status Checkpoint();

  /// Splits `store` by the partitioner and registers each piece on its
  /// owning shard (every shard gets the MOD, possibly empty) — the bulk
  /// seeding path mirroring `service::Server::RegisterStore`.
  Status RegisterStore(const std::string& name, traj::TrajectoryStore store);

  /// Routes each trajectory of a parsed LOAD file (`sql::ReadLoadFile`)
  /// to its owning shard and flushes; returns the MOD's post-load
  /// (trajectories, points) totals — the sharded counterpart of
  /// `service::Server::LoadMod` (the MOD is created on every shard if
  /// absent).
  StatusOr<std::pair<size_t, size_t>> LoadMod(const std::string& name,
                                              traj::TrajectoryStore parsed);

  /// Checks the whole batch (`sql::CheckIngestable`), then queues each
  /// trajectory on its owning shard; returns the largest shard ticket.
  StatusOr<uint64_t> EnqueueInsert(const std::string& name,
                                   std::vector<traj::Trajectory> batch);

  /// Blocks until every shard's queued ingest is applied and visible.
  Status Flush();

  /// Point-in-time counters: aggregate (with this coordinator's own
  /// sessions) + per-shard breakdown.
  CoordinatorStats Stats() const;

  /// Per-shard published snapshots of the MOD, in shard order.
  StatusOr<std::vector<std::shared_ptr<const traj::TrajectoryStore>>>
  ShardSnapshots(const std::string& name) const;

  /// The MOD's merged snapshot across all shards (cached; rebuilt only
  /// when a shard republished). Canonical object-id order — see the
  /// class comment for the determinism contract.
  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> GatherSnapshot(
      const std::string& name);

  /// QUT over the MOD's merged tree (built from the merged snapshot,
  /// cached until the merge moves), through `core::QutTreeSlot::Query`
  /// under the merged view's shared lock — the same path as
  /// `service::Server::QutQuery`.
  StatusOr<core::QuTResult> QutQuery(const std::string& name, double wi,
                                     double we,
                                     const std::vector<double>& tree_params);

  size_t num_shards() const { return shards_.size(); }
  const service::ServiceConfig& config() const { return config_; }
  const Partitioner& partitioner() const { return *partitioner_; }
  /// Direct shard access (tests, drain paths). `k < num_shards()`.
  service::Server* shard(size_t k) { return shards_[k].get(); }

 private:
  /// One MOD's merged view. `sources` records the per-shard snapshot
  /// identities the cache was built from (held shared so a pointer can
  /// never be reused while we still compare against it); `merged` is the
  /// canonical-order merge of exactly those snapshots, and `tree` is
  /// built over `merged` (dropped whenever `merged` is replaced).
  struct MergedMod {
    MergedMod(storage::Env* env, std::string tree_prefix)
        : tree(env, std::move(tree_prefix)) {}

    /// Writers rebuild the merge (dropping the tree); QUT readers and
    /// snapshot reads of a current merge take it shared, so concurrent
    /// queries proceed in parallel.
    common::SharedMutex mu;
    std::vector<std::shared_ptr<const traj::TrajectoryStore>> sources
        GUARDED_BY(mu);
    std::shared_ptr<const traj::TrajectoryStore> merged GUARDED_BY(mu);
    /// The merged tree over `merged`. The slot locks itself; QUT calls
    /// it under `mu` shared so `merged` stays put.
    core::QutTreeSlot tree;
  };

  friend class CoordinatorSession;

  Coordinator(service::ServiceConfig config, storage::Env* env,
              std::unique_ptr<Partitioner> partitioner);

  /// `batch` split by owning shard, in batch order within each shard.
  std::vector<std::vector<traj::Trajectory>> SplitByShard(
      std::vector<traj::Trajectory> batch) const;
  /// Runs `call` on every shard in shard order; the first error wins.
  Status OnEveryShard(const std::function<Status(service::Server*)>& call);
  /// The MOD's merged view, refreshed to the shards' current snapshots.
  StatusOr<std::shared_ptr<MergedMod>> CurrentMerged(const std::string& name);
  /// Rebuilds `mm->merged` from `snaps` (dropping the stale tree).
  Status RebuildMerged(MergedMod* mm,
                       std::vector<std::shared_ptr<const traj::TrajectoryStore>>
                           snaps) REQUIRES(mm->mu);
  void OnSessionClosed();

  service::ServiceConfig config_;
  std::unique_ptr<storage::Env> owned_env_;
  storage::Env* env_;
  std::unique_ptr<exec::ExecContext> exec_;
  std::unique_ptr<Partitioner> partitioner_;
  /// Started once in `Start`, immutable afterwards.
  std::vector<std::unique_ptr<service::Server>> shards_;

  mutable common::Mutex merged_mu_;
  std::map<std::string, std::shared_ptr<MergedMod>> merged_
      GUARDED_BY(merged_mu_);

  /// Serializes Shutdown against itself (dtor + explicit call).
  common::Mutex shutdown_mu_;
  bool shut_down_ GUARDED_BY(shutdown_mu_) = false;

  // Counters of this coordinator's sessions (relaxed).
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_active_{0};
};

}  // namespace hermes::shard

#endif  // HERMES_SHARD_COORDINATOR_H_
