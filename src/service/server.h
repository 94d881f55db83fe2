#ifndef HERMES_SERVICE_SERVER_H_
#define HERMES_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/qut_tree_slot.h"
#include "exec/exec_context.h"
#include "service/ingest_queue.h"
#include "sql/cursor.h"
#include "sql/settings.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"
#include "wal/wal.h"

namespace hermes::service {

class ClientSession;

/// \brief Server configuration.
struct ServerOptions {
  /// Worker threads of the server's own `ExecContext` — used by the
  /// ingest worker's `InsertBatch` drains and shared-tree builds. Client
  /// sessions parallelize their *own* statements via their per-session
  /// `hermes.threads`.
  size_t threads = 1;
  /// Directory under the server env for ReTraTree partitions.
  std::string data_dir = "hermes_service";
  /// Pending-batch bound of the ingest queue before `Push` blocks.
  size_t ingest_queue_capacity = 1024;
  /// Initial `hermes.*` settings of every new client session.
  sql::HermesSettingDefaults session_defaults;
  /// Directory (under the server env) for the ingest WAL and
  /// checkpoints. Empty disables durability: no logging, no recovery,
  /// `CHECKPOINT` is rejected — exactly the pre-WAL server. Non-empty
  /// makes `Start` recover (checkpoint + WAL-tail replay) before the
  /// ingest worker spawns, and every catalog mutation write-ahead-logged
  /// with group commit (one fsync per worker drain).
  std::string wal_dir;
};

/// \brief Monotonic service counters, surfaced as `SHOW SERVICE STATS`.
struct ServiceStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_active = 0;
  uint64_t mods = 0;
  uint64_t ingest_queue_depth = 0;
  uint64_t batches_enqueued = 0;
  uint64_t batches_applied = 0;
  uint64_t trajectories_ingested = 0;
  uint64_t ingest_errors = 0;
  uint64_t flushes = 0;
  uint64_t snapshots_published = 0;
  uint64_t tree_catchups = 0;
  /// Arena epoch pins summed over all MODs: `epochs_pinned` counts
  /// snapshots readers currently hold (the server's published snapshot
  /// itself keeps one per MOD), `epoch_pins` the total ever handed out.
  uint64_t epochs_pinned = 0;
  uint64_t epoch_pins = 0;
  /// Cumulative batch-ingest phase split recorded on the server context
  /// (µs): the worker's drains plus query-path shared-tree builds and
  /// catch-ups, which run the same `InsertBatch` pipeline.
  int64_t ingest_split_us = 0;
  int64_t ingest_apply_us = 0;
  /// Hot in-memory index tier, summed over every shared tree (see
  /// `core::HotTierStats`): QUT probes served from hot snapshots vs the
  /// on-disk heap+Gist cold path, promote/demote churn, resident bytes.
  uint64_t qut_hot_probes = 0;
  uint64_t qut_cold_probes = 0;
  uint64_t hot_promotions = 0;
  uint64_t hot_demotions = 0;
  uint64_t hot_index_bytes = 0;
  uint64_t hot_partitions = 0;
  uint64_t hot_pins_total = 0;
  /// Durability counters (all zero on a non-WAL server). `wal_errors`
  /// counting up means the server went read-only: a WAL append or fsync
  /// failed, so mutations are rejected rather than applied undurably.
  uint64_t wal_records_appended = 0;
  uint64_t wal_bytes_appended = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_errors = 0;
  uint64_t checkpoints_taken = 0;
  /// Recovery: records replayed from the WAL tail at `Start`, and bytes
  /// dropped as a torn (CRC-failing) tail — never-acked residue of a
  /// crash mid-write.
  uint64_t wal_records_replayed = 0;
  uint64_t wal_torn_bytes_dropped = 0;
};

/// Validates an options struct the way `Server::Start` will (threads
/// range, session-default domains). Shared with `ServiceConfig::Validate`
/// so a sharded deployment rejects a bad configuration before any shard
/// spawns.
Status ValidateServerOptions(const ServerOptions& options);

/// Folds `s` into `*total` field-by-field — the shard coordinator's
/// `SHOW SERVICE STATS` aggregation (gauges like `ingest_queue_depth`
/// sum too: the total is "pending anywhere").
void AccumulateServiceStats(const ServiceStats& s, ServiceStats* total);

/// Appends the `SHOW SERVICE STATS` counter rows to a (counter, value)
/// table, each name prefixed with `prefix` ("" for the flat unsharded
/// listing, "shard0." etc. for per-shard breakdown rows).
void AppendServiceStatsRows(const ServiceStats& s, const std::string& prefix,
                            sql::Table* table);

/// \brief The multi-session service: a shared catalog of MODs, a
/// background ingest worker, and a factory for `ClientSession`s.
///
/// Ownership / threading (see docs/ARCHITECTURE.md "Service layer"):
///
///  - The server owns the env, the catalog, one `ExecContext`, the
///    `IngestQueue`, and the worker thread. It must outlive every
///    `ClientSession` it connects.
///  - Each MOD holds the writable store (touched only by the ingest
///    worker and DDL, under the MOD's writer lock), the shared ReTraTree
///    (readers take the lock shared for QUT; the worker takes it
///    exclusive to append), and an immutable *published snapshot* swapped
///    in after every drain. Query sessions read published snapshots only
///    and therefore never block on — or race with — ingest.
///  - `INSERT` statements from sessions enqueue; the worker drains them
///    through `ReTraTree::InsertBatch` on the server context, then
///    republishes. `FLUSH` blocks until every batch enqueued before it is
///    applied and visible.
class Server {
 public:
  /// Starts the service (spawns the ingest worker). `env` defaults to a
  /// private in-memory environment; pass a Posix env to persist
  /// partitions under `options.data_dir`.
  static StatusOr<std::unique_ptr<Server>> Start(ServerOptions options,
                                                 storage::Env* env = nullptr);

  ~Server();

  /// Closes the queue, drains what is pending, and joins the worker.
  /// Idempotent. Sessions stay usable for queries; later `INSERT`s fail
  /// with `Unavailable` ("ingest queue closed").
  void Shutdown();

  /// Opens an independent client session (its own settings + exec
  /// context + cursors). The server must outlive it.
  std::unique_ptr<ClientSession> Connect();

  // ---- Catalog DDL (serialized internally; sessions call these) ----
  Status CreateMod(const std::string& name);
  /// Removes the MOD from the catalog, then drains the queue: batches
  /// still queued for it count as ingest errors (a dropped table
  /// discards pending writes). Published snapshots already handed to
  /// readers stay valid (shared ownership).
  Status DropMod(const std::string& name);
  /// Appends a parsed LOAD file (`sql::ReadLoadFile`) to the MOD,
  /// creating it if absent; returns (trajectories, points) totals after
  /// the load.
  StatusOr<std::pair<size_t, size_t>> LoadMod(const std::string& name,
                                              traj::TrajectoryStore parsed);
  /// Registers a pre-built store, replacing any existing MOD of that
  /// name (mirroring `sql::Session::RegisterStore`; use `CreateMod` for
  /// the AlreadyExists-checked DDL path).
  Status RegisterStore(const std::string& name, traj::TrajectoryStore store);

  /// The MOD's current published snapshot: immutable, shared, keeps its
  /// arena epoch pinned while any caller (or cursor) holds it.
  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> SnapshotMod(
      const std::string& name) const;

  /// Queues trajectories for asynchronous ingest; returns the flush
  /// ticket. The data becomes query-visible when the worker republishes.
  /// Every trajectory must pass `sql::CheckIngestable` (checked here,
  /// before anything is queued).
  StatusOr<uint64_t> EnqueueInsert(const std::string& name,
                                   std::vector<traj::Trajectory> batch);

  /// Blocks until everything enqueued before the call is applied and
  /// republished.
  Status Flush();

  /// Persists the full catalog (every MOD's store) as a checkpoint,
  /// atomically publishes its manifest, rotates the WAL, and deletes the
  /// WAL prefix the checkpoint covers. Recovery then replays only the
  /// post-checkpoint tail. `NotSupported` on a non-WAL server; an IO
  /// failure leaves the previous manifest in force (recovery is from the
  /// old checkpoint + a longer tail — never from a half-written one).
  Status Checkpoint();

  /// QUT over the MOD's *shared* tree. The tree is refreshed (built, or
  /// caught up with trajectories ingested since — `core::QutTreeSlot`)
  /// under the MOD's exclusive lock when stale; fresh-tree queries run
  /// under a shared lock, so concurrent QUT readers proceed in parallel
  /// (the storage read path is internally locked). `tree_params` is
  /// (tau, delta, t, d, gamma).
  StatusOr<std::unique_ptr<sql::RowCursor>> QutQuery(
      const std::string& name, double wi, double we,
      const std::vector<double>& tree_params, exec::ExecStats* session_stats);

  /// Point-in-time service counters.
  ServiceStats Stats() const;

  const ServerOptions& options() const { return options_; }
  exec::ExecContext* exec() { return exec_.get(); }

 private:
  friend class ClientSession;

  struct SharedMod {
    SharedMod(storage::Env* env, std::string tree_prefix)
        : tree(env, std::move(tree_prefix)) {}

    /// Writer lock: ingest drains and DDL exclusive; QUT queries shared.
    /// Snapshot readers never take it.
    common::SharedMutex mu;
    traj::TrajectoryStore store GUARDED_BY(mu);
    /// The shared QUT tree: kept caught up by the ingest worker once a
    /// query built it, rebuilt by the query path on new parameters.
    core::QutTreeSlot tree GUARDED_BY(mu);

    /// One published snapshot: the store copy plus one pinned arena
    /// epoch, so `epochs_pinned` reflects it (and every cursor-held
    /// copy) until the last reader lets go.
    struct Published {
      traj::TrajectoryStore store;
      traj::SegmentArena arena;
    };
    /// Ordered strictly after `mu` (Republish swaps the snapshot while
    /// holding the writer lock); never held across a wait.
    mutable common::Mutex published_mu ACQUIRED_AFTER(mu);
    std::shared_ptr<const Published> published GUARDED_BY(published_mu);
  };

  Server(ServerOptions options, storage::Env* env);

  static std::string Canonical(const std::string& name);
  std::shared_ptr<SharedMod> FindMod(const std::string& canonical) const;
  /// A new MOD holding `store`, its snapshot already published. Every
  /// MOD instance gets its own tree directory prefix, so a dropped MOD's
  /// tree — retired when its last holder lets go — never shares files
  /// with a re-created one.
  std::shared_ptr<SharedMod> NewMod(const std::string& key,
                                    traj::TrajectoryStore store);
  /// Re-publishes the MOD's snapshot from its current store state.
  void Republish(SharedMod* mod) REQUIRES(mod->mu);
  void WorkerLoop();
  void OnSessionClosed();

  // ---- Durability (implemented in durability.cc) ----
  bool durable() const { return !options_.wal_dir.empty(); }
  /// Recovery at `Start` (before the worker spawns): load the manifest's
  /// checkpoint, replay the WAL tail in LSN order, open a fresh segment.
  Status RecoverOrInit();
  /// Appends one record; no-op OK on a non-WAL server. After any WAL
  /// failure the error is sticky (`wal_error_`) and re-returned.
  Status WalAppend(wal::RecordType type, const std::string& payload)
      REQUIRES(wal_mu_);
  /// Group-commit barrier: one fsync covering every append since the
  /// last. No-op OK on a non-WAL server.
  Status WalSync() REQUIRES(wal_mu_);
  /// Append + sync, for single-record DDL commits.
  Status WalLogAndSync(wal::RecordType type, const std::string& payload)
      REQUIRES(wal_mu_);
  /// Applies one replayed record to the catalog during recovery.
  Status ReplayRecord(const wal::Record& rec);

  ServerOptions options_;
  std::unique_ptr<storage::Env> owned_env_;
  storage::Env* env_;
  std::unique_ptr<exec::ExecContext> exec_;

  /// The durability lock. Held across each (WAL append…sync, apply)
  /// window — the worker holds it for a whole drain, DDL for its single
  /// commit — which makes WAL order identical to apply order: exactly
  /// what lets recovery rebuild a bit-identical catalog by replaying in
  /// LSN order. Taken on every mutation path even without a WAL (then
  /// uncontended and the log calls no-op), so the locking regime does
  /// not fork on configuration. Order: wal_mu_ → catalog_mu_ → mod->mu
  /// → mod->published_mu; never held across `Flush`.
  common::Mutex wal_mu_;
  std::unique_ptr<wal::Writer> wal_ GUARDED_BY(wal_mu_);
  /// Sticky first WAL failure: once an append or sync fails the durable
  /// prefix is frozen, so every later mutation is rejected with this.
  Status wal_error_ GUARDED_BY(wal_mu_);
  /// Lock-free mirror of `!wal_error_.ok()` for fast-fail checks.
  std::atomic<bool> wal_failed_{false};
  /// Recovery generation: the manifest's + 1 when `Start` recovers from
  /// one. Baked into shared tree directory names, next to the MOD
  /// instance number. Written only before the worker spawns.
  uint64_t gen_ = 0;
  std::atomic<uint64_t> mod_instances_{0};
  uint64_t checkpoint_id_ GUARDED_BY(wal_mu_) = 0;
  /// First WAL segment the current manifest covers (replay floor).
  uint64_t wal_start_segment_ GUARDED_BY(wal_mu_) = 0;

  mutable common::Mutex catalog_mu_ ACQUIRED_AFTER(wal_mu_);
  std::map<std::string, std::shared_ptr<SharedMod>> mods_
      GUARDED_BY(catalog_mu_);

  IngestQueue queue_;
  /// Spawned once in `Start` (before any concurrent access exists) and
  /// joined in `Shutdown` under `shutdown_mu_`.
  std::thread worker_;
  /// Serializes Shutdown against itself (dtor + explicit call).
  common::Mutex shutdown_mu_;

  common::Mutex flush_mu_;
  std::condition_variable flush_cv_;
  uint64_t applied_seq_ GUARDED_BY(flush_mu_) = 0;

  // Counters (relaxed: monotonic observability, no ordering contract).
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_active_{0};
  std::atomic<uint64_t> batches_enqueued_{0};
  std::atomic<uint64_t> batches_applied_{0};
  std::atomic<uint64_t> trajectories_ingested_{0};
  std::atomic<uint64_t> ingest_errors_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> snapshots_published_{0};
  std::atomic<uint64_t> tree_catchups_{0};
  std::atomic<uint64_t> wal_records_appended_{0};
  std::atomic<uint64_t> wal_bytes_appended_{0};
  std::atomic<uint64_t> wal_syncs_{0};
  std::atomic<uint64_t> wal_errors_{0};
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::atomic<uint64_t> wal_records_replayed_{0};
  std::atomic<uint64_t> wal_torn_bytes_dropped_{0};
};

}  // namespace hermes::service

#endif  // HERMES_SERVICE_SERVER_H_
