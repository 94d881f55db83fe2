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
#include "service/wal_payloads.h"
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
/// The inherited hot-tier counters (`core::HotTierStats`: QUT probes
/// served hot vs cold, promote/demote churn, resident bytes) are summed
/// over every shared tree.
struct ServiceStats : core::HotTierStats {
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

/// The `SHOW SERVICE STATS` (counter, value) table of `s`. With
/// `per_shard` (a coordinator's), a `(shards, N)` row comes first and
/// each shard's counters follow, prefixed `shard<k>.`.
sql::Table ServiceStatsTable(const ServiceStats& s,
                             const std::vector<ServiceStats>& per_shard = {});

/// Appends the eight tier counter rows of `s` to a (name, value)
/// table, each name prefixed by `prefix`: the rows `SHOW SERVICE STATS`
/// and the embedded session's `SHOW STATS` share.
void AppendHotTierRows(const core::HotTierStats& s, const std::string& prefix,
                       sql::Table* table);

/// \brief The multi-session service: a shared catalog of MODs, a
/// background ingest worker, and a factory for `ClientSession`s.
///
/// Ownership / threading (see docs/ARCHITECTURE.md "Service layer"):
///
///  - The server owns the env, the catalog, one `ExecContext`, the
///    `IngestQueue`, and the worker thread, which the first queued batch
///    starts. It must outlive every `ClientSession` it connects.
///  - Each MOD holds the writable store (appended to only by `Apply`,
///    under the MOD's writer lock), the shared ReTraTree
///    (locked by its slot; QUT reads it over the published snapshot, the
///    worker catches it up as it appends), and an immutable *published
///    snapshot* swapped in after every drain. Query sessions read
///    published snapshots only and therefore never race with ingest; the
///    only wait they share with it is a QUT on a tree being caught up.
///  - `INSERT` statements from sessions enqueue; the worker drains them
///    through `ReTraTree::InsertBatch` on the server context, then
///    republishes. `FLUSH` blocks until every batch enqueued before it is
///    applied and visible. (The embedded `sql::Session` commits its
///    INSERTs synchronously through `Insert` instead, and the shard
///    coordinator's merge server only registers stores, so neither ever
///    starts the worker.)
class Server {
 public:
  /// Starts the service (recovering it first when durable); the ingest
  /// worker spawns with the first `EnqueueInsert`. `env` defaults to a
  /// private in-memory environment; pass a Posix env to persist
  /// partitions under `options.data_dir`.
  static StatusOr<std::unique_ptr<Server>> Start(ServerOptions options,
                                                 storage::Env* env = nullptr);

  ~Server();

  /// Closes the queue, drains what is pending, and joins the worker (if
  /// one started). Idempotent. Sessions stay usable for queries; later
  /// `INSERT`s fail with `Unavailable` ("ingest queue closed").
  void Shutdown();

  /// Opens an independent client session (its own settings + exec
  /// context + cursors), counted in `sessions_opened`/`sessions_active`
  /// like every `ClientSession`. The server must outlive it.
  std::unique_ptr<ClientSession> Connect();

  // ---- Catalog DDL (serialized internally; sessions call these) ----
  // Each commits one WAL record: validate, log and sync (when durable),
  // then `Apply`. A failed log or sync changes nothing in memory.
  Status CreateMod(const std::string& name);
  /// Removes the MOD from the catalog, then drains the queue: batches
  /// still queued for it count as ingest errors (a dropped table
  /// discards pending writes). Published snapshots already handed to
  /// readers stay valid (shared ownership).
  Status DropMod(const std::string& name);
  /// Appends a parsed LOAD file (`sql::ReadLoadFile`) to the MOD, or
  /// creates the MOD holding it (one `kSwapStore` record, so no crash
  /// leaves it created but empty); returns (trajectories, points)
  /// totals after the load.
  StatusOr<std::pair<size_t, size_t>> LoadMod(const std::string& name,
                                              traj::TrajectoryStore parsed);
  /// Registers a pre-built store, replacing any existing MOD of that
  /// name (use `CreateMod` for the AlreadyExists-checked DDL path).
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

  /// Synchronous ingest: checks the batch as `EnqueueInsert` does, then
  /// commits it as one insert record and republishes before returning
  /// the number of trajectories appended (the embedded session's INSERT).
  StatusOr<size_t> Insert(const std::string& name,
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

  /// QUT over the MOD's *shared* tree, through `core::QutTreeSlot::Query`
  /// over the published snapshot, holding no MOD lock: a fresh tree
  /// answers concurrent readers in parallel (the storage read path is
  /// internally locked); a stale one is refreshed (built, or caught up
  /// with trajectories published since) under the slot's own exclusive
  /// lock. `tree_params` is (tau, delta, t, d, gamma). The caller names
  /// the tree's hot-tier budget, the context that runs a refresh, and
  /// the archive a sequential refresh records into (optional): a
  /// `ClientSession` passes the server's, the embedded session its own.
  StatusOr<core::QuTResult> QutQuery(const std::string& name, double wi,
                                     double we,
                                     const std::vector<double>& tree_params,
                                     size_t hot_budget, exec::ExecContext* exec,
                                     exec::ExecStats* archive);

  /// Point-in-time service counters.
  ServiceStats Stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  friend class ClientSession;

  struct SharedMod {
    SharedMod(storage::Env* env, std::string tree_prefix)
        : tree(env, std::move(tree_prefix)) {}

    /// Writer lock: `Apply`'s appends, the worker's tree catch-up and
    /// republication; `Checkpoint` shared. QUT and snapshot readers
    /// never take it.
    common::SharedMutex mu;
    traj::TrajectoryStore store GUARDED_BY(mu);
    /// The shared QUT tree: kept caught up by the ingest worker (under
    /// `mu`, with `store`) once a query built it, and built or caught up
    /// by the query path over the published snapshot — a prefix of
    /// `store`, so both feed it one append-only sequence. The slot locks
    /// itself.
    core::QutTreeSlot tree;

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
  /// The MOD's published store, aliasing (and so pinning) its snapshot.
  static StatusOr<std::shared_ptr<const traj::TrajectoryStore>>
  PublishedStore(SharedMod* mod, const std::string& key);
  /// Re-publishes the MOD's snapshot from its current store state.
  void Republish(SharedMod* mod) REQUIRES(mod->mu);

  /// What `Apply` did: the MOD the change landed on (null after a drop,
  /// and for an insert whose MOD is gone), the trajectories an insert
  /// appended, and the failure that ended it early or found no MOD.
  struct Applied {
    std::shared_ptr<SharedMod> mod;
    size_t added = 0;
    Status status;
  };
  /// The one writer of the catalog: the only code that inserts into or
  /// erases from `mods_` or appends to a MOD's store. It runs each
  /// change after it is durable (live), as recovery replays it, and for
  /// each checkpointed MOD. A created or swapped MOD is published before
  /// it enters the catalog; an insert is not, as its caller republishes
  /// once per MOD. It counts nothing.
  Applied Apply(CatalogRecord rec) REQUIRES(wal_mu_);
  /// Logs `rec` and syncs (no-ops without a WAL), then applies it: the
  /// commit of every mutation but the worker's, which logs a whole drain
  /// under one sync.
  StatusOr<Applied> Commit(CatalogRecord rec) REQUIRES(wal_mu_);
  /// The checks of every INSERT, queued or not: the MOD `key` exists and
  /// each trajectory passes `sql::CheckIngestable`.
  Status CheckInsert(const std::string& key,
                     const std::vector<traj::Trajectory>& batch) const;
  /// Commits one insert of `batch` into the existing MOD `key` and
  /// republishes it: the synchronous appends (`Insert`, `LoadMod`). The
  /// next QUT catches the shared tree up.
  StatusOr<Applied> CommitInsert(const std::string& key,
                                 std::vector<traj::Trajectory> batch)
      REQUIRES(wal_mu_);

  void WorkerLoop();

  // ---- Durability (implemented in durability.cc) ----
  bool durable() const { return !options_.wal_dir.empty(); }
  /// Recovery at `Start` (before the worker spawns): load the manifest's
  /// checkpoint, replay the WAL tail in LSN order, open a fresh segment.
  Status RecoverOrInit();
  /// Encodes and appends one record; no-op OK on a non-WAL server. After
  /// any WAL failure the error is sticky (`wal_error_`) and re-returned.
  Status WalAppend(const CatalogRecord& rec) REQUIRES(wal_mu_);
  /// Group-commit barrier: one fsync covering every append since the
  /// last. No-op OK on a non-WAL server.
  Status WalSync() REQUIRES(wal_mu_);
  /// Decodes one replayed record and applies it during recovery.
  Status ReplayRecord(const wal::Record& rec) REQUIRES(wal_mu_);

  ServerOptions options_;
  std::unique_ptr<storage::Env> owned_env_;
  storage::Env* env_;
  std::unique_ptr<exec::ExecContext> exec_;

  /// The durability lock. Held across each (validate, WAL append…sync,
  /// apply) window — the worker holds it for a whole drain, DDL for its
  /// single commit — which makes WAL order identical to apply order:
  /// exactly what lets recovery rebuild a bit-identical catalog by
  /// replaying in LSN order. Taken on every mutation path even without a
  /// WAL (then uncontended and the log calls no-op), so the locking
  /// regime does not fork on configuration. Order: wal_mu_ → catalog_mu_
  /// → mod->mu → mod->published_mu; never held across `Flush`.
  common::Mutex wal_mu_;
  std::unique_ptr<wal::Writer> wal_ GUARDED_BY(wal_mu_);
  /// Sticky first WAL failure: once an append or sync fails the durable
  /// prefix is frozen, so every later mutation is rejected with this.
  Status wal_error_ GUARDED_BY(wal_mu_);
  /// Lock-free mirror of `!wal_error_.ok()` for fast-fail checks.
  std::atomic<bool> wal_failed_{false};
  /// Recovery generation: the manifest's + 1 when `Start` recovers from
  /// one. Baked into shared tree directory names, next to the MOD
  /// instance number. Written only in `Start`, before any session exists.
  uint64_t gen_ = 0;
  std::atomic<uint64_t> mod_instances_{0};
  uint64_t checkpoint_id_ GUARDED_BY(wal_mu_) = 0;
  /// First WAL segment the current manifest covers (replay floor).
  uint64_t wal_start_segment_ GUARDED_BY(wal_mu_) = 0;

  mutable common::Mutex catalog_mu_ ACQUIRED_AFTER(wal_mu_);
  std::map<std::string, std::shared_ptr<SharedMod>> mods_
      GUARDED_BY(catalog_mu_);

  IngestQueue queue_;
  /// Serializes Shutdown against itself (dtor + explicit call) and
  /// against the worker's start.
  common::Mutex shutdown_mu_;
  bool shut_down_ GUARDED_BY(shutdown_mu_) = false;
  /// Spawned by the first `EnqueueInsert` (never after `Shutdown`) and
  /// joined in `Shutdown`.
  std::thread worker_ GUARDED_BY(shutdown_mu_);

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
