#include "service/server.h"

#include <algorithm>
#include <utility>

#include "service/client_session.h"
#include "service/wal_payloads.h"
#include "sql/query_functions.h"

namespace hermes::service {

// ---------------------------------------------------------------------------
// Construction / shutdown
// ---------------------------------------------------------------------------

Server::Server(ServerOptions options, storage::Env* env)
    : options_(std::move(options)),
      queue_(options_.ingest_queue_capacity) {
  if (env == nullptr) {
    owned_env_ = storage::Env::NewMemEnv();
    env_ = owned_env_.get();
  } else {
    env_ = env;
  }
  exec_ = std::make_unique<exec::ExecContext>(
      std::max<size_t>(options_.threads, 1));
}

Status ValidateServerOptions(const ServerOptions& options) {
  if (options.threads > 1024) {
    return Status::InvalidArgument("ServerOptions.threads out of range");
  }
  // Registering the session defaults runs the same validators every SET
  // does, so a session can never start with a value SET would reject.
  sql::Settings scratch;
  return sql::RegisterHermesSettings(&scratch, options.session_defaults,
                                     nullptr);
}

StatusOr<std::unique_ptr<Server>> Server::Start(ServerOptions options,
                                                storage::Env* env) {
  HERMES_RETURN_NOT_OK(ValidateServerOptions(options));
  auto server = std::unique_ptr<Server>(new Server(std::move(options), env));
  if (server->durable()) {
    // Recovery runs single-threaded, before the worker (or any session)
    // exists: checkpoint load + WAL tail replay, then a fresh segment.
    HERMES_RETURN_NOT_OK(server->RecoverOrInit());
  }
  return server;
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  common::MutexLock lock(&shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  queue_.Close();
  if (worker_.joinable()) worker_.join();
}

std::unique_ptr<ClientSession> Server::Connect() {
  return std::unique_ptr<ClientSession>(new ClientSession(this));
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

std::string Server::Canonical(const std::string& name) {
  return sql::CanonicalModName(name);
}

std::shared_ptr<Server::SharedMod> Server::FindMod(
    const std::string& canonical) const {
  common::MutexLock lock(&catalog_mu_);
  auto it = mods_.find(canonical);
  return it == mods_.end() ? nullptr : it->second;
}

void Server::Republish(SharedMod* mod) {
  auto pub = std::make_shared<SharedMod::Published>();
  pub->store = mod->store.Snapshot();
  // One pinned epoch per published snapshot: `epochs_pinned` counts it
  // (plus every reader-held snapshot) until the last holder lets go.
  pub->arena = pub->store.ArenaSnapshot();
  {
    common::MutexLock lock(&mod->published_mu);
    mod->published = std::move(pub);
  }
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
}

Server::Applied Server::Apply(CatalogRecord rec) {
  Applied applied;
  if (rec.type == wal::RecordType::kDropMod) {
    common::MutexLock lock(&catalog_mu_);
    mods_.erase(rec.mod);
    return applied;
  }
  applied.mod = FindMod(rec.mod);
  if (rec.type != wal::RecordType::kInsertBatch) {
    // Creating a MOD that exists changes nothing.
    if (rec.type == wal::RecordType::kCreateMod && applied.mod != nullptr) {
      return applied;
    }
    // Every MOD instance gets its own tree directory prefix, so a
    // dropped MOD's tree — retired when its last holder lets go — never
    // shares files with a re-created one.
    const uint64_t instance =
        mod_instances_.fetch_add(1, std::memory_order_relaxed);
    applied.mod = std::make_shared<SharedMod>(
        env_, options_.data_dir + "/" + rec.mod + "_g" +
                  std::to_string(gen_) + "_" + std::to_string(instance) +
                  "_tree_");
    {
      common::WriterMutexLock wlock(&applied.mod->mu);
      applied.mod->store = std::move(rec.store);
      // Published before it enters the catalog: a reader racing the
      // change finds the old MOD or a valid snapshot, never a null one.
      Republish(applied.mod.get());
    }
    common::MutexLock lock(&catalog_mu_);
    mods_[rec.mod] = applied.mod;
    return applied;
  }
  if (applied.mod == nullptr) {
    applied.status = Status::NotFound("no MOD named " + rec.mod);
    return applied;
  }
  common::WriterMutexLock wlock(&applied.mod->mu);
  for (traj::Trajectory& t : rec.trajectories) {
    // The first failure ends the batch; what it added stays.
    auto r = applied.mod->store.Add(std::move(t));
    if (!r.ok()) {
      applied.status = r.status();
      break;
    }
    ++applied.added;
  }
  return applied;
}

StatusOr<Server::Applied> Server::Commit(CatalogRecord rec) {
  HERMES_RETURN_NOT_OK(WalAppend(rec));
  HERMES_RETURN_NOT_OK(WalSync());
  return Apply(std::move(rec));
}

Status Server::CreateMod(const std::string& name) {
  const std::string key = Canonical(name);
  // wal_mu_ spans [check, log+sync, apply], and every catalog change
  // holds it, so the check still holds when the change applies.
  common::MutexLock wal_lock(&wal_mu_);
  if (FindMod(key) != nullptr) {
    return Status::AlreadyExists("MOD " + key + " exists");
  }
  return Commit(CatalogRecord(wal::RecordType::kCreateMod, key)).status();
}

Status Server::DropMod(const std::string& name) {
  const std::string key = Canonical(name);
  // Remove from the catalog first, then drain: any batch still queued
  // for the MOD — enqueued before or racing the drop — fails the
  // worker's catalog lookup and surfaces as an ingest error instead of
  // being applied to (and silently lost with) the orphaned store.
  {
    common::MutexLock wal_lock(&wal_mu_);
    if (FindMod(key) == nullptr) {
      return Status::NotFound("no MOD named " + key);
    }
    HERMES_RETURN_NOT_OK(
        Commit(CatalogRecord(wal::RecordType::kDropMod, key)).status());
  }
  // Outside wal_mu_: the worker needs it to drain the queue.
  return Flush();
}

Status Server::RegisterStore(const std::string& name,
                             traj::TrajectoryStore store) {
  common::MutexLock wal_lock(&wal_mu_);
  return Commit(CatalogRecord(wal::RecordType::kSwapStore, Canonical(name),
                              {}, std::move(store)))
      .status();
}

StatusOr<Server::Applied> Server::CommitInsert(
    const std::string& key, std::vector<traj::Trajectory> batch) {
  HERMES_ASSIGN_OR_RETURN(
      Applied applied,
      Commit(CatalogRecord(wal::RecordType::kInsertBatch, key,
                           std::move(batch))));
  if (applied.mod == nullptr) return applied.status;
  {
    common::WriterMutexLock wlock(&applied.mod->mu);
    Republish(applied.mod.get());
  }
  HERMES_RETURN_NOT_OK(applied.status);
  return applied;
}

Status Server::CheckInsert(const std::string& key,
                           const std::vector<traj::Trajectory>& batch) const {
  if (FindMod(key) == nullptr) {
    return Status::NotFound("no MOD named " + key);
  }
  for (const traj::Trajectory& t : batch) {
    HERMES_RETURN_NOT_OK(sql::CheckIngestable(t));
  }
  return Status::OK();
}

StatusOr<size_t> Server::Insert(const std::string& name,
                                std::vector<traj::Trajectory> batch) {
  const std::string key = Canonical(name);
  common::MutexLock wal_lock(&wal_mu_);
  HERMES_RETURN_NOT_OK(CheckInsert(key, batch));
  HERMES_ASSIGN_OR_RETURN(Applied applied,
                          CommitInsert(key, std::move(batch)));
  return applied.added;
}

StatusOr<std::pair<size_t, size_t>> Server::LoadMod(
    const std::string& name, traj::TrajectoryStore parsed) {
  const std::string key = Canonical(name);
  // The file arrives parsed: nothing is logged or visible unless all of
  // it parsed, so a bad row cannot leave a phantom (or half-loaded) MOD
  // behind — and the parsed batch is what the WAL records, making replay
  // independent of the CSV file still existing at its old path.
  common::MutexLock wal_lock(&wal_mu_);
  std::shared_ptr<SharedMod> mod;
  if (FindMod(key) == nullptr) {
    // One record creates and fills the MOD, so no crash can leave it
    // created but empty.
    HERMES_ASSIGN_OR_RETURN(
        Applied applied, Commit(CatalogRecord(wal::RecordType::kSwapStore,
                                              key, {}, std::move(parsed))));
    mod = std::move(applied.mod);
  } else {
    std::vector<traj::Trajectory> batch;
    batch.reserve(parsed.NumTrajectories());
    for (traj::TrajectoryId id = 0; id < parsed.NumTrajectories(); ++id) {
      batch.push_back(parsed.Get(id));
    }
    HERMES_ASSIGN_OR_RETURN(Applied applied,
                            CommitInsert(key, std::move(batch)));
    mod = std::move(applied.mod);
  }
  common::ReaderMutexLock rlock(&mod->mu);
  return std::make_pair(mod->store.NumTrajectories(), mod->store.NumPoints());
}

StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Server::SnapshotMod(
    const std::string& name) const {
  const std::string key = Canonical(name);
  auto mod = FindMod(key);
  if (mod == nullptr) return Status::NotFound("no MOD named " + key);
  return PublishedStore(mod.get(), key);
}

StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Server::PublishedStore(
    SharedMod* mod, const std::string& key) {
  common::MutexLock lock(&mod->published_mu);
  if (mod->published == nullptr) {
    // Every creation path republishes before catalog insertion; this
    // guards the invariant instead of dereferencing null.
    return Status::Internal("MOD " + key + " has no published snapshot");
  }
  // Aliased: the handle keeps the whole published snapshot — store plus
  // pinned arena epoch — alive for as long as any cursor holds it.
  return std::shared_ptr<const traj::TrajectoryStore>(mod->published,
                                                      &mod->published->store);
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

StatusOr<uint64_t> Server::EnqueueInsert(const std::string& name,
                                         std::vector<traj::Trajectory> batch) {
  const std::string key = Canonical(name);
  if (wal_failed_.load(std::memory_order_relaxed)) {
    return Status::IOError(
        "WAL write failed; server is read-only (restart to recover the "
        "durable prefix)");
  }
  // The ack means "queued for ingest", so preconditions the worker would
  // hit asynchronously must fail *here*: a poisoned queue entry would
  // only ever surface as a service-wide ingest_errors count.
  HERMES_RETURN_NOT_OK(CheckInsert(key, batch));
  {
    // The worker starts with the first queued batch, so a server nothing
    // is ever queued on (an embedded session's, the merge server) runs
    // no thread. After Shutdown the closed queue rejects the push.
    common::MutexLock lock(&shutdown_mu_);
    if (!shut_down_ && !worker_.joinable()) {
      worker_ = std::thread([this] { WorkerLoop(); });
    }
  }
  IngestBatch b;
  b.mod = key;
  b.trajectories = std::move(batch);
  HERMES_ASSIGN_OR_RETURN(uint64_t seq, queue_.Push(std::move(b)));
  batches_enqueued_.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

Status Server::Flush() {
  // Every ticket in `target` was a successful Push, and the worker
  // applies (or error-counts) all of them before exiting — even during
  // shutdown — so the wait always terminates.
  const uint64_t target = queue_.last_enqueued_seq();
  common::MutexLock lock(&flush_mu_);
  while (applied_seq_ < target) lock.Wait(flush_cv_);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Server::WorkerLoop() {
  std::vector<IngestBatch> batches;
  while (queue_.PopAll(&batches)) {
    uint64_t max_seq = 0;
    for (const IngestBatch& b : batches) max_seq = std::max(max_seq, b.seq);

    // Group commit: the whole drain is one durability unit — one WAL
    // record per batch, then a single fsync, all before anything is
    // applied. wal_mu_ stays held across the applies too, so a
    // concurrent DDL commit cannot interleave between our append and
    // our apply (WAL order == apply order). A FLUSH ticket therefore
    // completes only after its batch is on disk.
    common::MutexLock wal_lock(&wal_mu_);
    std::vector<CatalogRecord> records;
    records.reserve(batches.size());
    for (IngestBatch& b : batches) {
      records.emplace_back(wal::RecordType::kInsertBatch, std::move(b.mod),
                           std::move(b.trajectories));
    }
    Status group = Status::OK();
    for (const CatalogRecord& rec : records) {
      group = WalAppend(rec);
      if (!group.ok()) break;
    }
    if (group.ok()) group = WalSync();
    if (!group.ok()) {
      // Not durable ⇒ not applied: the live state keeps matching the
      // durable prefix, the batches surface as ingest errors, and the
      // flush ticket still resolves (Flush must not hang on an error).
      ingest_errors_.fetch_add(records.size(), std::memory_order_relaxed);
      records.clear();
    }

    // Dedup in arrival order so republication happens once per MOD per
    // drain, after all of its batches applied.
    std::vector<std::shared_ptr<SharedMod>> touched;
    for (CatalogRecord& rec : records) {
      Applied applied = Apply(std::move(rec));
      SharedMod* mod = applied.mod.get();
      if (mod == nullptr) {
        // Dropped (or never created) while queued.
        ingest_errors_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Status st = applied.status;
      if (st.ok() && applied.added > 0) {
        // Keep a live shared tree caught up so QUT sees queued inserts
        // right after a FLUSH without a rebuild (a failure drops it).
        common::WriterMutexLock wlock(&mod->mu);
        StatusOr<core::QutTreeWork> work =
            mod->tree.CatchUp(mod->store, exec_.get());
        if (!work.ok()) {
          st = work.status();
        } else if (*work == core::QutTreeWork::kCaughtUp) {
          tree_catchups_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!st.ok()) {
        ingest_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      trajectories_ingested_.fetch_add(applied.added,
                                       std::memory_order_relaxed);
      batches_applied_.fetch_add(1, std::memory_order_relaxed);
      bool seen = false;
      for (const auto& m : touched) seen = seen || m.get() == mod;
      if (!seen) touched.push_back(std::move(applied.mod));
    }
    for (const auto& mod : touched) {
      common::WriterMutexLock wlock(&mod->mu);
      Republish(mod.get());
    }
    {
      common::MutexLock lock(&flush_mu_);
      applied_seq_ = std::max(applied_seq_, max_seq);
    }
    flush_cv_.notify_all();
  }
  // Drained and closed: release any flusher that raced shutdown.
  {
    common::MutexLock lock(&flush_mu_);
    applied_seq_ = std::max(applied_seq_, queue_.last_enqueued_seq());
  }
  flush_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// QUT over the shared tree
// ---------------------------------------------------------------------------

StatusOr<core::QuTResult> Server::QutQuery(
    const std::string& name, double wi, double we,
    const std::vector<double>& tree_params, size_t hot_budget,
    exec::ExecContext* exec, exec::ExecStats* archive) {
  const std::string key = Canonical(name);
  auto mod = FindMod(key);
  if (mod == nullptr) return Status::NotFound("no MOD named " + key);
  // Over the published snapshot, a prefix of the live store, so QUT takes
  // no MOD lock: readers rebuilding the tree never keep the ingest worker
  // out. The worker catches the tree up as it appends, so the tree may
  // run ahead of the snapshot; it then answers as it stands.
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<const traj::TrajectoryStore> snap,
                          PublishedStore(mod.get(), key));
  core::QutTreeWork work = core::QutTreeWork::kNone;
  StatusOr<core::QuTResult> result = mod->tree.Query(
      tree_params, *snap, exec, hot_budget, wi, we, archive, &work);
  if (work == core::QutTreeWork::kCaughtUp) {
    tree_catchups_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

ServiceStats Server::Stats() const {
  ServiceStats s;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_active = sessions_active_.load(std::memory_order_relaxed);
  s.ingest_queue_depth = queue_.depth();
  s.batches_enqueued = batches_enqueued_.load(std::memory_order_relaxed);
  s.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  s.trajectories_ingested =
      trajectories_ingested_.load(std::memory_order_relaxed);
  s.ingest_errors = ingest_errors_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.snapshots_published = snapshots_published_.load(std::memory_order_relaxed);
  s.tree_catchups = tree_catchups_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<SharedMod>> mods;
  {
    common::MutexLock lock(&catalog_mu_);
    s.mods = mods_.size();
    for (const auto& [name, mod] : mods_) mods.push_back(mod);
  }
  for (const auto& mod : mods) {
    // The builder's counters are internally locked; safe against the
    // worker's concurrent appends.
    const traj::SegmentArenaCounters c = mod->store.arena_counters();
    s.epochs_pinned += c.epochs_pinned;
    s.epoch_pins += c.epoch_pins;
    s += mod->tree.hot_stats();
  }
  s.ingest_split_us = exec_->stats().PhaseUs("ingest_split");
  s.ingest_apply_us = exec_->stats().PhaseUs("ingest_apply");
  s.wal_records_appended =
      wal_records_appended_.load(std::memory_order_relaxed);
  s.wal_bytes_appended = wal_bytes_appended_.load(std::memory_order_relaxed);
  s.wal_syncs = wal_syncs_.load(std::memory_order_relaxed);
  s.wal_errors = wal_errors_.load(std::memory_order_relaxed);
  s.checkpoints_taken = checkpoints_taken_.load(std::memory_order_relaxed);
  s.wal_records_replayed =
      wal_records_replayed_.load(std::memory_order_relaxed);
  s.wal_torn_bytes_dropped =
      wal_torn_bytes_dropped_.load(std::memory_order_relaxed);
  return s;
}

void AccumulateServiceStats(const ServiceStats& s, ServiceStats* total) {
  total->sessions_opened += s.sessions_opened;
  total->sessions_active += s.sessions_active;
  // All shards broadcast DDL, so every shard reports the same catalog;
  // the aggregate keeps the max rather than multiplying MODs by shards.
  total->mods = std::max(total->mods, s.mods);
  total->ingest_queue_depth += s.ingest_queue_depth;
  total->batches_enqueued += s.batches_enqueued;
  total->batches_applied += s.batches_applied;
  total->trajectories_ingested += s.trajectories_ingested;
  total->ingest_errors += s.ingest_errors;
  total->flushes += s.flushes;
  total->snapshots_published += s.snapshots_published;
  total->tree_catchups += s.tree_catchups;
  total->epochs_pinned += s.epochs_pinned;
  total->epoch_pins += s.epoch_pins;
  total->ingest_split_us += s.ingest_split_us;
  total->ingest_apply_us += s.ingest_apply_us;
  static_cast<core::HotTierStats&>(*total) += s;
  total->wal_records_appended += s.wal_records_appended;
  total->wal_bytes_appended += s.wal_bytes_appended;
  total->wal_syncs += s.wal_syncs;
  total->wal_errors += s.wal_errors;
  total->checkpoints_taken += s.checkpoints_taken;
  total->wal_records_replayed += s.wal_records_replayed;
  total->wal_torn_bytes_dropped += s.wal_torn_bytes_dropped;
}

sql::Table ServiceStatsTable(const ServiceStats& total,
                             const std::vector<ServiceStats>& per_shard) {
  sql::Table table;
  table.columns = {{"counter", sql::ValueType::kString},
                   {"value", sql::ValueType::kInt}};
  if (!per_shard.empty()) {
    table.rows.push_back(
        {sql::Value::Str("shards"),
         sql::Value::Int(static_cast<int64_t>(per_shard.size()))});
  }
  // The total's rows, then each shard's under its `shard<k>.` prefix.
  for (size_t k = 0; k <= per_shard.size(); ++k) {
    const ServiceStats& s = k == 0 ? total : per_shard[k - 1];
    const std::string prefix =
        k == 0 ? "" : "shard" + std::to_string(k - 1) + ".";
    auto row = [&](const char* name, uint64_t v) {
      table.rows.push_back({sql::Value::Str(prefix + name),
                            sql::Value::Int(static_cast<int64_t>(v))});
    };
    row("sessions_opened", s.sessions_opened);
    row("sessions_active", s.sessions_active);
    row("mods", s.mods);
    row("ingest_queue_depth", s.ingest_queue_depth);
    row("batches_enqueued", s.batches_enqueued);
    row("batches_applied", s.batches_applied);
    row("trajectories_ingested", s.trajectories_ingested);
    row("ingest_errors", s.ingest_errors);
    row("flushes", s.flushes);
    row("snapshots_published", s.snapshots_published);
    row("tree_catchups", s.tree_catchups);
    row("arena_epochs_pinned", s.epochs_pinned);
    row("arena_epoch_pins", s.epoch_pins);
    row("ingest_split_us", static_cast<uint64_t>(s.ingest_split_us));
    row("ingest_apply_us", static_cast<uint64_t>(s.ingest_apply_us));
    AppendHotTierRows(s, prefix, &table);
    row("wal_records_appended", s.wal_records_appended);
    row("wal_bytes_appended", s.wal_bytes_appended);
    row("wal_syncs", s.wal_syncs);
    row("wal_errors", s.wal_errors);
    row("checkpoints_taken", s.checkpoints_taken);
    row("wal_records_replayed", s.wal_records_replayed);
    row("wal_torn_bytes_dropped", s.wal_torn_bytes_dropped);
  }
  return table;
}

void AppendHotTierRows(const core::HotTierStats& s, const std::string& prefix,
                       sql::Table* table) {
  auto row = [&](const char* name, uint64_t v) {
    table->rows.push_back({sql::Value::Str(prefix + name),
                           sql::Value::Int(static_cast<int64_t>(v))});
  };
  row("qut_hot_probes", s.qut_hot_probes);
  row("qut_cold_probes", s.qut_cold_probes);
  row("hot_promotions", s.hot_promotions);
  row("hot_demotions", s.hot_demotions);
  row("hot_index_bytes", s.hot_index_bytes);
  row("cold_resident_bytes", s.cold_resident_bytes);
  row("hot_partitions", s.hot_partitions);
  row("hot_pins_total", s.hot_pins_total);
}

}  // namespace hermes::service
