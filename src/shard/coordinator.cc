#include "shard/coordinator.h"

#include <algorithm>
#include <utility>

#include "service/client_session.h"
#include "sql/front_end.h"
#include "sql/query_functions.h"

namespace hermes::shard {

namespace {

Status ShardError(size_t k, const Status& st) {
  return Status(st.code(),
                "shard " + std::to_string(k) + ": " + st.message());
}

std::vector<traj::Trajectory> Trajectories(const traj::TrajectoryStore& s) {
  std::vector<traj::Trajectory> out;
  out.reserve(s.NumTrajectories());
  for (traj::TrajectoryId i = 0; i < s.NumTrajectories(); ++i) {
    out.push_back(s.Get(i));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Coordinator::Coordinator(service::ServiceConfig config, storage::Env* env,
                         std::unique_ptr<Partitioner> partitioner)
    : config_(std::move(config)), partitioner_(std::move(partitioner)) {
  if (env == nullptr) {
    owned_env_ = storage::Env::NewMemEnv();
    env = owned_env_.get();
  }
  env_ = env;
  if (config_.threads > 1) {
    exec_ = std::make_unique<exec::ExecContext>(config_.threads);
  }
}

StatusOr<std::unique_ptr<Coordinator>> Coordinator::Start(
    service::ServiceConfig config, storage::Env* env,
    std::unique_ptr<Partitioner> partitioner) {
  HERMES_RETURN_NOT_OK(config.Validate());
  if (partitioner == nullptr) partitioner = MakeHashPartitioner();
  std::unique_ptr<Coordinator> coord(
      new Coordinator(std::move(config), env, std::move(partitioner)));
  for (size_t k = 0; k < coord->config_.shards; ++k) {
    StatusOr<std::unique_ptr<service::Server>> shard =
        service::Server::Start(coord->config_.ShardServerOptions(k),
                               coord->env_);
    if (!shard.ok()) {
      // Atomic startup: naming the failing shard, and unwinding the
      // already-started ones (the coordinator destructor shuts them
      // down), so a half-started topology never escapes.
      return ShardError(k, shard.status());
    }
    coord->shards_.push_back(std::move(*shard));
  }
  return coord;
}

Coordinator::~Coordinator() { Shutdown(); }

void Coordinator::Shutdown() {
  {
    common::MutexLock lock(&shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (auto& shard : shards_) shard->Shutdown();
}

void Coordinator::OnSessionClosed() {
  sessions_active_.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// DDL, routing, barriers, stats
// ---------------------------------------------------------------------------

Status Coordinator::OnEveryShard(
    const std::function<Status(service::Server*)>& call) {
  // Every shard runs even after an error: wherever the shards agree,
  // their catalogs stay in lockstep.
  Status first;
  for (auto& shard : shards_) {
    Status st = call(shard.get());
    if (first.ok()) first = std::move(st);
  }
  return first;
}

Status Coordinator::CreateMod(const std::string& name) {
  return OnEveryShard([&](service::Server* s) { return s->CreateMod(name); });
}

Status Coordinator::DropMod(const std::string& name) {
  Status st =
      OnEveryShard([&](service::Server* s) { return s->DropMod(name); });
  // The merged view is a cache of the shards, so retiring it is always
  // safe; its last holder's release deletes the merged tree's files.
  common::MutexLock lock(&merged_mu_);
  merged_.erase(sql::CanonicalModName(name));
  return st;
}

Status Coordinator::Checkpoint() {
  return OnEveryShard([](service::Server* s) { return s->Checkpoint(); });
}

std::vector<std::vector<traj::Trajectory>> Coordinator::SplitByShard(
    std::vector<traj::Trajectory> batch) const {
  std::vector<std::vector<traj::Trajectory>> parts(shards_.size());
  for (traj::Trajectory& t : batch) {
    const size_t k = partitioner_->ShardOf(t.object_id(), shards_.size());
    parts[k].push_back(std::move(t));
  }
  return parts;
}

Status Coordinator::RegisterStore(const std::string& name,
                                  traj::TrajectoryStore store) {
  std::vector<std::vector<traj::Trajectory>> parts =
      SplitByShard(Trajectories(store));
  // Every shard gets the MOD — possibly empty — so DDL and scattered
  // queries never see a partial catalog.
  for (size_t k = 0; k < shards_.size(); ++k) {
    traj::TrajectoryStore piece;
    for (traj::Trajectory& t : parts[k]) {
      HERMES_RETURN_NOT_OK(piece.Add(std::move(t)).status());
    }
    Status st = shards_[k]->RegisterStore(name, std::move(piece));
    if (!st.ok()) return ShardError(k, st);
  }
  return Status::OK();
}

StatusOr<std::pair<size_t, size_t>> Coordinator::LoadMod(
    const std::string& name, traj::TrajectoryStore loaded) {
  // Create-if-absent, in lockstep: the MOD exists on all shards or none.
  if (!shards_[0]->SnapshotMod(name).ok()) {
    HERMES_RETURN_NOT_OK(CreateMod(name));
  }
  HERMES_RETURN_NOT_OK(EnqueueInsert(name, Trajectories(loaded)).status());
  // LOAD acks with post-load totals, so make the rows visible first.
  HERMES_RETURN_NOT_OK(Flush());
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<const traj::TrajectoryStore> snap,
                          GatherSnapshot(name));
  return std::make_pair(snap->NumTrajectories(), snap->NumPoints());
}

StatusOr<uint64_t> Coordinator::EnqueueInsert(
    const std::string& name, std::vector<traj::Trajectory> batch) {
  for (const traj::Trajectory& t : batch) {
    HERMES_RETURN_NOT_OK(sql::CheckIngestable(t));
  }
  // The batch is in ascending object order with samples in row order;
  // each shard keeps its objects in that order, so the merge reproduces
  // the unsharded batch's trajectories bit-for-bit.
  std::vector<std::vector<traj::Trajectory>> parts =
      SplitByShard(std::move(batch));
  uint64_t ticket = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (parts[k].empty()) continue;
    StatusOr<uint64_t> t = shards_[k]->EnqueueInsert(name, std::move(parts[k]));
    if (!t.ok()) return ShardError(k, t.status());
    ticket = std::max(ticket, *t);
  }
  return ticket;
}

Status Coordinator::Flush() {
  return OnEveryShard([](service::Server* s) { return s->Flush(); });
}

CoordinatorStats Coordinator::Stats() const {
  CoordinatorStats cs;
  cs.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    cs.per_shard.push_back(shard->Stats());
    service::AccumulateServiceStats(cs.per_shard.back(), &cs.total);
  }
  cs.total.sessions_opened += sessions_opened_.load(std::memory_order_relaxed);
  cs.total.sessions_active += sessions_active_.load(std::memory_order_relaxed);
  return cs;
}

// ---------------------------------------------------------------------------
// Merged snapshots (the determinism keystone — see the class comment)
// ---------------------------------------------------------------------------

StatusOr<std::vector<std::shared_ptr<const traj::TrajectoryStore>>>
Coordinator::ShardSnapshots(const std::string& name) const {
  std::vector<std::shared_ptr<const traj::TrajectoryStore>> snaps;
  snaps.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // Errors pass through unprefixed: "no MOD named X" must read the
    // same sharded and unsharded (the catalogs move in lockstep, so a
    // miss is never specific to one shard).
    HERMES_ASSIGN_OR_RETURN(auto snap, shard->SnapshotMod(name));
    snaps.push_back(std::move(snap));
  }
  return snaps;
}

Status Coordinator::RebuildMerged(
    MergedMod* mm,
    std::vector<std::shared_ptr<const traj::TrajectoryStore>> snaps) {
  // Canonical order: ascending object id, stable within an object. An
  // object lives entirely on one shard (the partitioner is a pure
  // function of its id), so the stable sort preserves each object's
  // shard-local — i.e. ingest — order, and the merge is a pure function
  // of the data, not of the shard count.
  struct Entry {
    traj::ObjectId object;
    size_t shard;
    traj::TrajectoryId idx;
  };
  std::vector<Entry> entries;
  for (size_t k = 0; k < snaps.size(); ++k) {
    for (traj::TrajectoryId i = 0; i < snaps[k]->NumTrajectories(); ++i) {
      entries.push_back({snaps[k]->Get(i).object_id(), k, i});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.object < b.object;
                   });
  traj::TrajectoryStore merged;
  for (const Entry& e : entries) {
    StatusOr<traj::TrajectoryId> added =
        merged.Add(snaps[e.shard]->Get(e.idx));
    if (!added.ok()) return added.status();
  }
  mm->merged =
      std::make_shared<const traj::TrajectoryStore>(std::move(merged));
  mm->sources = std::move(snaps);
  // The old tree indexed the old merge; drop it so QUT rebuilds. There
  // is no catch-up here: a moved merge can interleave *earlier* object
  // ids, so it is not an append to what the tree consumed.
  mm->tree.Drop();
  return Status::OK();
}

StatusOr<std::shared_ptr<Coordinator::MergedMod>> Coordinator::CurrentMerged(
    const std::string& name) {
  const std::string canonical = sql::CanonicalModName(name);
  HERMES_ASSIGN_OR_RETURN(auto snaps, ShardSnapshots(canonical));
  std::shared_ptr<MergedMod> mm;
  {
    common::MutexLock lock(&merged_mu_);
    std::shared_ptr<MergedMod>& slot = merged_[canonical];
    if (slot == nullptr) {
      slot = std::make_shared<MergedMod>(
          env_, config_.data_dir + "/coord_" + canonical + "_tree_");
    }
    mm = slot;
  }
  {
    // Fast path: every shard still publishes the snapshot the cache was
    // merged from (pointer identity; `sources` holds them shared, so a
    // pointer can never be recycled while we compare against it).
    common::ReaderMutexLock rlock(&mm->mu);
    if (mm->sources == snaps) return mm;
  }
  common::WriterMutexLock wlock(&mm->mu);
  if (mm->sources != snaps) {
    HERMES_RETURN_NOT_OK(RebuildMerged(mm.get(), std::move(snaps)));
  }
  return mm;
}

StatusOr<std::shared_ptr<const traj::TrajectoryStore>>
Coordinator::GatherSnapshot(const std::string& name) {
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<MergedMod> mm, CurrentMerged(name));
  common::ReaderMutexLock rlock(&mm->mu);
  return mm->merged;
}

// ---------------------------------------------------------------------------
// QUT over the merged tree
// ---------------------------------------------------------------------------

StatusOr<core::QuTResult> Coordinator::QutQuery(
    const std::string& name, double wi, double we,
    const std::vector<double>& tree_params) {
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<MergedMod> mm, CurrentMerged(name));
  // Shared: the merge stays put while concurrent QUT readers proceed in
  // parallel; the slot takes its own lock exclusive to rebuild.
  common::ReaderMutexLock rlock(&mm->mu);
  return mm->tree.Query(
      tree_params, *mm->merged, exec_.get(),
      static_cast<size_t>(config_.session_defaults.hot_index_budget), wi, we);
}

// ---------------------------------------------------------------------------
// CoordinatorSession: the statement plane
// ---------------------------------------------------------------------------

namespace {

/// RANGE gather: shard tables concatenate in shard order, then a stable
/// sort on the object-id key (column 0) restores the canonical order —
/// the same order the merged snapshot would produce.
sql::Table MergeRange(std::vector<sql::Table> tables) {
  sql::Table merged = std::move(tables[0]);
  for (size_t k = 1; k < tables.size(); ++k) {
    for (auto& row : tables[k].rows) merged.rows.push_back(std::move(row));
  }
  std::stable_sort(merged.rows.begin(), merged.rows.end(),
                   [](const std::vector<sql::Value>& a,
                      const std::vector<sql::Value>& b) {
                     return a[0].AsInt() < b[0].AsInt();
                   });
  return merged;
}

/// STATS gather: the per-shard aggregates fold exactly — counts sum,
/// domains min/max. Empty shards are skipped; their (0, 0) domain
/// sentinels would otherwise poison the min/max.
sql::Table MergeStats(std::vector<sql::Table> tables) {
  // Columns: trajectories, points, segments, t_min, t_max, x_min,
  // x_max, y_min, y_max.
  sql::Table merged = std::move(tables[0]);
  std::vector<sql::Value>& total = merged.rows[0];
  for (size_t k = 1; k < tables.size(); ++k) {
    const std::vector<sql::Value>& row = tables[k].rows[0];
    if (row[0].AsInt() == 0) continue;
    if (total[0].AsInt() == 0) {
      total = row;
      continue;
    }
    for (int c = 0; c < 3; ++c) {
      total[c] = sql::Value::Int(total[c].AsInt() + row[c].AsInt());
    }
    for (int c = 3; c < 9; ++c) {  // Odd: *_min; even: *_max.
      const double a = total[c].AsDouble(), b = row[c].AsDouble();
      total[c] = sql::Value::Double(c % 2 ? std::min(a, b) : std::max(a, b));
    }
  }
  return merged;
}

}  // namespace

/// One client's statement session against the coordinator: the shared
/// `sql::FrontEnd` (its own settings / exec context / stats, like a
/// `service::ClientSession`) whose hooks call the coordinator.
class CoordinatorSession final : public sql::FrontEnd {
 public:
  explicit CoordinatorSession(Coordinator* coord)
      : sql::FrontEnd(coord->config().session_defaults), coord_(coord) {}
  ~CoordinatorSession() override { coord_->OnSessionClosed(); }

 protected:
  Status CreateMod(const sql::Statement& stmt) override {
    return coord_->CreateMod(stmt.mod);
  }
  Status DropMod(const sql::Statement& stmt) override {
    return coord_->DropMod(stmt.mod);
  }
  Status Flush(const sql::Statement& /*stmt*/) override {
    return coord_->Flush();
  }
  Status Checkpoint(const sql::Statement& /*stmt*/) override {
    return coord_->Checkpoint();
  }

  StatusOr<std::pair<size_t, size_t>> LoadMod(
      const std::string& mod, traj::TrajectoryStore parsed) override {
    return coord_->LoadMod(mod, std::move(parsed));
  }

  StatusOr<sql::Table> Insert(const sql::Statement& stmt,
                              std::vector<traj::Trajectory> batch) override {
    const size_t queued = batch.size();
    HERMES_ASSIGN_OR_RETURN(uint64_t ticket,
                            coord_->EnqueueInsert(stmt.mod, std::move(batch)));
    return service::QueuedInsertAck(stmt.mod, queued, ticket);
  }

  StatusOr<sql::Table> ServiceStats() override {
    const CoordinatorStats cs = coord_->Stats();
    return service::ServiceStatsTable(cs.total, cs.per_shard);
  }

  StatusOr<core::QuTResult> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params) override {
    return coord_->QutQuery(mod, wi, we, tree_params);
  }

  /// Clustering analytics (S2T, S2T_MEMBERS, TRACLUS, TOPTICS, CONVOYS)
  /// are global — a cluster may span shards — so they evaluate on the
  /// merged snapshot, which is bit-identical for any shard count.
  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) override {
    return coord_->GatherSnapshot(mod);
  }

  /// RANGE and STATS decompose per shard: each evaluates on every
  /// shard's published snapshot in shard order, and the tables gather.
  /// The first shard error wins, unprefixed.
  StatusOr<std::unique_ptr<sql::RowCursor>> Select(
      const sql::Statement& stmt, const std::string& mod,
      const std::vector<double>& args) override {
    if (stmt.function != "RANGE" && stmt.function != "STATS") {
      return sql::FrontEnd::Select(stmt, mod, args);
    }
    HERMES_ASSIGN_OR_RETURN(auto snaps, coord_->ShardSnapshots(mod));
    std::vector<sql::Table> tables;
    tables.reserve(snaps.size());
    for (auto& snap : snaps) {
      HERMES_ASSIGN_OR_RETURN(std::unique_ptr<sql::RowCursor> cursor,
                              EvalOn(std::move(snap), stmt, args));
      HERMES_ASSIGN_OR_RETURN(sql::Table table, cursor->ToTable());
      tables.push_back(std::move(table));
    }
    return sql::MakeTableCursor(stmt.function == "RANGE"
                                    ? MergeRange(std::move(tables))
                                    : MergeStats(std::move(tables)));
  }

 private:
  Coordinator* coord_;
};

std::unique_ptr<sql::StatementExecutor> Coordinator::Connect() {
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  sessions_active_.fetch_add(1, std::memory_order_relaxed);
  return sql::MakeStatementExecutor(std::make_unique<CoordinatorSession>(this));
}

}  // namespace hermes::shard
