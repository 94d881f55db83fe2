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
  service::ServerOptions merge_options;
  merge_options.data_dir = coord->config_.data_dir + "/coord";
  merge_options.session_defaults = coord->config_.session_defaults;
  HERMES_ASSIGN_OR_RETURN(
      coord->merged_,
      service::Server::Start(std::move(merge_options), coord->env_));
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
  if (merged_ != nullptr) merged_->Shutdown();
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
  // The merged MOD is a cache of the shards, so retiring it is always
  // safe (NotFound: never merged); its last holder's release deletes its
  // tree's files.
  common::MutexLock lock(&merged_mu_);
  Status retired = merged_->DropMod(name);
  if (st.ok() && !retired.IsNotFound()) st = std::move(retired);
  sources_.erase(sql::CanonicalModName(name));
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

StatusOr<std::vector<traj::TrajectoryStore>> Coordinator::SplitStore(
    const traj::TrajectoryStore& store) const {
  std::vector<traj::TrajectoryStore> pieces(shards_.size());
  for (traj::TrajectoryId i = 0; i < store.NumTrajectories(); ++i) {
    const traj::Trajectory& t = store.Get(i);
    const size_t k = partitioner_->ShardOf(t.object_id(), shards_.size());
    HERMES_RETURN_NOT_OK(pieces[k].Add(t).status());
  }
  return pieces;
}

Status Coordinator::RegisterStore(const std::string& name,
                                  traj::TrajectoryStore store) {
  HERMES_ASSIGN_OR_RETURN(std::vector<traj::TrajectoryStore> pieces,
                          SplitStore(store));
  // Every shard gets the MOD — possibly empty — so DDL and scattered
  // queries never see a partial catalog.
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status st = shards_[k]->RegisterStore(name, std::move(pieces[k]));
    if (!st.ok()) return ShardError(k, st);
  }
  return Status::OK();
}

StatusOr<std::pair<size_t, size_t>> Coordinator::LoadMod(
    const std::string& name, traj::TrajectoryStore parsed) {
  HERMES_ASSIGN_OR_RETURN(std::vector<traj::TrajectoryStore> pieces,
                          SplitStore(parsed));
  // Every shard loads, empty pieces included, so each creates the MOD if
  // absent (with its rows, in one record) and the catalogs stay in
  // lockstep.
  std::pair<size_t, size_t> totals(0, 0);
  for (size_t k = 0; k < shards_.size(); ++k) {
    StatusOr<std::pair<size_t, size_t>> loaded =
        shards_[k]->LoadMod(name, std::move(pieces[k]));
    if (!loaded.ok()) return ShardError(k, loaded.status());
    totals.first += loaded->first;
    totals.second += loaded->second;
  }
  return totals;
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
  // Coordinator QUTs run on the merged trees, so their hot tier is the
  // one the total reports (coordinator statements build no shard tree).
  static_cast<core::HotTierStats&>(cs.total) += merged_->Stats();
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

Status Coordinator::Merge(const std::string& name) {
  const std::string canonical = sql::CanonicalModName(name);
  // The snapshots and the registration under one lock: a racing DropMod
  // either drops the shards first (the snapshot fails) or retires the
  // merged MOD after this registers it, so a dropped MOD never gets its
  // merge back.
  common::MutexLock lock(&merged_mu_);
  HERMES_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<const traj::TrajectoryStore>> snaps,
      ShardSnapshots(canonical));
  // Every shard still publishes the snapshot the merge was built from
  // (pointer identity; `sources_` holds them shared).
  auto it = sources_.find(canonical);
  if (it != sources_.end() && it->second == snaps) return Status::OK();
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
    HERMES_RETURN_NOT_OK(merged.Add(snaps[e.shard]->Get(e.idx)).status());
  }
  // A replaced MOD starts without a tree: a moved merge can interleave
  // *earlier* object ids, so it is not an append to what a tree consumed.
  HERMES_RETURN_NOT_OK(merged_->RegisterStore(canonical, std::move(merged)));
  sources_[canonical] = std::move(snaps);
  return Status::OK();
}

StatusOr<std::shared_ptr<const traj::TrajectoryStore>>
Coordinator::GatherSnapshot(const std::string& name) {
  HERMES_RETURN_NOT_OK(Merge(name));
  return merged_->SnapshotMod(name);
}

StatusOr<core::QuTResult> Coordinator::QutQuery(
    const std::string& name, double wi, double we,
    const std::vector<double>& tree_params) {
  HERMES_RETURN_NOT_OK(Merge(name));
  return merged_->QutQuery(
      name, wi, we, tree_params,
      static_cast<size_t>(config_.session_defaults.hot_index_budget),
      exec_.get(), nullptr);
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
