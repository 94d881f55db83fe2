#include "shard/coordinator.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "service/client_session.h"
#include "sql/front_end.h"
#include "sql/parser.h"
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

// ---------------------------------------------------------------------------
// Data plane: routing, flush, stats
// ---------------------------------------------------------------------------

Status Coordinator::RegisterStore(const std::string& name,
                                  traj::TrajectoryStore store) {
  const size_t n = shards_.size();
  std::vector<traj::TrajectoryStore> parts(n);
  for (traj::TrajectoryId i = 0; i < store.NumTrajectories(); ++i) {
    const traj::Trajectory& t = store.Get(i);
    const size_t k = partitioner_->ShardOf(t.object_id(), n);
    StatusOr<traj::TrajectoryId> added = parts[k].Add(t);
    if (!added.ok()) return added.status();
  }
  // Every shard gets the MOD — possibly empty — so broadcast DDL and
  // scattered queries never see a partial catalog.
  for (size_t k = 0; k < n; ++k) {
    Status st = shards_[k]->RegisterStore(name, std::move(parts[k]));
    if (!st.ok()) return ShardError(k, st);
  }
  return Status::OK();
}

StatusOr<std::pair<size_t, size_t>> Coordinator::LoadMod(
    const std::string& name, traj::TrajectoryStore loaded) {
  const std::string canonical = sql::CanonicalModName(name);
  // Create-if-absent, in lockstep: the MOD exists on all shards or none.
  if (!shards_[0]->SnapshotMod(canonical).ok()) {
    for (size_t k = 0; k < shards_.size(); ++k) {
      Status st = shards_[k]->CreateMod(canonical);
      if (!st.ok()) return ShardError(k, st);
    }
  }
  std::vector<std::vector<traj::Trajectory>> batches(shards_.size());
  for (traj::TrajectoryId i = 0; i < loaded.NumTrajectories(); ++i) {
    const traj::Trajectory& t = loaded.Get(i);
    batches[partitioner_->ShardOf(t.object_id(), shards_.size())].push_back(t);
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (batches[k].empty()) continue;
    StatusOr<uint64_t> ticket =
        shards_[k]->EnqueueInsert(canonical, std::move(batches[k]));
    if (!ticket.ok()) return ShardError(k, ticket.status());
  }
  // LOAD acks with post-load totals, so make the rows visible first.
  HERMES_RETURN_NOT_OK(Flush());
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<const traj::TrajectoryStore> snap,
                          GatherSnapshot(canonical));
  return std::make_pair(snap->NumTrajectories(), snap->NumPoints());
}

Status Coordinator::Flush() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status st = shards_[k]->Flush();
    if (!st.ok()) return ShardError(k, st);
  }
  return Status::OK();
}

CoordinatorStats Coordinator::Stats() const {
  CoordinatorStats cs;
  cs.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    cs.per_shard.push_back(shard->Stats());
    service::AccumulateServiceStats(cs.per_shard.back(), &cs.total);
  }
  return cs;
}

// ---------------------------------------------------------------------------
// Merged snapshots (the determinism keystone — see the class comment)
// ---------------------------------------------------------------------------

StatusOr<std::vector<std::shared_ptr<const traj::TrajectoryStore>>>
Coordinator::ShardSnapshots(const std::string& canonical) const {
  std::vector<std::shared_ptr<const traj::TrajectoryStore>> snaps;
  snaps.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // Errors pass through unprefixed: "no MOD named X" must read the
    // same sharded and unsharded (the catalogs move in lockstep, so a
    // miss is never specific to one shard).
    HERMES_ASSIGN_OR_RETURN(auto snap, shard->SnapshotMod(canonical));
    snaps.push_back(std::move(snap));
  }
  return snaps;
}

std::shared_ptr<Coordinator::MergedMod> Coordinator::FindOrCreateMerged(
    const std::string& canonical) {
  common::MutexLock lock(&merged_mu_);
  auto it = merged_.find(canonical);
  if (it == merged_.end()) {
    auto mm = std::make_shared<MergedMod>(
        env_, config_.data_dir + "/coord_" + canonical + "_tree_");
    it = merged_.emplace(canonical, std::move(mm)).first;
  }
  return it->second;
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

StatusOr<std::shared_ptr<const traj::TrajectoryStore>>
Coordinator::GatherSnapshot(const std::string& name) {
  const std::string canonical = sql::CanonicalModName(name);
  HERMES_ASSIGN_OR_RETURN(auto snaps, ShardSnapshots(canonical));
  std::shared_ptr<MergedMod> mm = FindOrCreateMerged(canonical);
  {
    // Fast path: every shard still publishes the snapshot the cache was
    // merged from (pointer identity; `sources` holds them shared, so a
    // pointer can never be recycled while we compare against it).
    common::ReaderMutexLock rlock(&mm->mu);
    if (mm->sources == snaps) return mm->merged;
  }
  common::WriterMutexLock wlock(&mm->mu);
  if (mm->sources != snaps) {
    HERMES_RETURN_NOT_OK(RebuildMerged(mm.get(), std::move(snaps)));
  }
  return mm->merged;
}

// ---------------------------------------------------------------------------
// QUT over the merged tree
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<sql::RowCursor>> Coordinator::QutQuery(
    const std::string& name, double wi, double we,
    const std::vector<double>& tree_params, exec::ExecStats* session_stats) {
  // Refreshes the merged cache as a side effect (dropping a stale tree),
  // so the freshness check below is against the *current* merge.
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<const traj::TrajectoryStore> snap,
                          GatherSnapshot(name));
  (void)snap;  // Pinned so the gathered merge outlives the checks below.
  std::shared_ptr<MergedMod> mm =
      FindOrCreateMerged(sql::CanonicalModName(name));
  {
    common::ReaderMutexLock rlock(&mm->mu);
    if (mm->tree.Fresh(tree_params, mm->merged->NumTrajectories())) {
      return sql::QutQuery(mm->tree.tree(), wi, we, session_stats);
    }
  }
  common::WriterMutexLock wlock(&mm->mu);
  HERMES_RETURN_NOT_OK(
      mm->tree
          .Refresh(tree_params, *mm->merged, exec_.get(),
                   static_cast<size_t>(
                       config_.session_defaults.hot_index_budget))
          .status());
  return sql::QutQuery(mm->tree.tree(), wi, we, session_stats);
}

// ---------------------------------------------------------------------------
// CoordinatorSession: the statement plane
// ---------------------------------------------------------------------------

namespace {

/// One client's statement session against the coordinator: the shared
/// `sql::FrontEnd` (its own settings / exec context / stats, like a
/// `service::ClientSession`) plus one `StatementExecutor` per shard — the
/// *only* channel the scatter, route, and broadcast paths use to reach a
/// shard, so swapping an in-process shard session for a remote
/// `net::Client` executor changes nothing above this line.
class CoordinatorSession final : public sql::FrontEnd {
 public:
  explicit CoordinatorSession(Coordinator* coord)
      : sql::FrontEnd(coord->config().session_defaults), coord_(coord) {
    for (size_t k = 0; k < coord_->num_shards(); ++k) {
      shards_.push_back(
          service::MakeStatementExecutor(coord_->shard(k)->Connect()));
    }
  }

 protected:
  // DDL and barriers broadcast: every shard's catalog moves in lockstep,
  // which is what lets every other path assume a MOD exists on all
  // shards or none.
  Status CreateMod(const sql::Statement& stmt) override {
    return Broadcast(stmt.text);
  }
  Status DropMod(const sql::Statement& stmt) override {
    return Broadcast(stmt.text);
  }
  Status Flush(const sql::Statement& stmt) override {
    return Broadcast(stmt.text);
  }
  Status Checkpoint(const sql::Statement& stmt) override {
    return Broadcast(stmt.text);
  }

  StatusOr<std::pair<size_t, size_t>> LoadMod(
      const std::string& mod, traj::TrajectoryStore parsed) override {
    return coord_->LoadMod(mod, std::move(parsed));
  }

  StatusOr<sql::Table> Insert(const sql::Statement& stmt,
                              std::vector<traj::Trajectory> batch) override {
    // Route each trajectory to the shard owning its object, then re-issue
    // one INSERT per involved shard through the statement plane: an
    // all-placeholder body bound to the evaluated values, so doubles
    // round-trip exactly. The batch is in ascending object order with
    // samples in row order, which is how each shard groups its rows
    // again, so the merge reproduces the unsharded statement's
    // trajectories bit-for-bit.
    // The shards' ingest precondition, checked for the whole statement
    // first: no shard may queue its part of a statement another rejects.
    for (const traj::Trajectory& t : batch) {
      HERMES_RETURN_NOT_OK(sql::CheckIngestable(t));
    }
    const size_t n = coord_->num_shards();
    std::vector<std::string> texts(n);
    std::vector<std::vector<sql::Value>> shard_binds(n);
    for (const traj::Trajectory& t : batch) {
      const size_t k = coord_->partitioner().ShardOf(t.object_id(), n);
      std::string& text = texts[k];
      std::vector<sql::Value>& vals = shard_binds[k];
      for (const auto& p : t.samples()) {
        text += text.empty() ? "INSERT INTO " + stmt.mod + " VALUES (" : ", (";
        for (double v : {static_cast<double>(t.object_id()), p.t, p.x, p.y}) {
          vals.push_back(sql::Value::Double(v));
          text += "$" + std::to_string(vals.size());
          text += vals.size() % 4 != 0 ? ", " : ")";
        }
      }
    }
    std::vector<size_t> ks;
    for (size_t k = 0; k < n; ++k) {
      if (!texts[k].empty()) ks.push_back(k);
    }
    std::vector<StatusOr<sql::Table>> results = FanOut(ks, [&](size_t k) {
      return ExecOnShard(k, texts[k] + ";", shard_binds[k]);
    });
    int64_t queued = 0;
    int64_t ticket = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) return ShardError(ks[i], results[i].status());
      // Per-shard ack: (status, trajectories_queued, ticket).
      queued += results[i]->rows[0][1].AsInt();
      ticket = std::max(ticket, results[i]->rows[0][2].AsInt());
    }
    sql::Table table;
    table.columns = {{"status", sql::ValueType::kString},
                     {"trajectories_queued", sql::ValueType::kInt},
                     {"ticket", sql::ValueType::kInt}};
    table.rows = {{sql::Value::Str("QUEUE INSERT " + stmt.mod),
                   sql::Value::Int(queued), sql::Value::Int(ticket)}};
    return table;
  }

  StatusOr<sql::Table> ServiceStats() override {
    const CoordinatorStats cs = coord_->Stats();
    sql::Table table;
    table.columns = {{"counter", sql::ValueType::kString},
                     {"value", sql::ValueType::kInt}};
    table.rows.push_back(
        {sql::Value::Str("shards"),
         sql::Value::Int(static_cast<int64_t>(coord_->num_shards()))});
    service::AppendServiceStatsRows(cs.total, "", &table);
    for (size_t k = 0; k < cs.per_shard.size(); ++k) {
      service::AppendServiceStatsRows(
          cs.per_shard[k], "shard" + std::to_string(k) + ".", &table);
    }
    return table;
  }

  StatusOr<std::unique_ptr<sql::RowCursor>> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params) override {
    return coord_->QutQuery(mod, wi, we, tree_params, mutable_stats());
  }

  /// Clustering analytics (S2T, S2T_MEMBERS, TRACLUS, TOPTICS, CONVOYS)
  /// are global — a cluster may span shards — so they evaluate on the
  /// merged snapshot, which is bit-identical for any shard count.
  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) override {
    return coord_->GatherSnapshot(mod);
  }

  /// RANGE and STATS decompose per shard: scatter–gather.
  StatusOr<std::unique_ptr<sql::RowCursor>> Select(
      const sql::Statement& stmt, const std::string& mod,
      const std::vector<double>& args,
      const std::vector<sql::Value>& binds) override {
    if (stmt.function == "RANGE") return ScatterRange(stmt.text, binds);
    if (stmt.function == "STATS") return ScatterStats(stmt.text, binds);
    return sql::FrontEnd::Select(stmt, mod, args, binds);
  }

 private:
  using ShardCall = std::function<StatusOr<sql::Table>(size_t)>;

  /// Runs `call(k)` for every listed shard concurrently (shard 0's slot
  /// inline, the rest on threads) and gathers results in *shard order* —
  /// arrival order never leaks into result assembly.
  std::vector<StatusOr<sql::Table>> FanOut(const std::vector<size_t>& ks,
                                           const ShardCall& call) {
    std::vector<StatusOr<sql::Table>> results(
        ks.size(), StatusOr<sql::Table>(Status::Internal("shard not run")));
    std::vector<std::thread> threads;
    threads.reserve(ks.size() > 0 ? ks.size() - 1 : 0);
    for (size_t i = 1; i < ks.size(); ++i) {
      threads.emplace_back(
          [&, i] { results[i] = call(ks[i]); });
    }
    if (!ks.empty()) results[0] = call(ks[0]);
    for (auto& t : threads) t.join();
    return results;
  }

  /// Executes `text` on shard `k` through its statement executor; with
  /// binds it takes the PREPARE / BIND+EXECUTE path (typed values on the
  /// wire, exact double round-trip).
  StatusOr<sql::Table> ExecOnShard(size_t k, const std::string& text,
                                   const std::vector<sql::Value>& binds) {
    sql::StatementExecutor* ex = shards_[k].get();
    if (binds.empty()) return ex->Execute(text);
    HERMES_ASSIGN_OR_RETURN(sql::PreparedHandle handle, ex->Prepare(text));
    StatusOr<sql::Table> result = ex->BindExecute(handle.id, binds);
    (void)ex->ClosePrepared(handle.id);
    return result;
  }

  /// Broadcasts one placeholder-free statement to every shard; the first
  /// (lowest-index) error wins.
  Status Broadcast(const std::string& text) {
    return Scatter(text, {}).status();
  }

  /// Scatters the statement to every shard and merges row-wise: shard
  /// tables concatenate in shard order, then a stable sort on the
  /// object-id key (column 0) restores the canonical order — the same
  /// order the merged snapshot would produce, never arrival order.
  StatusOr<std::unique_ptr<sql::RowCursor>> ScatterRange(
      const std::string& text, const std::vector<sql::Value>& binds) {
    HERMES_ASSIGN_OR_RETURN(std::vector<sql::Table> tables,
                            Scatter(text, binds));
    sql::Table merged = std::move(tables[0]);
    for (size_t k = 1; k < tables.size(); ++k) {
      for (auto& row : tables[k].rows) merged.rows.push_back(std::move(row));
    }
    std::stable_sort(merged.rows.begin(), merged.rows.end(),
                     [](const std::vector<sql::Value>& a,
                        const std::vector<sql::Value>& b) {
                       return a[0].AsInt() < b[0].AsInt();
                     });
    return sql::MakeTableCursor(std::move(merged));
  }

  /// Scatters STATS and folds the per-shard aggregates exactly: counts
  /// sum, domains min/max. Empty shards are skipped — their (0, 0)
  /// domain sentinels would otherwise poison the min/max.
  StatusOr<std::unique_ptr<sql::RowCursor>> ScatterStats(
      const std::string& text, const std::vector<sql::Value>& binds) {
    HERMES_ASSIGN_OR_RETURN(std::vector<sql::Table> tables,
                            Scatter(text, binds));
    // Columns: trajectories, points, segments, t_min, t_max, x_min,
    // x_max, y_min, y_max.
    sql::Table merged = tables[0];
    std::vector<sql::Value>& total = merged.rows[0];
    bool seeded = total[0].AsInt() > 0;
    for (size_t k = 1; k < tables.size(); ++k) {
      const std::vector<sql::Value>& row = tables[k].rows[0];
      if (row[0].AsInt() == 0) continue;
      if (!seeded) {
        total = row;
        seeded = true;
        continue;
      }
      for (int c = 0; c < 3; ++c) {
        total[c] = sql::Value::Int(total[c].AsInt() + row[c].AsInt());
      }
      for (int c : {3, 5, 7}) {  // t_min, x_min, y_min
        total[c] = sql::Value::Double(
            std::min(total[c].AsDouble(), row[c].AsDouble()));
      }
      for (int c : {4, 6, 8}) {  // t_max, x_max, y_max
        total[c] = sql::Value::Double(
            std::max(total[c].AsDouble(), row[c].AsDouble()));
      }
    }
    return sql::MakeTableCursor(std::move(merged));
  }

  /// Fans one statement out to every shard; fails on the first
  /// (lowest-index) shard error, unprefixed — scattered statements fail
  /// identically on every shard (lockstep catalogs, same validation).
  StatusOr<std::vector<sql::Table>> Scatter(
      const std::string& text, const std::vector<sql::Value>& binds) {
    std::vector<size_t> ks(coord_->num_shards());
    for (size_t k = 0; k < ks.size(); ++k) ks[k] = k;
    std::vector<StatusOr<sql::Table>> results = FanOut(
        ks, [&](size_t k) { return ExecOnShard(k, text, binds); });
    std::vector<sql::Table> tables;
    tables.reserve(results.size());
    for (auto& r : results) {
      if (!r.ok()) return r.status();
      tables.push_back(std::move(*r));
    }
    return tables;
  }

  Coordinator* coord_;
  std::vector<std::unique_ptr<sql::StatementExecutor>> shards_;
};

}  // namespace

std::unique_ptr<sql::StatementExecutor> Coordinator::Connect() {
  return sql::MakeStatementExecutor(std::make_unique<CoordinatorSession>(this));
}

}  // namespace hermes::shard
