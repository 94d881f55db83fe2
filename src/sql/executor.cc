#include "sql/executor.h"

#include <utility>

namespace hermes::sql {

Session::Session(storage::Env* env, std::string data_dir)
    : FrontEnd(HermesSettingDefaults{}), data_dir_(std::move(data_dir)) {
  if (env == nullptr) {
    owned_env_ = storage::Env::NewMemEnv();
    env_ = owned_env_.get();
  } else {
    env_ = env;
  }
}

Session::ModEntry* Session::AddMod(const std::string& key) {
  return &mods_.try_emplace(key, env_, data_dir_ + "/" + key + "_tree_")
              .first->second;
}

StatusOr<Session::ModEntry*> Session::FindMod(const std::string& name) {
  auto it = mods_.find(name);
  if (it == mods_.end()) return Status::NotFound("no MOD named " + name);
  return &it->second;
}

Status Session::RegisterStore(const std::string& name,
                              traj::TrajectoryStore store) {
  const std::string key = CanonicalModName(name);
  // Replacing a MOD retires its tree (and the tree's files) first.
  mods_.erase(key);
  AddMod(key)->store = std::move(store);
  return Status::OK();
}

const traj::TrajectoryStore* Session::FindStore(
    const std::string& name) const {
  auto it = mods_.find(CanonicalModName(name));
  return it == mods_.end() ? nullptr : &it->second.store;
}

// ---------------------------------------------------------------------------
// Backend hooks: the synchronous in-process catalog
// ---------------------------------------------------------------------------

Status Session::CreateMod(const Statement& stmt) {
  if (mods_.count(stmt.mod) > 0) {
    return Status::AlreadyExists("MOD " + stmt.mod + " exists");
  }
  AddMod(stmt.mod);
  return Status::OK();
}

Status Session::DropMod(const Statement& stmt) {
  if (mods_.erase(stmt.mod) == 0) {
    return Status::NotFound("no MOD named " + stmt.mod);
  }
  return Status::OK();
}

StatusOr<std::pair<size_t, size_t>> Session::LoadMod(
    const std::string& mod, traj::TrajectoryStore parsed) {
  auto it = mods_.find(mod);
  ModEntry* entry = it == mods_.end() ? AddMod(mod) : &it->second;
  for (traj::TrajectoryId id = 0; id < parsed.NumTrajectories(); ++id) {
    HERMES_RETURN_NOT_OK(entry->store.Add(parsed.Get(id)).status());
  }
  return std::make_pair(entry->store.NumTrajectories(),
                        entry->store.NumPoints());
}

StatusOr<Table> Session::Insert(const Statement& stmt,
                                std::vector<traj::Trajectory> batch) {
  HERMES_ASSIGN_OR_RETURN(ModEntry * entry, FindMod(stmt.mod));
  size_t added = 0;
  for (traj::Trajectory& t : batch) {
    HERMES_RETURN_NOT_OK(entry->store.Add(std::move(t)).status());
    ++added;
  }
  Table table;
  table.columns = {{"status", ValueType::kString},
                   {"trajectories_added", ValueType::kInt}};
  table.rows = {{Value::Str("INSERT " + stmt.mod),
                 Value::Int(static_cast<int64_t>(added))}};
  return table;
}

Status Session::Flush(const Statement& /*stmt*/) {
  // Every INSERT already applied before its ack.
  return Status::OK();
}

Status Session::Checkpoint(const Statement& /*stmt*/) {
  // Durability is a service-layer concern: no WAL to checkpoint here.
  return Status::NotSupported(
      "CHECKPOINT is only available through a service session");
}

StatusOr<Table> Session::ServiceStats() {
  return Status::NotSupported(
      "SHOW SERVICE STATS needs a service session "
      "(service::Server::Connect); this is an embedded sql::Session");
}

void Session::AppendStats(Table* table) {
  // Hot/cold tier counters, summed over every built tree (counter value
  // in the total_us column).
  core::HotTierStats tier;
  for (const auto& [name, entry] : mods_) tier += entry.tree.hot_stats();
  auto row = [table](const char* name, uint64_t v) {
    table->rows.push_back(
        {Value::Str(name), Value::Int(static_cast<int64_t>(v))});
  };
  row("qut_hot_probes", tier.qut_hot_probes);
  row("qut_cold_probes", tier.qut_cold_probes);
  row("hot_promotions", tier.hot_promotions);
  row("hot_demotions", tier.hot_demotions);
  row("hot_index_bytes", tier.hot_index_bytes);
  row("hot_partitions", tier.hot_partitions);
  row("hot_pins_total", tier.hot_pins_total);
}

StatusOr<core::QuTResult> Session::Qut(const std::string& mod, double wi,
                                       double we,
                                       const std::vector<double>& tree_params) {
  HERMES_ASSIGN_OR_RETURN(ModEntry * entry, FindMod(mod));
  // Catches the tree up with rows inserted since the last QUT; the
  // session's own budget applies on every query.
  const auto budget = static_cast<size_t>(
      settings().Get("hermes.hot_index_budget")->AsInt());
  return entry->tree.Query(tree_params, entry->store, exec_context(), budget,
                           wi, we, mutable_stats());
}

StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Session::Snapshot(
    const std::string& mod) {
  HERMES_ASSIGN_OR_RETURN(ModEntry * entry, FindMod(mod));
  // The store outlives the session's cursors by contract.
  return BorrowStore(&entry->store);
}

}  // namespace hermes::sql
