#include "sql/executor.h"

#include <utility>

namespace hermes::sql {

internal::PrivateServer::PrivateServer(storage::Env* env,
                                       std::string data_dir) {
  service::ServerOptions options;
  options.data_dir = std::move(data_dir);
  // The default options pass validation and there is no WAL to recover,
  // so this cannot fail.
  server = std::move(service::Server::Start(std::move(options), env)).value();
}

Session::Session(storage::Env* env, std::string data_dir)
    : internal::PrivateServer(env, std::move(data_dir)),
      service::ClientSession(server.get()) {}

Status Session::RegisterStore(const std::string& name,
                              traj::TrajectoryStore store) {
  return server->RegisterStore(name, std::move(store));
}

std::shared_ptr<const traj::TrajectoryStore> Session::FindStore(
    const std::string& name) const {
  return server->SnapshotMod(name).ValueOr(nullptr);
}

StatusOr<Table> Session::Insert(const Statement& stmt,
                                std::vector<traj::Trajectory> batch) {
  HERMES_ASSIGN_OR_RETURN(size_t added,
                          server->Insert(stmt.mod, std::move(batch)));
  Table table;
  table.columns = {{"status", ValueType::kString},
                   {"trajectories_added", ValueType::kInt}};
  table.rows = {{Value::Str("INSERT " + stmt.mod),
                 Value::Int(static_cast<int64_t>(added))}};
  return table;
}

void Session::AppendStats(Table* table) {
  // Summed over every built tree (counter value in the total_us column).
  service::AppendHotTierRows(server->Stats(), "", table);
}

StatusOr<core::QuTResult> Session::Qut(const std::string& mod, double wi,
                                       double we,
                                       const std::vector<double>& tree_params) {
  // The tree is this session's alone, so it runs like the session's
  // other analytic statements: its budget, context and archive.
  const auto budget = static_cast<size_t>(
      settings().Get("hermes.hot_index_budget")->AsInt());
  return server->QutQuery(mod, wi, we, tree_params, budget, exec_context(),
                          mutable_stats());
}

}  // namespace hermes::sql
