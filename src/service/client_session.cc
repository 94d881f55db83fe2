#include "service/client_session.h"

#include <utility>

namespace hermes::service {

ClientSession::ClientSession(Server* server)
    : sql::FrontEnd(server->options().session_defaults), server_(server) {
  server_->sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  server_->sessions_active_.fetch_add(1, std::memory_order_relaxed);
}

ClientSession::~ClientSession() {
  server_->sessions_active_.fetch_sub(1, std::memory_order_relaxed);
}

Status ClientSession::CreateMod(const sql::Statement& stmt) {
  return server_->CreateMod(stmt.mod);
}

Status ClientSession::DropMod(const sql::Statement& stmt) {
  return server_->DropMod(stmt.mod);
}

StatusOr<std::pair<size_t, size_t>> ClientSession::LoadMod(
    const std::string& mod, traj::TrajectoryStore parsed) {
  return server_->LoadMod(mod, std::move(parsed));
}

StatusOr<sql::Table> ClientSession::Insert(
    const sql::Statement& stmt, std::vector<traj::Trajectory> batch) {
  const size_t queued = batch.size();
  HERMES_ASSIGN_OR_RETURN(uint64_t ticket,
                          server_->EnqueueInsert(stmt.mod, std::move(batch)));
  return QueuedInsertAck(stmt.mod, queued, ticket);
}

Status ClientSession::Flush(const sql::Statement& /*stmt*/) {
  return server_->Flush();
}

Status ClientSession::Checkpoint(const sql::Statement& /*stmt*/) {
  return server_->Checkpoint();
}

StatusOr<sql::Table> ClientSession::ServiceStats() {
  return ServiceStatsTable(server_->Stats());
}

StatusOr<core::QuTResult> ClientSession::Qut(
    const std::string& mod, double wi, double we,
    const std::vector<double>& tree_params) {
  // Shared trees are server-scoped resources: the server's context
  // refreshes them and its configured default governs their budget.
  return server_->QutQuery(
      mod, wi, we, tree_params,
      static_cast<size_t>(
          server_->options().session_defaults.hot_index_budget),
      server_->exec_.get(), nullptr);
}

StatusOr<std::shared_ptr<const traj::TrajectoryStore>>
ClientSession::Snapshot(const std::string& mod) {
  // Statement-level snapshot isolation: one published snapshot per
  // statement, owned by any cursor the statement returns.
  return server_->SnapshotMod(mod);
}

sql::Table QueuedInsertAck(const std::string& mod, size_t queued,
                           uint64_t ticket) {
  sql::Table table;
  table.columns = {{"status", sql::ValueType::kString},
                   {"trajectories_queued", sql::ValueType::kInt},
                   {"ticket", sql::ValueType::kInt}};
  table.rows = {{sql::Value::Str("QUEUE INSERT " + mod),
                 sql::Value::Int(static_cast<int64_t>(queued)),
                 sql::Value::Int(static_cast<int64_t>(ticket))}};
  return table;
}

std::unique_ptr<sql::StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<ClientSession> session) {
  return sql::MakeStatementExecutor(std::move(session));
}

}  // namespace hermes::service
