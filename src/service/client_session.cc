#include "service/client_session.h"

#include <utility>

namespace hermes::service {

ClientSession::ClientSession(Server* server)
    : sql::FrontEnd(server->options().session_defaults), server_(server) {}

ClientSession::~ClientSession() { server_->OnSessionClosed(); }

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
  const auto queued = static_cast<int64_t>(batch.size());
  HERMES_ASSIGN_OR_RETURN(uint64_t ticket,
                          server_->EnqueueInsert(stmt.mod, std::move(batch)));
  // Asynchronous ack: the rows are queued, not yet query-visible; FLUSH
  // (or time) makes them so. The ticket orders against FLUSH.
  sql::Table table;
  table.columns = {{"status", sql::ValueType::kString},
                   {"trajectories_queued", sql::ValueType::kInt},
                   {"ticket", sql::ValueType::kInt}};
  table.rows = {{sql::Value::Str("QUEUE INSERT " + stmt.mod),
                 sql::Value::Int(queued),
                 sql::Value::Int(static_cast<int64_t>(ticket))}};
  return table;
}

Status ClientSession::Flush(const sql::Statement& /*stmt*/) {
  return server_->Flush();
}

Status ClientSession::Checkpoint(const sql::Statement& /*stmt*/) {
  return server_->Checkpoint();
}

StatusOr<sql::Table> ClientSession::ServiceStats() {
  sql::Table table;
  table.columns = {{"counter", sql::ValueType::kString},
                   {"value", sql::ValueType::kInt}};
  AppendServiceStatsRows(server_->Stats(), "", &table);
  return table;
}

StatusOr<std::unique_ptr<sql::RowCursor>> ClientSession::Qut(
    const std::string& mod, double wi, double we,
    const std::vector<double>& tree_params) {
  return server_->QutQuery(mod, wi, we, tree_params, mutable_stats());
}

StatusOr<std::shared_ptr<const traj::TrajectoryStore>>
ClientSession::Snapshot(const std::string& mod) {
  // Statement-level snapshot isolation: one published snapshot per
  // statement, owned by any cursor the statement returns.
  return server_->SnapshotMod(mod);
}

std::unique_ptr<sql::StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<ClientSession> session) {
  return sql::MakeStatementExecutor(std::move(session));
}

}  // namespace hermes::service
