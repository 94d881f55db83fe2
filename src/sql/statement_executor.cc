#include "sql/statement_executor.h"

#include <map>
#include <utility>

#include "sql/executor.h"
#include "sql/front_end.h"

namespace hermes::sql {

StatusOr<std::unique_ptr<RowCursor>> StatementExecutor::ExecuteCursor(
    const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(Table table, Execute(sql));
  return MakeTableCursor(std::move(table));
}

Status StatementExecutor::ClosePrepared(uint32_t /*id*/) {
  return Status::OK();
}

Status StatementExecutor::Flush() {
  HERMES_ASSIGN_OR_RETURN(Table ack, Execute("FLUSH;"));
  (void)ack;
  return Status::OK();
}

namespace {

/// A `FrontEnd` behind the backend-neutral statement API, owning it or
/// not; prepared statements live in an id-keyed map.
class FrontEndExecutor final : public StatementExecutor {
 public:
  FrontEndExecutor(FrontEnd* front_end, std::unique_ptr<FrontEnd> owned)
      : owned_(std::move(owned)), front_end_(front_end) {}

  StatusOr<Table> Execute(const std::string& sql) override {
    return front_end_->Execute(sql);
  }

  StatusOr<std::unique_ptr<RowCursor>> ExecuteCursor(
      const std::string& sql) override {
    return front_end_->ExecuteCursor(sql);
  }

  StatusOr<PreparedHandle> Prepare(const std::string& sql) override {
    HERMES_ASSIGN_OR_RETURN(PreparedStatement ps, front_end_->Prepare(sql));
    const uint32_t id = next_id_++;
    PreparedHandle handle{id, ps.num_params()};
    prepared_.emplace(id, std::move(ps));
    return handle;
  }

  StatusOr<Table> BindExecute(uint32_t id,
                              const std::vector<Value>& binds) override {
    auto it = prepared_.find(id);
    if (it == prepared_.end()) {
      return Status::NotFound("no prepared statement with id " +
                              std::to_string(id));
    }
    for (size_t i = 0; i < binds.size(); ++i) {
      HERMES_RETURN_NOT_OK(
          it->second.Bind(static_cast<int>(i) + 1, binds[i]));
    }
    return it->second.Execute();
  }

  Status ClosePrepared(uint32_t id) override {
    prepared_.erase(id);
    return Status::OK();
  }

 private:
  std::unique_ptr<FrontEnd> owned_;
  FrontEnd* front_end_;
  std::map<uint32_t, PreparedStatement> prepared_;
  uint32_t next_id_ = 1;
};

}  // namespace

std::unique_ptr<StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<FrontEnd> front_end) {
  FrontEnd* raw = front_end.get();
  return std::make_unique<FrontEndExecutor>(raw, std::move(front_end));
}

std::unique_ptr<StatementExecutor> MakeSessionExecutor(Session* session) {
  return std::make_unique<FrontEndExecutor>(session, nullptr);
}

}  // namespace hermes::sql
