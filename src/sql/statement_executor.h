#ifndef HERMES_SQL_STATEMENT_EXECUTOR_H_
#define HERMES_SQL_STATEMENT_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "sql/cursor.h"
#include "sql/query_functions.h"
#include "sql/value.h"

namespace hermes::sql {

class FrontEnd;
class Session;

/// \brief Handle returned by `StatementExecutor::Prepare`: an
/// executor-scoped statement id plus the statement's `$N` parameter
/// count. The id is meaningful only to the executor that issued it.
struct PreparedHandle {
  uint32_t id = 0;
  int num_params = 0;
};

/// \brief The one statement surface every Hermes backend speaks.
///
/// A `StatementExecutor` hides *where* a statement runs: against the
/// embedded `sql::Session`, an in-process `service::ClientSession`, a
/// remote server through `net::Client`, or a `shard::Coordinator`
/// spreading it across shards. The net server, examples, benches, and
/// tests address every backend through this interface.
///
/// Prepared statements are id-keyed (the wire protocol's model): the
/// executor chooses the id, `BindExecute` binds `$1..$n` positionally
/// from `binds` and executes. The session backends (every
/// `sql::FrontEnd`) keep an id -> `PreparedStatement` map behind
/// `MakeStatementExecutor`.
///
/// Thread safety: one executor serves one client thread, exactly like
/// the sessions it wraps.
class StatementExecutor {
 public:
  virtual ~StatementExecutor() = default;

  /// Parses and executes one statement, materializing the full result.
  virtual StatusOr<Table> Execute(const std::string& sql) = 0;

  /// Cursor-returning flavor. Backends without streaming (the wire
  /// protocol) materialize via `Execute` and wrap the table.
  virtual StatusOr<std::unique_ptr<RowCursor>> ExecuteCursor(
      const std::string& sql);

  /// Parses a statement with `$N` placeholders once; the handle's id is
  /// valid until `ClosePrepared` (or the executor dies).
  virtual StatusOr<PreparedHandle> Prepare(const std::string& sql) = 0;

  /// Binds `$1..$binds.size()` in order and executes statement `id`.
  virtual StatusOr<Table> BindExecute(uint32_t id,
                                      const std::vector<Value>& binds) = 0;

  /// Releases a `Prepare` handle. Backends without statement
  /// deallocation (the wire protocol) treat this as a no-op.
  virtual Status ClosePrepared(uint32_t id);

  /// Blocks until every previously issued write is applied and
  /// query-visible (the FLUSH statement; a no-op ack on synchronous
  /// backends).
  virtual Status Flush();
};

/// Wraps a session's front end (a `service::ClientSession`, a
/// coordinator session, ...), owning it. Statements run synchronously
/// against the front end, so FLUSH's default (execute the statement,
/// discard the ack) is exact.
std::unique_ptr<StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<FrontEnd> front_end);

/// Wraps the embedded `sql::Session` (non-owning; the session must
/// outlive the executor and every cursor it returned).
std::unique_ptr<StatementExecutor> MakeSessionExecutor(Session* session);

}  // namespace hermes::sql

#endif  // HERMES_SQL_STATEMENT_EXECUTOR_H_
