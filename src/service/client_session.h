#ifndef HERMES_SERVICE_CLIENT_SESSION_H_
#define HERMES_SERVICE_CLIENT_SESSION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "service/server.h"
#include "sql/cursor.h"
#include "sql/front_end.h"
#include "sql/parser.h"
#include "sql/statement_executor.h"
#include "traj/trajectory_store.h"

namespace hermes::service {

/// \brief One client's view of the service: the shared `sql::FrontEnd`
/// statement plane executed against the server's *shared* catalog.
///
/// Differences from the embedded session, by design:
///
///  - MODs are shared across sessions; DDL is visible to everyone.
///  - `SELECT`s run against the MOD's *published snapshot*: immutable,
///    never blocking on — or blocked by — the ingest worker. Streaming
///    cursors keep their snapshot (and its pinned arena epoch) alive even
///    while newer epochs are published, so a cursor is never invalidated
///    by concurrent ingest.
///  - `INSERT INTO` enqueues onto the server's MPSC ingest queue and acks
///    with the queued count; `FLUSH` blocks until everything previously
///    queued is applied and query-visible.
///  - `SET`/`SHOW` operate on this session's own settings registry
///    (seeded from the server defaults); `hermes.threads` swaps only this
///    session's `ExecContext`. Two sessions with different settings never
///    interfere.
///  - `QUT` reads the MOD's shared tree, which follows the server's
///    configured `hot_index_budget` (a session's own `SET` does not).
///  - `SHOW SERVICE STATS` reports the server's service counters.
///
/// Thread safety: one ClientSession serves one client thread (like a
/// PostgreSQL backend); different sessions run fully concurrently. The
/// server must outlive the session and every cursor it returned.
class ClientSession : public sql::FrontEnd {
 public:
  ~ClientSession() override;

 protected:
  Status CreateMod(const sql::Statement& stmt) override;
  Status DropMod(const sql::Statement& stmt) override;
  StatusOr<std::pair<size_t, size_t>> LoadMod(
      const std::string& mod, traj::TrajectoryStore parsed) override;
  StatusOr<sql::Table> Insert(const sql::Statement& stmt,
                              std::vector<traj::Trajectory> batch) override;
  Status Flush(const sql::Statement& stmt) override;
  Status Checkpoint(const sql::Statement& stmt) override;
  StatusOr<sql::Table> ServiceStats() override;
  StatusOr<std::unique_ptr<sql::RowCursor>> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params) override;
  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) override;

 private:
  friend class Server;
  explicit ClientSession(Server* server);

  Server* server_;
};

/// Wraps a connected service session in the backend-neutral
/// `sql::StatementExecutor` interface (owning the session), so callers —
/// the shard coordinator, examples, benches — speak one statement API
/// whether the backend is embedded, in-process service, or remote.
std::unique_ptr<sql::StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<ClientSession> session);

}  // namespace hermes::service

#endif  // HERMES_SERVICE_CLIENT_SESSION_H_
