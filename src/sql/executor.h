#ifndef HERMES_SQL_EXECUTOR_H_
#define HERMES_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "service/client_session.h"
#include "service/server.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"

namespace hermes::sql {

namespace internal {

/// Owns the embedded session's server. `Session` lists it as its first
/// base, so the server is built before the `ClientSession` base that
/// connects to it and destroyed after it.
struct PrivateServer {
  PrivateServer(storage::Env* env, std::string data_dir);
  std::unique_ptr<service::Server> server;
};

}  // namespace internal

/// \brief An interactive Hermes session: named MODs, lazily-built
/// ReTraTrees, a GUC-style settings registry, and statement execution —
/// the embedded counterpart of the demo's psql session against
/// Hermes@PostgreSQL.
///
/// A `service::ClientSession` of a private, WAL-less `service::Server`
/// the session owns, so it shares that server's one catalog, write path
/// and published snapshots: a cursor keeps its snapshot across later DDL
/// and ingest. It differs from a served session in two things only:
/// `INSERT` applies before its ack (acked with `trajectories_added`), and
/// `QUT` refreshes trees with this session's `hermes.hot_index_budget`,
/// context and `SHOW STATS` archive. `SHOW STATS` also lists the trees'
/// hot-tier counters.
///
/// Registered settings (see `docs/SQL.md`):
///   hermes.threads    int     worker threads for analytic statements
///   hermes.sigma      double  default S2T spatial bandwidth
///   hermes.epsilon    double  default S2T cluster radius
///   hermes.use_index  int     0/1 (off/on): pg3D-Rtree voting engine
///   hermes.hot_index_budget int  hot in-memory tier bytes (0 = off)
class Session : private internal::PrivateServer,
                public service::ClientSession {
 public:
  /// `env` defaults to a private in-memory environment; pass a Posix env
  /// + directory to keep ReTraTree partitions on disk.
  explicit Session(storage::Env* env = nullptr,
                   std::string data_dir = "hermes_data");

  /// Direct access for embedding (e.g. loading a generated scenario).
  Status RegisterStore(const std::string& name, traj::TrajectoryStore store);
  /// The MOD's published snapshot, or null when there is no such MOD.
  std::shared_ptr<const traj::TrajectoryStore> FindStore(
      const std::string& name) const;

 protected:
  StatusOr<Table> Insert(const Statement& stmt,
                         std::vector<traj::Trajectory> batch) override;
  void AppendStats(Table* table) override;
  StatusOr<core::QuTResult> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params) override;
};

}  // namespace hermes::sql

#endif  // HERMES_SQL_EXECUTOR_H_
