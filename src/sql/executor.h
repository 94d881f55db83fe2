#ifndef HERMES_SQL_EXECUTOR_H_
#define HERMES_SQL_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "core/qut_tree_slot.h"
#include "sql/front_end.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"

namespace hermes::sql {

/// \brief An interactive Hermes session: named MODs, lazily-built
/// ReTraTrees, a GUC-style settings registry, and statement execution —
/// the embedded counterpart of the demo's psql session against
/// Hermes@PostgreSQL.
///
/// The statement plane is the shared `FrontEnd`; the session adds its own
/// synchronous catalog: `INSERT` applies before its ack (acked with
/// `trajectories_added`), `FLUSH` acknowledges trivially, `CHECKPOINT`
/// and `SHOW SERVICE STATS` are rejected, and `QUT` trees follow the
/// session's own `hermes.hot_index_budget`.
///
/// Registered settings (see `docs/SQL.md`):
///   hermes.threads    int     worker threads for analytic statements
///   hermes.sigma      double  default S2T spatial bandwidth
///   hermes.epsilon    double  default S2T cluster radius
///   hermes.use_index  int     0/1 (off/on): pg3D-Rtree voting engine
///   hermes.hot_index_budget int  hot in-memory tier bytes (0 = off)
class Session : public FrontEnd {
 public:
  /// `env` defaults to a private in-memory environment; pass a Posix env
  /// + directory to keep ReTraTree partitions on disk.
  explicit Session(storage::Env* env = nullptr,
                   std::string data_dir = "hermes_data");

  /// Direct access for embedding (e.g. loading a generated scenario).
  Status RegisterStore(const std::string& name, traj::TrajectoryStore store);
  const traj::TrajectoryStore* FindStore(const std::string& name) const;

 protected:
  Status CreateMod(const Statement& stmt) override;
  Status DropMod(const Statement& stmt) override;
  StatusOr<std::pair<size_t, size_t>> LoadMod(
      const std::string& mod, traj::TrajectoryStore parsed) override;
  StatusOr<Table> Insert(const Statement& stmt,
                         std::vector<traj::Trajectory> batch) override;
  Status Flush(const Statement& stmt) override;
  Status Checkpoint(const Statement& stmt) override;
  StatusOr<Table> ServiceStats() override;
  void AppendStats(Table* table) override;
  StatusOr<core::QuTResult> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params) override;
  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) override;

 private:
  struct ModEntry {
    ModEntry(storage::Env* env, std::string tree_prefix)
        : tree(env, std::move(tree_prefix)) {}
    traj::TrajectoryStore store;
    core::QutTreeSlot tree;
  };

  /// Adds an empty MOD under `key` (which must be absent).
  ModEntry* AddMod(const std::string& key);
  StatusOr<ModEntry*> FindMod(const std::string& name);

  std::unique_ptr<storage::Env> owned_env_;
  storage::Env* env_;
  std::string data_dir_;
  std::map<std::string, ModEntry> mods_;
};

}  // namespace hermes::sql

#endif  // HERMES_SQL_EXECUTOR_H_
