#ifndef HERMES_SQL_FRONT_END_H_
#define HERMES_SQL_FRONT_END_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "exec/exec_context.h"
#include "sql/cursor.h"
#include "sql/parser.h"
#include "sql/query_functions.h"
#include "sql/settings.h"
#include "sql/value.h"
#include "traj/trajectory.h"
#include "traj/trajectory_store.h"

namespace hermes::sql {

/// \brief The statement plane every Hermes session shares: the embedded
/// `sql::Session`, a `service::ClientSession`, and a shard coordinator
/// session.
///
/// A front end owns one session's settings registry, execution context
/// and `SHOW STATS` archive, and executes statements: parsing
/// (`Execute` / `ExecuteCursor` / `Prepare` / `ExecuteScript`), `SET`,
/// `SHOW`, SELECT argument evaluation and the `QUT` arity check, the
/// `QueryEnv` of a SELECT function, INSERT row and LOAD file evaluation
/// (a LOAD file with a one-sample object fails before anything changes),
/// and the acks. What a statement does to the data is the backend's,
/// behind the protected hooks below; this class never asks which backend
/// it runs.
///
/// Thread safety: one front end serves one client thread.
class FrontEnd {
 public:
  virtual ~FrontEnd() = default;

  // Pinned in place: the settings registry's on-change hook and every
  // PreparedStatement/RowCursor hold a pointer to this front end.
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Parses and executes one statement, materializing the full result.
  StatusOr<Table> Execute(const std::string& sql);

  /// Parses and executes one statement, returning a pull-based cursor.
  /// `RANGE` and `S2T_MEMBERS` produce rows incrementally; other
  /// statements return a cursor over their materialized table. The
  /// cursor must not outlive the front end.
  StatusOr<std::unique_ptr<RowCursor>> ExecuteCursor(const std::string& sql);

  /// Parses a statement with `$N` placeholders into a reusable handle
  /// running against this front end, which must outlive it.
  StatusOr<PreparedStatement> Prepare(const std::string& sql);

  /// Executes a ';'-separated script, returning the last statement's
  /// table. Empty statements are skipped; an error in statement k aborts
  /// the script with the statement's 1-based ordinal prefixed.
  StatusOr<Table> ExecuteScript(const std::string& sql);

  /// The run-time settings registry (`SET` / `SHOW` surface).
  const Settings& settings() const { return settings_; }

  /// Worker threads granted to analytic statements (`SET hermes.threads`).
  size_t threads() const { return threads_; }

  /// The session's execution context (nullptr while `threads() == 1`).
  exec::ExecContext* exec_context() { return exec_.get(); }

  /// Session-accumulated statistics (S2T phase breakdowns, QUT query
  /// wall times) — the typed source behind `SHOW STATS`.
  const exec::ExecStats& stats() const { return session_stats_; }

 protected:
  /// Registers the `hermes.*` knobs at `defaults`.
  explicit FrontEnd(const HermesSettingDefaults& defaults);

  exec::ExecStats* mutable_stats() { return &session_stats_; }

  // ---- Backend hooks: what a statement does to this backend's data ----

  virtual Status CreateMod(const Statement& stmt) = 0;
  virtual Status DropMod(const Statement& stmt) = 0;
  /// Appends a parsed LOAD file to the MOD, creating the MOD if absent;
  /// returns its (trajectories, points) totals afterwards.
  virtual StatusOr<std::pair<size_t, size_t>> LoadMod(
      const std::string& mod, traj::TrajectoryStore parsed) = 0;
  /// Ingests one evaluated INSERT (one trajectory per object id) and
  /// returns the ack.
  virtual StatusOr<Table> Insert(const Statement& stmt,
                                 std::vector<traj::Trajectory> batch) = 0;
  virtual Status Flush(const Statement& stmt) = 0;
  virtual Status Checkpoint(const Statement& stmt) = 0;
  /// The `SHOW SERVICE STATS` table.
  virtual StatusOr<Table> ServiceStats() = 0;
  /// Rows `SHOW STATS` appends after the phase timings.
  virtual void AppendStats(Table* /*table*/) {}
  /// `QUT` over the MOD's tree; `tree_params` is (tau, delta, t, d, gamma).
  virtual StatusOr<std::unique_ptr<RowCursor>> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params) = 0;
  /// The store a SELECT function reads; the handle keeps it alive for
  /// as long as any cursor over it.
  virtual StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) = 0;
  /// Every SELECT function but `QUT`, with its arguments evaluated. The
  /// default evaluates it over `Snapshot(mod)`.
  virtual StatusOr<std::unique_ptr<RowCursor>> Select(
      const Statement& stmt, const std::string& mod,
      const std::vector<double>& args, const std::vector<Value>& binds);

 private:
  StatusOr<std::unique_ptr<RowCursor>> ExecuteStatement(
      const Statement& stmt, const std::vector<Value>& binds);
  StatusOr<std::unique_ptr<RowCursor>> ExecuteShow(const Statement& stmt);
  StatusOr<std::unique_ptr<RowCursor>> ExecuteSelect(
      const Statement& stmt, const std::vector<Value>& binds);

  Settings settings_;
  exec::ExecStats session_stats_;
  /// Parallelism of analytic statements; kept in sync with the
  /// hermes.threads setting by its on-change hook. nullptr = sequential.
  size_t threads_ = 1;
  std::unique_ptr<exec::ExecContext> exec_;
};

}  // namespace hermes::sql

#endif  // HERMES_SQL_FRONT_END_H_
