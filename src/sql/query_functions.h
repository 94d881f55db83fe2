#ifndef HERMES_SQL_QUERY_FUNCTIONS_H_
#define HERMES_SQL_QUERY_FUNCTIONS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/qut_tree_slot.h"
#include "core/retratree.h"
#include "exec/exec_context.h"
#include "sql/cursor.h"
#include "sql/parser.h"
#include "sql/settings.h"
#include "sql/value.h"
#include "traj/trajectory_store.h"

namespace hermes::sql {

/// \brief Everything a SELECT function evaluation needs, independent of
/// which frontend issued it — the embedded `sql::Session` or a
/// `service::ClientSession`.
///
/// `store` is shared ownership: streaming cursors (`RANGE`,
/// `S2T_MEMBERS`) capture it, so a service snapshot — and the arena epoch
/// it pins — stays alive for the whole life of the cursor even while the
/// ingest worker keeps publishing newer epochs.
struct QueryEnv {
  std::shared_ptr<const traj::TrajectoryStore> store;
  /// Parallelism for analytic statements; nullptr = sequential.
  exec::ExecContext* exec = nullptr;
  /// Timing archive for sequential runs (`SHOW STATS`); a live `exec`
  /// records its own phases, so this stays untouched then.
  exec::ExecStats* session_stats = nullptr;
  double default_sigma = 100.0;
  double default_epsilon = 200.0;
  bool use_index = true;
};

/// Non-owning `QueryEnv::store` handle for embedders whose store outlives
/// every cursor by contract (the embedded `Session`'s MOD catalog).
std::shared_ptr<const traj::TrajectoryStore> BorrowStore(
    const traj::TrajectoryStore* store);

/// \brief Executes one parsed statement with its bound `$N` values —
/// the seam every frontend (embedded `sql::Session`, service
/// `ClientSession`) exposes so `PreparedStatement` can run against any
/// of them.
using StatementRunner =
    std::function<StatusOr<std::unique_ptr<RowCursor>>(
        const Statement&, const std::vector<Value>&)>;

/// \brief A parsed-once, execute-many statement handle.
///
/// `Prepare` (on either frontend) tokenizes and parses a statement with
/// `$N` placeholders exactly once; `Bind` supplies typed values and
/// `Execute` / `ExecuteCursor` run the cached parse tree through the
/// owning frontend's `StatementRunner` — so maintenance loops, benches,
/// and the wire protocol's BIND+EXECUTE fast path re-executing the same
/// shape pay no per-call parsing. Bindings persist across executions;
/// re-`Bind` to change one. The handle must not outlive the frontend the
/// runner captures.
class PreparedStatement {
 public:
  PreparedStatement(Statement stmt, StatementRunner run);

  /// Binds the 1-based placeholder `$index`. Fails with `InvalidArgument`
  /// when `index` is outside [1, num_params()].
  Status Bind(int index, Value v);

  /// Executes with the current bindings; every placeholder must be bound.
  StatusOr<Table> Execute();

  /// Cursor-returning flavor (see `Session::ExecuteCursor`).
  StatusOr<std::unique_ptr<RowCursor>> ExecuteCursor();

  /// Number of distinct `$N` placeholders (the highest N).
  int num_params() const { return stmt_.num_params; }

 private:
  Statement stmt_;
  StatementRunner run_;
  std::vector<Value> binds_;   ///< Slot i holds the value of `$(i+1)`.
  std::vector<bool> bound_;
};

/// Resolves the MOD a SELECT targets: the statement's literal name, or —
/// when the MOD position was a `$N` placeholder — the canonicalized
/// string it was bound to. Shared by both frontends so a prepared
/// `SELECT RANGE($1, ...)` behaves identically embedded and served.
StatusOr<std::string> ResolveSelectModName(const Statement& stmt,
                                           const std::vector<Value>& binds);

/// Canonical (ASCII upper-case) MOD name — the one catalog key rule the
/// embedded session's map and the service server's catalog both follow.
std::string CanonicalModName(const std::string& name);

/// \brief Evaluates one SELECT function — STATS / RANGE / S2T /
/// S2T_MEMBERS / TRACLUS / TOPTICS / CONVOYS — against `env`. `at` is the
/// error-location suffix anchored at the function token. `QUT` is *not*
/// handled here: it reads a backend's `core::QutTreeSlot` (see
/// `QutQuery`).
StatusOr<std::unique_ptr<RowCursor>> EvalSelectFunction(
    const std::string& function, const std::vector<double>& args,
    const QueryEnv& env, const std::string& at);

/// Runs a QUT window query against an already-built tree, recording the
/// `qut_query` wall time into `session_stats` (optional).
StatusOr<std::unique_ptr<RowCursor>> QutQuery(core::ReTraTree* tree,
                                              double wi, double we,
                                              exec::ExecStats* session_stats);

/// The QUT tree-parameter mapping (see `core::MakeQutTreeParams`).
using core::MakeQutTreeParams;

/// Evaluates the rows of an INSERT statement into one trajectory per
/// object id (grouped in ascending object order, samples in row order),
/// resolving `$N` binds.
StatusOr<std::vector<traj::Trajectory>> BuildInsertTrajectories(
    const Statement& stmt, const std::vector<Value>& binds);

/// Parses a LOAD file (obj_id,t,x,y CSV) into a scratch store, one
/// trajectory per object id in ascending order; fails like
/// `CheckIngestable` before anything is loaded.
StatusOr<traj::TrajectoryStore> ReadLoadFile(const std::string& path);

/// The ingest precondition of LOAD files and of queued (service and
/// sharded) INSERTs: a trajectory needs >= 2 samples, since one sample
/// forms no segment. `InvalidArgument` otherwise. The embedded session's
/// synchronous INSERT stores such points anyway; its QUT tree leaves
/// them out (`core::QutTreeSlot`).
Status CheckIngestable(const traj::Trajectory& t);

/// Resolves a scalar: the literal itself, or the bound value of `$N`.
StatusOr<Value> EvalScalar(const ScalarExpr& e,
                           const std::vector<Value>& binds);

/// Resolves a scalar that must be numeric, widening ints to double.
StatusOr<double> EvalNumber(const ScalarExpr& e,
                            const std::vector<Value>& binds);

/// Single-column acknowledgment table ("CREATE MOD X", ...).
Table AckTable(std::string status);

/// Cursor over an eagerly-built table.
std::unique_ptr<RowCursor> MakeTableCursor(Table table);

}  // namespace hermes::sql

#endif  // HERMES_SQL_QUERY_FUNCTIONS_H_
