#include "sql/front_end.h"

#include <map>
#include <utility>

namespace hermes::sql {

namespace {

/// `SHOW STATS` table: the session archive merged with the live
/// context's phase timings (when one exists).
Table PhaseStatsTable(const exec::ExecStats& session_stats,
                      const exec::ExecContext* exec) {
  std::map<std::string, int64_t> merged = session_stats.PhaseTimings();
  if (exec != nullptr) {
    for (const auto& [phase, us] : exec->stats().PhaseTimings()) {
      merged[phase] += us;
    }
  }
  Table table;
  table.columns = {{"phase", ValueType::kString},
                   {"total_us", ValueType::kInt}};
  for (const auto& [phase, us] : merged) {
    table.rows.push_back({Value::Str(phase), Value::Int(us)});
  }
  return table;
}

/// `SHOW hermes.<name>` / `SHOW ALL` table over a registry; unknown
/// names fail with the statement's error location.
StatusOr<Table> SettingsShowTable(const Settings& settings,
                                  const Statement& stmt) {
  Table table;
  table.columns = {{"name", ValueType::kString},
                   {"value", ValueType::kNull},  // Native type per setting.
                   {"type", ValueType::kString},
                   {"description", ValueType::kString}};
  auto row = [](const Settings::Setting& s) {
    return std::vector<Value>{Value::Str(s.name), s.value,
                              Value::Str(ValueTypeName(s.type())),
                              Value::Str(s.description)};
  };
  if (stmt.setting == "all") {
    for (const Settings::Setting* s : settings.All()) {
      table.rows.push_back(row(*s));
    }
    return table;
  }
  const Settings::Setting* s = settings.Find(stmt.setting);
  if (s == nullptr) {
    return Status::NotSupported("unrecognized setting " + stmt.setting +
                                ErrorLocation(stmt.setting_pos, stmt.setting));
  }
  table.rows.push_back(row(*s));
  return table;
}

std::unique_ptr<RowCursor> Ack(std::string status) {
  return MakeTableCursor(AckTable(std::move(status)));
}

}  // namespace

FrontEnd::FrontEnd(const HermesSettingDefaults& defaults)
    : threads_(static_cast<size_t>(defaults.threads)) {
  // Registration of compile-time-known settings cannot fail; the (void)
  // cast acknowledges the Status. The threads hook swaps only this
  // session's context: trees take their context per insert, so none is
  // left holding the retired one.
  (void)RegisterHermesSettings(&settings_, defaults, [this](size_t n) {
    if (n != threads_) {
      threads_ = n;
      // The retiring context's phase timings fold into the archive so
      // SHOW STATS keeps accumulating across the swap.
      if (exec_ != nullptr) {
        for (const auto& [phase, us] : exec_->stats().PhaseTimings()) {
          session_stats_.RecordPhaseUs(phase, us);
        }
      }
      exec_ = n > 1 ? std::make_unique<exec::ExecContext>(n) : nullptr;
    }
    return Status::OK();
  });
  if (threads_ > 1) exec_ = std::make_unique<exec::ExecContext>(threads_);
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

StatusOr<Table> FrontEnd::Execute(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RowCursor> cursor,
                          ExecuteCursor(sql));
  return cursor->ToTable();
}

StatusOr<std::unique_ptr<RowCursor>> FrontEnd::ExecuteCursor(
    const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.num_params > 0) {
    return Status::InvalidArgument(
        "statement has $N placeholders; use Prepare and Bind");
  }
  return ExecuteStatement(stmt, {});
}

StatusOr<PreparedStatement> FrontEnd::Prepare(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return PreparedStatement(
      std::move(stmt), [this](const Statement& s, const std::vector<Value>& b) {
        return ExecuteStatement(s, b);
      });
}

StatusOr<Table> FrontEnd::ExecuteScript(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty script");
  Table last;
  for (size_t k = 0; k < stmts.size(); ++k) {
    auto prefix = [&] { return "statement " + std::to_string(k + 1) + ": "; };
    if (stmts[k].num_params > 0) {
      return Status::InvalidArgument(
          prefix() + "script statements cannot carry $N placeholders");
    }
    auto cursor = ExecuteStatement(stmts[k], {});
    if (!cursor.ok()) {
      return Status(cursor.status().code(),
                    prefix() + cursor.status().message());
    }
    auto table = (*cursor)->ToTable();
    if (!table.ok()) {
      return Status(table.status().code(),
                    prefix() + table.status().message());
    }
    last = std::move(*table);
  }
  return last;
}

// ---------------------------------------------------------------------------
// Statement dispatch
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<RowCursor>> FrontEnd::ExecuteStatement(
    const Statement& stmt, const std::vector<Value>& binds) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateMod:
      HERMES_RETURN_NOT_OK(CreateMod(stmt));
      return Ack("CREATE MOD " + stmt.mod);
    case Statement::Kind::kDropMod:
      HERMES_RETURN_NOT_OK(DropMod(stmt));
      return Ack("DROP MOD " + stmt.mod);
    case Statement::Kind::kLoadMod: {
      HERMES_ASSIGN_OR_RETURN(traj::TrajectoryStore parsed,
                              ReadLoadFile(stmt.path));
      HERMES_ASSIGN_OR_RETURN(auto totals,
                              LoadMod(stmt.mod, std::move(parsed)));
      Table table;
      table.columns = {{"status", ValueType::kString},
                       {"trajectories", ValueType::kInt},
                       {"points", ValueType::kInt}};
      table.rows = {{Value::Str("LOAD " + stmt.mod),
                     Value::Int(static_cast<int64_t>(totals.first)),
                     Value::Int(static_cast<int64_t>(totals.second))}};
      return MakeTableCursor(std::move(table));
    }
    case Statement::Kind::kInsert: {
      HERMES_ASSIGN_OR_RETURN(std::vector<traj::Trajectory> batch,
                              BuildInsertTrajectories(stmt, binds));
      HERMES_ASSIGN_OR_RETURN(Table ack, Insert(stmt, std::move(batch)));
      return MakeTableCursor(std::move(ack));
    }
    case Statement::Kind::kSet: {
      HERMES_ASSIGN_OR_RETURN(Value v, EvalScalar(stmt.set_value, binds));
      Status st = settings_.Set(stmt.setting, std::move(v));
      if (!st.ok()) {
        return Status(st.code(),
                      st.message() +
                          ErrorLocation(stmt.setting_pos, stmt.setting));
      }
      // Echo the stored (coerced) value, not the literal spelling.
      HERMES_ASSIGN_OR_RETURN(Value stored, settings_.Get(stmt.setting));
      return Ack("SET " + stmt.setting + " = " + stored.ToString());
    }
    case Statement::Kind::kShow:
      return ExecuteShow(stmt);
    case Statement::Kind::kFlush:
      HERMES_RETURN_NOT_OK(Flush(stmt));
      return Ack("FLUSH");
    case Statement::Kind::kCheckpoint:
      HERMES_RETURN_NOT_OK(Checkpoint(stmt));
      return Ack("CHECKPOINT");
    case Statement::Kind::kSelect:
      return ExecuteSelect(stmt, binds);
  }
  return Status::Internal("unreachable");
}

StatusOr<std::unique_ptr<RowCursor>> FrontEnd::ExecuteShow(
    const Statement& stmt) {
  if (stmt.setting == "service.stats") {
    HERMES_ASSIGN_OR_RETURN(Table table, ServiceStats());
    return MakeTableCursor(std::move(table));
  }
  if (stmt.setting == "stats") {
    Table table = PhaseStatsTable(session_stats_, exec_.get());
    AppendStats(&table);
    return MakeTableCursor(std::move(table));
  }
  HERMES_ASSIGN_OR_RETURN(Table table, SettingsShowTable(settings_, stmt));
  return MakeTableCursor(std::move(table));
}

StatusOr<std::unique_ptr<RowCursor>> FrontEnd::ExecuteSelect(
    const Statement& stmt, const std::vector<Value>& binds) {
  // When the MOD position itself was a `$N`, its binding names the MOD.
  HERMES_ASSIGN_OR_RETURN(std::string mod, ResolveSelectModName(stmt, binds));
  // Scalar arguments are few and cheap, so they are evaluated up front;
  // streaming applies to result rows, not inputs.
  std::vector<double> args;
  args.reserve(stmt.args.size());
  for (const auto& arg : stmt.args) {
    HERMES_ASSIGN_OR_RETURN(double v, EvalNumber(arg, binds));
    args.push_back(v);
  }
  if (stmt.function == "QUT") {
    if (args.size() != 7) {
      return Status::InvalidArgument(
          "QUT(D, Wi, We, tau, delta, t, d, gamma) takes 7 numbers" +
          ErrorLocation(stmt.function_pos, stmt.function));
    }
    HERMES_ASSIGN_OR_RETURN(
        core::QuTResult result,
        Qut(mod, args[0], args[1],
            std::vector<double>(args.begin() + 2, args.end())));
    return MakeQutCursor(result, args[0], args[1], &session_stats_);
  }
  return Select(stmt, mod, args);
}

StatusOr<std::unique_ptr<RowCursor>> FrontEnd::Select(
    const Statement& stmt, const std::string& mod,
    const std::vector<double>& args) {
  HERMES_ASSIGN_OR_RETURN(auto store, Snapshot(mod));
  return EvalOn(std::move(store), stmt, args);
}

StatusOr<std::unique_ptr<RowCursor>> FrontEnd::EvalOn(
    std::shared_ptr<const traj::TrajectoryStore> store, const Statement& stmt,
    const std::vector<double>& args) {
  QueryEnv env;
  env.store = std::move(store);
  env.exec = exec_.get();
  env.session_stats = &session_stats_;
  env.default_sigma = settings_.Get("hermes.sigma")->AsDouble();
  env.default_epsilon = settings_.Get("hermes.epsilon")->AsDouble();
  env.use_index = settings_.Get("hermes.use_index")->AsInt() != 0;
  return EvalSelectFunction(stmt.function, args, env,
                            ErrorLocation(stmt.function_pos, stmt.function));
}

}  // namespace hermes::sql
