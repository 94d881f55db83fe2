#include "sql/query_functions.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <utility>

#include "baselines/convoys.h"
#include "baselines/toptics.h"
#include "baselines/traclus.h"
#include "core/qut_clustering.h"
#include "core/s2t_clustering.h"

namespace hermes::sql {

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(Statement stmt, StatementRunner run)
    : stmt_(std::move(stmt)),
      run_(std::move(run)),
      binds_(static_cast<size_t>(stmt_.num_params)),
      bound_(static_cast<size_t>(stmt_.num_params), false) {}

Status PreparedStatement::Bind(int index, Value v) {
  if (index < 1 || index > stmt_.num_params) {
    return Status::InvalidArgument(
        "bind index $" + std::to_string(index) + " out of range; statement "
        "has " + std::to_string(stmt_.num_params) + " parameter(s)");
  }
  binds_[index - 1] = std::move(v);
  bound_[index - 1] = true;
  return Status::OK();
}

StatusOr<std::unique_ptr<RowCursor>> PreparedStatement::ExecuteCursor() {
  for (size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i]) {
      return Status::InvalidArgument("parameter $" + std::to_string(i + 1) +
                                     " not bound");
    }
  }
  return run_(stmt_, binds_);
}

StatusOr<Table> PreparedStatement::Execute() {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RowCursor> cursor, ExecuteCursor());
  return cursor->ToTable();
}

StatusOr<std::string> ResolveSelectModName(const Statement& stmt,
                                           const std::vector<Value>& binds) {
  if (stmt.mod_param <= 0) return stmt.mod;
  if (stmt.mod_param > static_cast<int>(binds.size())) {
    return Status::InvalidArgument(
        "parameter $" + std::to_string(stmt.mod_param) + " not bound" +
        ErrorLocation(stmt.mod_pos, "$" + std::to_string(stmt.mod_param)));
  }
  const Value& v = binds[stmt.mod_param - 1];
  if (v.type() != ValueType::kString) {
    return Status::InvalidArgument(
        "MOD placeholder $" + std::to_string(stmt.mod_param) +
        " must be bound to a string, got " + ValueTypeName(v.type()) +
        ErrorLocation(stmt.mod_pos, "$" + std::to_string(stmt.mod_param)));
  }
  return CanonicalModName(v.AsString());
}

std::string CanonicalModName(const std::string& name) {
  std::string key = name;
  for (char& c : key) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return key;
}

StatusOr<Value> EvalScalar(const ScalarExpr& e,
                           const std::vector<Value>& binds) {
  if (e.param == 0) return e.value;
  if (e.param > static_cast<int>(binds.size())) {
    return Status::InvalidArgument("parameter $" + std::to_string(e.param) +
                                   " not bound" + ErrorLocation(e.pos, e.text));
  }
  return binds[e.param - 1];
}

StatusOr<double> EvalNumber(const ScalarExpr& e,
                            const std::vector<Value>& binds) {
  HERMES_ASSIGN_OR_RETURN(Value v, EvalScalar(e, binds));
  if (!v.is_numeric()) {
    return Status::InvalidArgument(std::string("expected a number, got ") +
                                   ValueTypeName(v.type()) +
                                   ErrorLocation(e.pos, e.text));
  }
  return v.AsDouble();
}

Table AckTable(std::string status) {
  Table table;
  table.columns = {{"status", ValueType::kString}};
  table.rows = {{Value::Str(std::move(status))}};
  return table;
}

std::unique_ptr<RowCursor> MakeTableCursor(Table table) {
  return std::make_unique<TableCursor>(std::move(table));
}

StatusOr<std::vector<traj::Trajectory>> BuildInsertTrajectories(
    const Statement& stmt, const std::vector<Value>& binds) {
  // Group rows by object id; each group yields one trajectory.
  std::map<uint64_t, traj::Trajectory> builders;
  for (const auto& row : stmt.rows) {
    std::array<double, 4> cell{};
    for (int k = 0; k < 4; ++k) {
      HERMES_ASSIGN_OR_RETURN(cell[k], EvalNumber(row[k], binds));
    }
    const auto obj = static_cast<traj::ObjectId>(cell[0]);
    auto [bit, fresh] = builders.try_emplace(obj, traj::Trajectory(obj));
    HERMES_RETURN_NOT_OK(bit->second.Append({cell[2], cell[3], cell[1]}));
  }
  std::vector<traj::Trajectory> out;
  out.reserve(builders.size());
  for (auto& [obj, t] : builders) out.push_back(std::move(t));
  return out;
}

StatusOr<traj::TrajectoryStore> ReadLoadFile(const std::string& path) {
  traj::TrajectoryStore parsed;
  HERMES_RETURN_NOT_OK(parsed.LoadCsv(path));
  for (traj::TrajectoryId id = 0; id < parsed.NumTrajectories(); ++id) {
    HERMES_RETURN_NOT_OK(CheckIngestable(parsed.Get(id)));
  }
  return parsed;
}

Status CheckIngestable(const traj::Trajectory& t) {
  if (t.size() >= 2) return Status::OK();
  return Status::InvalidArgument("trajectory for object " +
                                 std::to_string(t.object_id()) +
                                 " needs >= 2 samples");
}

StatusOr<std::unique_ptr<RowCursor>> EvalSelectFunction(
    const std::string& function, const std::vector<double>& args,
    const QueryEnv& env, const std::string& at) {
  const traj::TrajectoryStore& store = *env.store;

  if (function == "STATS") {
    const auto [t0, t1] = store.TimeDomain();
    const geom::Mbb3D b = store.Bounds();
    Table table;
    table.columns = {{"trajectories", ValueType::kInt},
                     {"points", ValueType::kInt},
                     {"segments", ValueType::kInt},
                     {"t_min", ValueType::kDouble},
                     {"t_max", ValueType::kDouble},
                     {"x_min", ValueType::kDouble},
                     {"x_max", ValueType::kDouble},
                     {"y_min", ValueType::kDouble},
                     {"y_max", ValueType::kDouble}};
    table.rows = {{Value::Int(static_cast<int64_t>(store.NumTrajectories())),
                   Value::Int(static_cast<int64_t>(store.NumPoints())),
                   Value::Int(static_cast<int64_t>(store.NumSegments())),
                   Value::Double(t0), Value::Double(t1), Value::Double(b.min_x),
                   Value::Double(b.max_x), Value::Double(b.min_y),
                   Value::Double(b.max_y)}};
    return MakeTableCursor(std::move(table));
  }

  if (function == "RANGE") {
    if (args.size() != 2) {
      return Status::InvalidArgument("RANGE(D, Wi, We) takes 2 numbers" + at);
    }
    const double wi = args[0];
    const double we = args[1];
    if (!(wi < we)) {
      return Status::InvalidArgument(
          (std::isnan(wi) || std::isnan(we) ? "non-numeric window bound"
                                             : "empty window") +
          at);
    }
    // Streams one row per trajectory whose slice of [wi, we] has at
    // least two points, in id order. The scan happens in Next(), so a
    // caller reading k rows scans only up to the k-th; it reads the
    // store's lifespan columns and zone maps, and touches a trajectory
    // only when its lifespan meets the window. The generator owns the
    // store handle: a service snapshot stays pinned for the cursor's
    // whole life.
    std::shared_ptr<const traj::TrajectoryStore> snap = env.store;
    traj::TrajectoryId idx = 0;
    GeneratorCursor::Generator gen =
        [snap, wi, we, idx](std::vector<Value>* row) mutable
        -> StatusOr<bool> {
      while ((idx = snap->NextOverlapping(idx, wi, we)) <
             snap->NumTrajectories()) {
        const traj::Trajectory& t = snap->Get(idx++);
        const size_t points = t.SliceSize(wi, we);
        if (points >= 2) {
          *row = {Value::Int(static_cast<int64_t>(t.object_id())),
                  Value::Int(static_cast<int64_t>(points))};
          return true;
        }
      }
      return false;
    };
    return std::unique_ptr<RowCursor>(std::make_unique<GeneratorCursor>(
        std::vector<Column>{{"object_id", ValueType::kInt},
                            {"points_in_window", ValueType::kInt}},
        std::move(gen)));
  }

  if (function == "S2T" || function == "S2T_MEMBERS") {
    if (args.size() > 2) {
      return Status::InvalidArgument(
          function + "(D[, sigma[, eps]]) takes at most 2 numbers" + at);
    }
    // Trailing args omitted -> session defaults (SET hermes.sigma/...).
    const double sigma = args.size() >= 1 ? args[0] : env.default_sigma;
    const double eps = args.size() >= 2 ? args[1] : env.default_epsilon;
    for (const auto& [name, v] : {std::pair{"sigma", sigma}, {"eps", eps}}) {
      if (!std::isfinite(v) || v <= 0.0) {
        return Status::InvalidArgument(function + " " + name +
                                       " must be finite and > 0, got " +
                                       Value::Double(v).ToString() + at);
      }
    }
    core::S2TParams params;
    params.SetSigma(sigma).SetEpsilon(eps);
    params.use_index = env.use_index;
    core::S2TClustering s2t(params);
    HERMES_ASSIGN_OR_RETURN(core::S2TResult result, s2t.Run(store, env.exec));
    // A live context records the s2t_* phases itself (S2TClustering::Run);
    // exporting here too would double-count them in SHOW STATS.
    if (env.exec == nullptr && env.session_stats != nullptr) {
      result.timings.ExportTo(env.session_stats);
    }

    if (function == "S2T") {
      Table table;
      table.columns = {{"cluster_id", ValueType::kInt},
                       {"size", ValueType::kInt},
                       {"rep_object", ValueType::kInt},
                       {"start", ValueType::kDouble},
                       {"end", ValueType::kDouble}};
      for (size_t ci = 0; ci < result.clustering.clusters.size(); ++ci) {
        const auto& c = result.clustering.clusters[ci];
        const auto& rep = result.sub_trajectories[c.representative];
        table.rows.push_back(
            {Value::Int(static_cast<int64_t>(ci)),
             Value::Int(static_cast<int64_t>(c.members.size())),
             Value::Int(static_cast<int64_t>(rep.object_id)),
             Value::Double(rep.StartTime()), Value::Double(rep.EndTime())});
      }
      table.rows.push_back(
          {Value::Str("outliers"),
           Value::Int(static_cast<int64_t>(result.clustering.outliers.size())),
           Value::Null(), Value::Null(), Value::Null()});
      return MakeTableCursor(std::move(table));
    }

    // S2T_MEMBERS: one row per cluster member (clusters in order), then
    // one per outlier with a NULL cluster_id. The clustering ran eagerly
    // above (it is the dominant cost); rows materialize on demand.
    struct MembersState {
      core::S2TResult result;
      std::shared_ptr<const traj::TrajectoryStore> snap;  // Keeps the pin.
      size_t ci = 0, mi = 0, oi = 0;
    };
    auto state = std::make_shared<MembersState>();
    state->result = std::move(result);
    state->snap = env.store;
    GeneratorCursor::Generator gen =
        [state](std::vector<Value>* row) -> StatusOr<bool> {
      const auto& r = state->result;
      auto fill = [&](Value cluster_id, size_t sub_index) {
        const traj::SubTrajectory& sub = r.sub_trajectories[sub_index];
        *row = {std::move(cluster_id),
                Value::Int(static_cast<int64_t>(sub.object_id)),
                Value::Double(sub.StartTime()), Value::Double(sub.EndTime()),
                Value::Int(static_cast<int64_t>(sub.points.size()))};
      };
      while (state->ci < r.clustering.clusters.size()) {
        const auto& c = r.clustering.clusters[state->ci];
        if (state->mi < c.members.size()) {
          fill(Value::Int(static_cast<int64_t>(state->ci)),
               c.members[state->mi++]);
          return true;
        }
        ++state->ci;
        state->mi = 0;
      }
      if (state->oi < r.clustering.outliers.size()) {
        fill(Value::Null(), r.clustering.outliers[state->oi++]);
        return true;
      }
      return false;
    };
    return std::unique_ptr<RowCursor>(std::make_unique<GeneratorCursor>(
        std::vector<Column>{{"cluster_id", ValueType::kInt},
                            {"object_id", ValueType::kInt},
                            {"start", ValueType::kDouble},
                            {"end", ValueType::kDouble},
                            {"points", ValueType::kInt}},
        std::move(gen)));
  }

  if (function == "TRACLUS") {
    if (args.size() != 2) {
      return Status::InvalidArgument("TRACLUS(D, eps, min_lns) takes 2 numbers" +
                                     at);
    }
    baselines::TraclusParams params;
    params.eps = args[0];
    params.min_lns = static_cast<size_t>(args[1]);
    const baselines::TraclusResult result =
        baselines::RunTraclus(store, params);
    Table table;
    table.columns = {{"cluster_id", ValueType::kInt},
                     {"segments", ValueType::kInt},
                     {"trajectories", ValueType::kInt},
                     {"rep_points", ValueType::kInt}};
    for (size_t ci = 0; ci < result.clusters.size(); ++ci) {
      const auto& c = result.clusters[ci];
      table.rows.push_back(
          {Value::Int(static_cast<int64_t>(ci)),
           Value::Int(static_cast<int64_t>(c.segment_indices.size())),
           Value::Int(static_cast<int64_t>(c.distinct_trajectories)),
           Value::Int(static_cast<int64_t>(c.representative.size()))});
    }
    table.rows.push_back(
        {Value::Str("noise"),
         Value::Int(static_cast<int64_t>(result.noise.size())), Value::Null(),
         Value::Null()});
    return MakeTableCursor(std::move(table));
  }

  if (function == "TOPTICS") {
    if (args.size() != 2) {
      return Status::InvalidArgument("TOPTICS(D, eps, min_pts) takes 2 numbers" +
                                     at);
    }
    baselines::TOpticsParams params;
    params.eps = args[0];
    params.min_pts = static_cast<size_t>(args[1]);
    const baselines::TOpticsResult result =
        baselines::RunTOptics(store, params);
    Table table;
    table.columns = {{"cluster_id", ValueType::kInt},
                     {"trajectories", ValueType::kInt}};
    std::vector<size_t> sizes(result.num_clusters, 0);
    size_t noise = 0;
    for (int label : result.labels) {
      if (label >= 0) {
        ++sizes[label];
      } else {
        ++noise;
      }
    }
    for (size_t ci = 0; ci < sizes.size(); ++ci) {
      table.rows.push_back({Value::Int(static_cast<int64_t>(ci)),
                            Value::Int(static_cast<int64_t>(sizes[ci]))});
    }
    table.rows.push_back(
        {Value::Str("noise"), Value::Int(static_cast<int64_t>(noise))});
    return MakeTableCursor(std::move(table));
  }

  if (function == "CONVOYS") {
    if (args.size() != 4) {
      return Status::InvalidArgument(
          "CONVOYS(D, eps, m, k, dt) takes 4 numbers" + at);
    }
    baselines::ConvoyParams params;
    params.eps = args[0];
    params.m = static_cast<size_t>(args[1]);
    params.k = static_cast<size_t>(args[2]);
    params.snapshot_dt = args[3];
    const auto convoys = baselines::DiscoverConvoys(store, params);
    Table table;
    table.columns = {{"convoy_id", ValueType::kInt},
                     {"objects", ValueType::kInt},
                     {"start", ValueType::kDouble},
                     {"end", ValueType::kDouble}};
    for (size_t ci = 0; ci < convoys.size(); ++ci) {
      table.rows.push_back(
          {Value::Int(static_cast<int64_t>(ci)),
           Value::Int(static_cast<int64_t>(convoys[ci].objects.size())),
           Value::Double(convoys[ci].start_time),
           Value::Double(convoys[ci].end_time)});
    }
    return MakeTableCursor(std::move(table));
  }

  return Status::NotSupported("unknown function " + function + at);
}

std::unique_ptr<RowCursor> MakeQutCursor(const core::QuTResult& result,
                                         double wi, double we,
                                         exec::ExecStats* session_stats) {
  if (session_stats != nullptr) {
    session_stats->RecordPhaseUs("qut_query", result.stats.elapsed_us);
  }
  Table table;
  table.columns = {{"cluster_id", ValueType::kInt},
                   {"pieces", ValueType::kInt},
                   {"members", ValueType::kInt},
                   {"start", ValueType::kDouble},
                   {"end", ValueType::kDouble}};
  for (size_t ci = 0; ci < result.clusters.size(); ++ci) {
    const auto& c = result.clusters[ci];
    table.rows.push_back(
        {Value::Int(static_cast<int64_t>(ci)),
         Value::Int(static_cast<int64_t>(c.representatives.size())),
         Value::Int(static_cast<int64_t>(c.members.size())),
         Value::Double(c.StartTime()), Value::Double(c.EndTime())});
  }
  table.rows.push_back(
      {Value::Str("outliers"), Value::Null(),
       Value::Int(static_cast<int64_t>(result.outliers.size())),
       Value::Double(wi), Value::Double(we)});
  return MakeTableCursor(std::move(table));
}

}  // namespace hermes::sql
