// analytics: one embedded sql::Session, one client, six MODs (two each of
// aircraft, maritime and urban). A round runs, per MOD in a fixed order,
// S2T_MEMBERS, a QUT sweep over 5 / 25 / 100 % windows and 5 % RANGEs. The hot-tier
// budget is a quarter of what the warm trees hold, so QUT reads mix the
// in-memory tier with the heap + GiST cold tier.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "clustering/greedy_clustering.h"
#include "core/qut_clustering.h"
#include "core/retratree.h"
#include "core/s2t_clustering.h"
#include "rtree/str_bulk_load.h"
#include "sampling/saco_sampling.h"
#include "segmentation/nats.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/query_functions.h"
#include "trace.h"
#include "traj/segment_arena.h"
#include "voting/voting.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hermes::sql::Session;
using hermes::sql::Table;
using hermes::sql::Value;
using hermes::sql::ValueType;

// Sizes: many objects sampled coarsely, and two MODs per domain, so the
// run's cost varies little with the seed; S2T_MEMBERS takes about the
// same time (~60 ms on a 4-vCPU VM) on each MOD, so the rotation's
// percentiles do not sit between modes.
constexpr int kModsPerDomain = 2;
constexpr size_t kFlights = 200;
constexpr double kFlightDt = 40.0;
constexpr size_t kFlightPoints = 3500;
constexpr size_t kShips = 125;
constexpr double kShipDt = 240.0;
constexpr size_t kShipPoints = 4500;
constexpr size_t kVehicles = 300;
constexpr double kVehicleDt = 20.0;
constexpr size_t kVehiclePoints = 2800;
constexpr double kQutGamma = 8;
const double kQutWindows[] = {0.05, 0.25, 1.0};
/// QUT windows per narrow size (at different positions): more windows
/// average out how the seed places clusters in time.
constexpr size_t kWindowsPerSize = 2;
constexpr double kRangeWindow = 0.05;
/// Centres of the RANGE windows, as fractions of the time domain.
const double kRangeCentres[] = {0.3, 0.4, 0.5, 0.6};
/// Rounds per second of --seconds: the run does fixed work, sized so that
/// it takes about --seconds on a 4-vCPU VM.
constexpr double kRoundsPerSecond = 2.0;

struct Mod {
  std::string name;
  Domain domain;
  std::vector<double> tree_params;
  std::string s2t_sql;
  std::vector<std::pair<double, double>> qut_windows;
  std::vector<std::string> qut_sql;
  std::vector<std::string> range_sql;
  std::vector<std::pair<int64_t, int64_t>> range_expected;
};

struct State {
  std::unique_ptr<CountingEnv> env;
  std::unique_ptr<Session> session;
  std::vector<Mod> mods;
  int64_t budget = 0;
};

int64_t ShowStat(Session* s, const std::string& name) {
  auto t = s->Execute("SHOW STATS;");
  if (!t.ok()) return -1;
  for (const auto& row : t->rows) {
    if (row.size() >= 2 && row[0].type() == ValueType::kString &&
        row[0].AsString() == name && row[1].is_numeric()) {
      return row[1].AsInt();
    }
  }
  return -1;
}

/// Builds the three MODs, registers them, builds every QUT tree with the
/// full hot tier, then shrinks the budget to a quarter of the average tree.
std::unique_ptr<State> Setup(uint64_t seed, Checks* checks) {
  auto st = std::make_unique<State>();
  st->env = std::make_unique<CountingEnv>(hermes::storage::Env::NewMemEnv());
  st->session = std::make_unique<Session>(st->env.get(), "hermes_data");
  std::vector<Domain> domains;
  // Bandwidths that form clusters in each domain; tau ~ a quarter of its
  // time span.
  for (int k = 0; k < kModsPerDomain; ++k) {
    const uint64_t s = seed * 10 + static_cast<uint64_t>(k) * 3;
    const std::string n = std::to_string(k);
    domains.push_back({"AIR" + n,
                       TakePoints(MakeAircraft(kFlights, kFlightDt, s + 1),
                                  kFlightPoints),
                       1500.0, 3000.0, 1200.0});
    domains.push_back({"SEA" + n,
                       TakePoints(MakeMaritime(kShips, kShipDt, s + 2),
                                  kShipPoints),
                       800.0, 1600.0, 6400.0});
    domains.push_back({"CITY" + n,
                       TakePoints(MakeUrban(kVehicles, kVehicleDt, s + 3),
                                  kVehiclePoints),
                       300.0, 600.0, 520.0});
  }
  for (Domain& d : domains) {
    Mod m;
    m.name = d.name;
    m.tree_params = QutTreeParams(d.tau, d.epsilon, kQutGamma);
    m.s2t_sql = "SELECT S2T_MEMBERS(" + d.name + ", " + Num(d.sigma) + ", " +
                Num(d.epsilon) + ");";
    const auto [t0, t1] = d.store.TimeDomain();
    for (double c : kRangeCentres) {
      const double lo = t0 + (t1 - t0) * (c - 0.5 * kRangeWindow);
      const double hi = lo + kRangeWindow * (t1 - t0);
      m.range_sql.push_back(RangeSql(d.name, lo, hi));
      m.range_expected.push_back(BruteForceRange(d.store, lo, hi));
    }
    checks->Record("setup.register",
                   st->session->RegisterStore(d.name, d.store).ok());
    // The full-window QUT builds the tree and promotes every partition.
    checks->Record("setup.qut_build", st->session
                                          ->Execute(QutSql(d.name, t0, t1,
                                                           m.tree_params))
                                          .ok());
    for (double f : kQutWindows) {
      const auto windows = PickQutWindows(
          d.store, f, kWindowsPerSize, [&](double lo, double hi) {
            auto q =
                st->session->Execute(QutSql(d.name, lo, hi, m.tree_params));
            return q.ok() ? QutClusterRows(*q) : 0;
          });
      for (const auto& w : windows) {
        m.qut_windows.push_back(w);
        m.qut_sql.push_back(QutSql(d.name, w.first, w.second, m.tree_params));
      }
    }
    m.domain = std::move(d);
    st->mods.push_back(std::move(m));
  }
  // SHOW STATS sums hot_index_bytes over the warm trees.
  const int64_t total_hot = ShowStat(st->session.get(), "hot_index_bytes");
  st->budget = std::max<int64_t>(
      1, total_hot / static_cast<int64_t>(st->mods.size()) / 4);
  checks->Record("setup.hot_budget",
                 total_hot > 0 &&
                     st->session
                         ->Execute("SET hermes.hot_index_budget = " +
                                   std::to_string(st->budget) + ";")
                         .ok());
  return st;
}

/// S2T_MEMBERS rows built from a pipeline result, exactly as the SQL
/// function lays them out.
Table MembersTable(const hermes::core::S2TResult& r) {
  Table t;
  t.columns = {{"cluster_id", ValueType::kInt},
               {"object_id", ValueType::kInt},
               {"start", ValueType::kDouble},
               {"end", ValueType::kDouble},
               {"points", ValueType::kInt}};
  auto row = [&](Value cid, size_t i) {
    const auto& sub = r.sub_trajectories[i];
    t.rows.push_back({std::move(cid),
                      Value::Int(static_cast<int64_t>(sub.object_id)),
                      Value::Double(sub.StartTime()),
                      Value::Double(sub.EndTime()),
                      Value::Int(static_cast<int64_t>(sub.points.size()))});
  };
  for (size_t ci = 0; ci < r.clustering.clusters.size(); ++ci) {
    for (size_t m : r.clustering.clusters[ci].members) {
      row(Value::Int(static_cast<int64_t>(ci)), m);
    }
  }
  for (size_t o : r.clustering.outliers) row(Value::Null(), o);
  return t;
}

/// The S2T pipeline run phase by phase through each layer's public entry
/// point (sequential, as S2T_MEMBERS runs with hermes.threads = 1).
hermes::StatusOr<hermes::core::S2TResult> DecomposedS2T(const Domain& d,
                                                        Tracer* tr,
                                                        uint64_t stmt) {
  namespace hc = hermes::core;
  hc::S2TParams p;
  p.SetSigma(d.sigma).SetEpsilon(d.epsilon);
  hc::S2TResult r;
  hermes::traj::SegmentArena arena;
  {
    Tracer::Scope s(tr, "traj.arena_build", stmt);
    arena = hermes::traj::SegmentArena::Build(d.store, nullptr);
  }
  auto env = hermes::storage::Env::NewMemEnv();
  std::unique_ptr<hermes::rtree::RTree3D> index;
  {
    Tracer::Scope s(tr, "rtree.index_build", stmt);
    HERMES_ASSIGN_OR_RETURN(
        index, hermes::rtree::BuildSegmentIndex(env.get(), "s2t.idx", arena,
                                                0.9, 512, nullptr));
  }
  const hermes::voting::IndexProbeSource probe{env.get(), "s2t.idx", 512};
  {
    Tracer::Scope s(tr, "voting", stmt);
    HERMES_ASSIGN_OR_RETURN(
        r.voting, hermes::voting::ComputeVotingIndexed(
                      arena, d.store, *index, p.voting, nullptr, &probe));
  }
  {
    Tracer::Scope s(tr, "segmentation", stmt);
    r.sub_trajectories = hermes::segmentation::SegmentStore(
        d.store, r.voting, p.segmentation, nullptr, nullptr);
  }
  {
    Tracer::Scope s(tr, "sampling", stmt);
    r.representatives = hermes::sampling::SelectRepresentatives(
        r.sub_trajectories, p.sampling);
  }
  {
    Tracer::Scope s(tr, "clustering", stmt);
    r.clustering = hermes::clustering::ClusterAroundRepresentatives(
        r.sub_trajectories, r.representatives, p.clustering);
  }
  return r;
}

/// Reference results each statement is checked against: the first answer
/// of each statement (later repeats must equal it) plus the oracles.
struct Expected {
  std::vector<uint64_t> s2t;                // Per MOD.
  std::vector<std::vector<uint64_t>> qut;   // Per MOD, per window.
};

struct Loop {
  Samples s2t, qut, range;
  uint64_t statements = 0;
  double wall_s = 0;
};

bool SameOrFirst(uint64_t* slot, uint64_t h) {
  if (*slot == 0) *slot = h;
  return *slot == h;
}

/// One round of the statement rotation through the SQL surface.
void Round(State* st, Expected* exp, Loop* loop, Checks* checks) {
  Session* s = st->session.get();
  for (size_t mi = 0; mi < st->mods.size(); ++mi) {
    const Mod& m = st->mods[mi];
    int64_t t0 = NowNs();
    auto members = s->Execute(m.s2t_sql);
    loop->s2t.Add(MsSince(t0));
    checks->Record("s2t_members", members.ok() &&
                                      SameOrFirst(&exp->s2t[mi],
                                                  TableHash(*members)),
                   m.name);
    for (size_t w = 0; w < m.qut_sql.size(); ++w) {
      t0 = NowNs();
      auto qut = s->Execute(m.qut_sql[w]);
      loop->qut.Add(MsSince(t0));
      checks->Record("qut",
                     qut.ok() && QutClusterRows(*qut) >= 1 &&
                         SameOrFirst(&exp->qut[mi][w], TableHash(*qut)),
                     m.qut_sql[w]);
    }
    for (size_t r = 0; r < m.range_sql.size(); ++r) {
      t0 = NowNs();
      auto range = s->Execute(m.range_sql[r]);
      loop->range.Add(MsSince(t0));
      checks->Record("range", RangeMatches(range, m.range_expected[r]),
                     m.range_sql[r]);
    }
    loop->statements += 1 + m.qut_sql.size() + m.range_sql.size();
  }
}

/// After the timed phase: S2T_MEMBERS equals the phase-by-phase pipeline,
/// and QUT answers equal with the hot tier on and off.
void Verify(State* st, const Expected& exp, Checks* checks) {
  for (size_t mi = 0; mi < st->mods.size(); ++mi) {
    const Mod& m = st->mods[mi];
    auto r = DecomposedS2T(m.domain, nullptr, 0);
    checks->Record("verify.s2t_equals_phases",
                   r.ok() && TableHash(MembersTable(*r)) == exp.s2t[mi],
                   m.name);
  }
  Session* s = st->session.get();
  checks->Record("verify.hot_off",
                 s->Execute("SET hermes.hot_index_budget = 0;").ok());
  for (size_t mi = 0; mi < st->mods.size(); ++mi) {
    for (size_t w = 0; w < st->mods[mi].qut_sql.size(); ++w) {
      auto q = s->Execute(st->mods[mi].qut_sql[w]);
      checks->Record("verify.qut_hot_equals_cold",
                     q.ok() && TableHash(*q) == exp.qut[mi][w],
                     st->mods[mi].qut_sql[w]);
    }
  }
  checks->Record("verify.hot_on",
                 s->Execute("SET hermes.hot_index_budget = " +
                            std::to_string(st->budget) + ";")
                     .ok());
}

/// Traced run: the same rotation, each statement followed by its
/// decomposition through the layers' public functions. Rounds alternate
/// between recording spans and not, so the wall-time difference between
/// the two kinds of round is the tracing overhead.
void TracedRun(const Options& opt, State* st, Expected* exp, RunResult* out) {
  Checks* checks = &out->checks;
  Tracer tr(true);
  // The decomposition's own QUT trees, with the session's parameters and
  // budget, read through QuTClustering::Query directly.
  std::vector<std::unique_ptr<hermes::core::ReTraTree>> trees;
  for (const Mod& m : st->mods) {
    auto tree = hermes::core::ReTraTree::Open(
        st->env.get(), "probe_" + m.name,
        hermes::sql::MakeQutTreeParams(m.tree_params));
    checks->Record("trace.tree_open", tree.ok());
    if (!tree.ok()) return;
    checks->Record("trace.tree_build",
                   (*tree)->InsertStore(m.domain.store).ok());
    (*tree)->SetHotIndexBudget(static_cast<size_t>(st->budget));
    trees.push_back(std::move(*tree));
  }
  std::vector<double> round_ms[2];
  double s2t_wall = 0, s2t_phases = 0, pairs = 0;
  uint64_t s2t_n = 0, qut_n = 0, pages = 0, hot = 0, cold = 0;
  uint64_t stmt = 0;
  // Half the untraced run's rounds: each traced round also runs the
  // decomposition, so the run takes about as long.
  const int rounds =
      std::max(4, static_cast<int>(opt.seconds * kRoundsPerSecond / 2));
  const int64_t t0 = NowNs();
  for (int round = 0; round < rounds && !PastCap(t0); ++round) {
    const bool on = round % 2 == 0;
    tr.set_enabled(on);
    const int64_t r0 = NowNs();
    for (size_t mi = 0; mi < st->mods.size(); ++mi) {
      const Mod& m = st->mods[mi];
      std::vector<std::string> texts = {m.s2t_sql};
      texts.insert(texts.end(), m.qut_sql.begin(), m.qut_sql.end());
      texts.insert(texts.end(), m.range_sql.begin(), m.range_sql.end());
      for (const auto& text : texts) {
        Tracer::Scope s(&tr, "sql.parse", ++stmt);
        checks->Record("trace.parse", hermes::sql::ParseStatement(text).ok());
      }
      double wall = 0;
      uint64_t members_hash = 0;
      {
        Tracer::Scope s(&tr, "stmt.s2t_members", ++stmt);
        auto members = st->session->Execute(m.s2t_sql);
        wall = s.ElapsedMs();
        if (members.ok()) members_hash = TableHash(*members);
      }
      double phases = 0;
      uint64_t phases_hash = 1;
      uint64_t pairs_evaluated = 0;
      {
        Tracer::Scope s(&tr, "s2t.phases", stmt);
        auto r = DecomposedS2T(m.domain, &tr, stmt);
        phases = s.ElapsedMs();
        if (r.ok()) {
          phases_hash = TableHash(MembersTable(*r));
          pairs_evaluated = r->voting.pairs_evaluated;
        }
      }
      checks->Record("trace.s2t_equals_phases",
                     members_hash == phases_hash &&
                         SameOrFirst(&exp->s2t[mi], members_hash),
                     m.name);
      if (on) {
        s2t_wall += wall;
        s2t_phases += phases;
        pairs += static_cast<double>(pairs_evaluated);
        ++s2t_n;
      }
      for (size_t w = 0; w < m.qut_sql.size(); ++w) {
        {
          Tracer::Scope s(&tr, "stmt.qut", ++stmt);
          auto q = st->session->Execute(m.qut_sql[w]);
          checks->Record("qut",
                         q.ok() && QutClusterRows(*q) >= 1 &&
                             SameOrFirst(&exp->qut[mi][w], TableHash(*q)),
                         m.qut_sql[w]);
        }
        const auto io0 = trees[mi]->cold_io_stats();
        const auto hs0 = trees[mi]->hot_stats();
        {
          Tracer::Scope s(&tr, "core.qut_query", stmt);
          hermes::core::QuTClustering qut(trees[mi].get());
          const auto [lo, hi] = m.qut_windows[w];
          auto q = qut.Query(lo, hi);
          checks->Record("trace.qut_query",
                         q.ok() && !q->clusters.empty(), m.name);
        }
        const auto io1 = trees[mi]->cold_io_stats();
        const auto hs1 = trees[mi]->hot_stats();
        if (on) {
          ++qut_n;
          pages += (io1.heap_page_fetches - io0.heap_page_fetches) +
                   (io1.index_page_fetches - io0.index_page_fetches);
          hot += hs1.qut_hot_probes - hs0.qut_hot_probes;
          cold += hs1.qut_cold_probes - hs0.qut_cold_probes;
        }
      }
      for (size_t r = 0; r < m.range_sql.size(); ++r) {
        Tracer::Scope s(&tr, "stmt.range", ++stmt);
        auto range = st->session->Execute(m.range_sql[r]);
        checks->Record("range", RangeMatches(range, m.range_expected[r]),
                       m.range_sql[r]);
      }
    }
    round_ms[on ? 1 : 0].push_back(MsSince(r0));
  }

  const auto agg = Aggregate({&tr});
  auto mean_ms = [&agg](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / it->second.count;
  };
  Report& rep = out->report;
  rep.Set("sql.parse_us", mean_ms("sql.parse") * 1e3, "us");
  rep.Set("traj.arena_build_ms", mean_ms("traj.arena_build"), "ms");
  rep.Set("rtree.index_build_ms", mean_ms("rtree.index_build"), "ms");
  rep.Set("voting.ms", mean_ms("voting"), "ms");
  rep.Set("segmentation.ms", mean_ms("segmentation"), "ms");
  rep.Set("sampling.ms", mean_ms("sampling"), "ms");
  rep.Set("clustering.ms", mean_ms("clustering"), "ms");
  rep.Set("voting.candidate_pairs", s2t_n ? pairs / s2t_n : 0, "count");
  rep.Set("s2t.unattributed_ms", s2t_n ? (s2t_wall - s2t_phases) / s2t_n : 0,
          "ms");
  const double coverage = s2t_wall > 0 ? 100.0 * s2t_phases / s2t_wall : 0;
  rep.Set("s2t.coverage_pct", coverage, "%");
  // The phases are a separate execution of the same work, so they may
  // read slightly above or below the statement's wall.
  checks->Record("trace.s2t_coverage", coverage >= 90.0 && coverage <= 110.0,
                 std::to_string(coverage));
  rep.Set("core.qut_query_us", mean_ms("core.qut_query") * 1e3, "us");
  rep.Set("core.qut_hot_probes", qut_n ? static_cast<double>(hot) / qut_n : 0,
          "count");
  rep.Set("core.qut_cold_probes",
          qut_n ? static_cast<double>(cold) / qut_n : 0, "count");
  rep.Set("core.hot_hit_ratio",
          hot + cold ? static_cast<double>(hot) / (hot + cold) : 0, "ratio");
  rep.Set("storage.pages_read", qut_n ? static_cast<double>(pages) / qut_n : 0,
          "count");
  // Bytes the cold tier stores, from the decomposition's trees (the same
  // build as the session's) once flushed.
  uint64_t points = 0;
  for (const Mod& m : st->mods) points += m.domain.store.NumPoints();
  for (const auto& tree : trees) {
    checks->Record("trace.tree_flush", tree->Flush().ok());
  }
  rep.Set("storage.stored_bytes_per_user_byte",
          static_cast<double>(st->env->BytesUnder("probe_")) /
              (32.0 * static_cast<double>(points)),
          "ratio");
  const double off = Median(round_ms[0]);
  const double on = Median(round_ms[1]);
  rep.Set("trace.overhead_ms", on - off, "ms");
  rep.Set("trace.overhead_pct", off > 0 ? 100.0 * (on - off) / off : 0, "%");
  WriteSpans(opt.trace_dir + "/analytics.tsv", {&tr});
}

}  // namespace

RunResult RunAnalytics(const Options& opt) {
  RunResult out;
  std::unique_ptr<State> st;
  Checks setup_checks;
  const double setup_s = TimeSetups([&] {
    st.reset();
    setup_checks = Checks();
    st = Setup(opt.seed, &setup_checks);
  });
  out.checks.Merge(setup_checks);
  Expected exp;
  exp.s2t.assign(st->mods.size(), 0);
  for (const Mod& m : st->mods) exp.qut.emplace_back(m.qut_sql.size(), 0);

  if (opt.trace) {
    TracedRun(opt, st.get(), &exp, &out);
    Verify(st.get(), exp, &out.checks);
    return out;
  }

  Loop loop;
  const int rounds =
      std::max(4, static_cast<int>(opt.seconds * kRoundsPerSecond));
  const int64_t t0 = NowNs();
  for (int r = 0; r < rounds && !PastCap(t0); ++r) {
    Round(st.get(), &exp, &loop, &out.checks);
  }
  loop.wall_s = (NowNs() - t0) / 1e9;
  Verify(st.get(), exp, &out.checks);

  Report& rep = out.report;
  rep.Set("setup_s", setup_s, "s");
  rep.Set("stmts_per_s", loop.statements / loop.wall_s, "1/s");
  ReportLatency("work", loop.s2t, &rep);
  ReportLatency("qut", loop.qut, &rep);
  ReportLatency("range", loop.range, &rep);
  rep.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "analytics: %zu S2T_MEMBERS, %zu QUT, %zu RANGE in %.1f s\n",
               loop.s2t.size(), loop.qut.size(), loop.range.size(),
               loop.wall_s);
  return out;
}

}  // namespace perfbench
