// ingest: a durable in-process service::Server (WAL and data in an
// in-memory Env, so fsync costs nothing and the run writes no files). One
// writer session commits fixed groups of whole aircraft trajectories: a
// prepared all-placeholder INSERT per group, then FLUSH — one group commit
// per FLUSH. The QUT tree is live from set-up, so every drain runs
// ReTraTree::InsertBatch. One reader session runs narrow QUT and RANGE
// beside the writer.
//
// The data is a base block (loaded in set-up, where the reader's windows
// lie) and a stream of independently generated blocks, each shifted later
// in time by a whole number of QUT chunks, so the stream keeps opening new
// chunks like a live feed and the reader's answers do not change. Many
// blocks, not one block replayed, so the seed's effect averages out.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/retratree.h"
#include "service/client_session.h"
#include "service/server.h"
#include "sql/parser.h"
#include "sql/query_functions.h"
#include "trace.h"
#include "wal/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hermes::sql::Table;
using hermes::sql::Value;
using hermes::traj::Trajectory;
using hermes::traj::TrajectoryStore;

constexpr char kMod[] = "FLEET";
constexpr size_t kBlockFlights = 180;
constexpr double kFlightDt = 10.0;
constexpr size_t kBlockPoints = 12000;
/// Stream blocks generated in set-up (about 50 commits each), cycled with
/// growing shifts if a run commits more.
constexpr size_t kStreamBlocks = 48;
constexpr size_t kScheduledCommits = 4096;
/// Points per INSERT stay under the 999-placeholder limit (4 per point).
constexpr size_t kMaxGroupPoints = 240;
constexpr double kEpsilon = 3000.0;
constexpr double kTau = 1200.0;
constexpr double kQutGamma = 4;
constexpr double kReaderWindow = 0.05;
/// Reader window positions: several, so the answer sizes average out.
constexpr size_t kReaderWindows = 6;
constexpr double kReaderPeriodMs = 4.0;
constexpr int kRestarts = 3;
/// Commits per second of --seconds: the run does fixed work, sized so that
/// it takes about --seconds on a 4-vCPU VM.
constexpr double kCommitsPerSecond = 80.0;

/// One INSERT: a run of whole flights from a block.
struct Group {
  size_t first = 0;  ///< Block index of the first flight.
  size_t count = 0;
  size_t points = 0;
};

struct Block {
  TrajectoryStore data;
  std::vector<Group> groups;
};

/// Commit number n sends `group` of `block`, shifted by `shift` cycles.
struct Scheduled {
  uint32_t block;
  uint32_t group;
  uint32_t shift;
};

struct State {
  std::unique_ptr<CountingEnv> env;
  hermes::service::ServerOptions options;
  std::unique_ptr<hermes::service::Server> server;
  std::unique_ptr<hermes::service::ClientSession> writer;
  std::unique_ptr<hermes::service::ClientSession> reader;
  /// blocks[0] is the base; the rest are the stream.
  std::vector<Block> blocks;
  std::vector<Scheduled> schedule;
  size_t base_commits = 0;
  /// Prepared INSERT per group size in points (the statement shape).
  std::map<size_t, hermes::sql::PreparedStatement> inserts;
  std::map<size_t, hermes::sql::Statement> parsed;
  std::vector<double> tree_params;
  double cycle_shift = 0;
  /// The reader's windows over the base: QUT and RANGE on each.
  std::vector<std::string> qut_sql, range_sql;
  std::vector<std::pair<int64_t, int64_t>> range_expected;
  uint64_t acked_trajectories = 0;
  uint64_t acked_points = 0;
  uint64_t next_commit = 0;  ///< Index into `schedule`.
};

std::string InsertSql(size_t points) {
  std::string sql = "INSERT INTO " + std::string(kMod) + " VALUES ";
  for (size_t i = 0; i < points; ++i) {
    if (i > 0) sql += ", ";
    const size_t b = 4 * i;
    sql += "($" + std::to_string(b + 1) + ", $" + std::to_string(b + 2) +
           ", $" + std::to_string(b + 3) + ", $" + std::to_string(b + 4) + ")";
  }
  return sql + ";";
}

const Group& GroupOf(const State& st, uint64_t n) {
  const Scheduled& c = st.schedule[n];
  return st.blocks[c.block].groups[c.group];
}

/// The bind values of commit `n`.
std::vector<Value> GroupBinds(const State& st, uint64_t n) {
  const Scheduled& c = st.schedule[n];
  const Block& b = st.blocks[c.block];
  const Group& g = b.groups[c.group];
  const double shift = static_cast<double>(c.shift) * st.cycle_shift;
  std::vector<Value> binds;
  binds.reserve(4 * g.points);
  for (size_t i = g.first; i < g.first + g.count; ++i) {
    const Trajectory& t = b.data.Get(i);
    const auto oid = static_cast<int64_t>(c.shift) * 1000000 +
                     static_cast<int64_t>(i);
    for (const auto& p : t.samples()) {
      binds.push_back(Value::Int(oid));
      binds.push_back(Value::Double(p.t + shift));
      binds.push_back(Value::Double(p.x));
      binds.push_back(Value::Double(p.y));
    }
  }
  return binds;
}

/// Commits group `n` through the writer session: INSERT, then FLUSH.
bool CommitGroup(State* st, uint64_t n, Checks* checks) {
  const Group& g = GroupOf(*st, n);
  hermes::sql::PreparedStatement& ins = st->inserts.at(g.points);
  const std::vector<Value> binds = GroupBinds(*st, n);
  bool ok = true;
  for (size_t i = 0; i < binds.size() && ok; ++i) {
    ok = ins.Bind(static_cast<int>(i + 1), binds[i]).ok();
  }
  ok = ok && ins.Execute().ok();
  ok = ok && st->writer->Execute("FLUSH;").ok();
  checks->Record("commit", ok);
  if (ok) {
    st->acked_trajectories += g.count;
    st->acked_points += g.points;
  }
  return ok;
}

/// The same commit, decomposed into the calls ClientSession makes, each
/// under its own span.
bool CommitGroupTraced(State* st, uint64_t n, Tracer* tr, Checks* checks) {
  const Group& g = GroupOf(*st, n);
  const std::vector<Value> binds = GroupBinds(*st, n);
  bool ok = true;
  std::vector<Trajectory> batch;
  {
    Tracer::Scope s(tr, "sql.build_insert", n);
    auto b =
        hermes::sql::BuildInsertTrajectories(st->parsed.at(g.points), binds);
    ok = b.ok();
    if (ok) batch = std::move(*b);
  }
  {
    Tracer::Scope s(tr, "service.enqueue", n);
    ok = ok && st->server->EnqueueInsert(kMod, std::move(batch)).ok();
  }
  {
    Tracer::Scope s(tr, "service.flush_wait", n);
    ok = ok && st->server->Flush().ok();
  }
  checks->Record("commit", ok);
  if (ok) {
    st->acked_trajectories += g.count;
    st->acked_points += g.points;
  }
  return ok;
}

std::unique_ptr<State> Setup(uint64_t seed, Checks* checks) {
  auto st = std::make_unique<State>();
  st->env = std::make_unique<CountingEnv>(hermes::storage::Env::NewMemEnv());
  st->options.threads = 1;
  st->options.data_dir = "data";
  st->options.wal_dir = "wal";
  auto server = hermes::service::Server::Start(st->options, st->env.get());
  if (!checks->Record("setup.server_start", server.ok())) return nullptr;
  st->server = std::move(*server);
  st->writer = st->server->Connect();
  st->reader = st->server->Connect();

  for (size_t b = 0; b <= kStreamBlocks; ++b) {
    Block block;
    block.data = TakePoints(
        MakeAircraft(kBlockFlights, kFlightDt, seed * 1000 + b), kBlockPoints);
    for (size_t i = 0; i < block.data.NumTrajectories();) {
      Group g;
      g.first = i;
      while (i < block.data.NumTrajectories() &&
             (g.count == 0 ||
              g.points + block.data.Get(i).size() <= kMaxGroupPoints)) {
        g.points += block.data.Get(i).size();
        ++g.count;
        ++i;
      }
      block.groups.push_back(g);
    }
    st->blocks.push_back(std::move(block));
  }
  // The base block, then the stream blocks in turn, each one cycle later.
  for (uint32_t g = 0; g < st->blocks[0].groups.size(); ++g) {
    st->schedule.push_back({0, g, 0});
  }
  st->base_commits = st->schedule.size();
  for (uint32_t shift = 1;
       st->schedule.size() < st->base_commits + kScheduledCommits; ++shift) {
    const uint32_t b = 1 + (shift - 1) % kStreamBlocks;
    for (uint32_t g = 0; g < st->blocks[b].groups.size(); ++g) {
      st->schedule.push_back({b, g, shift});
    }
  }
  for (const Block& block : st->blocks) {
    for (const Group& g : block.groups) {
      if (st->inserts.count(g.points)) continue;
      const std::string sql = InsertSql(g.points);
      auto prep = st->writer->Prepare(sql);
      auto parsed = hermes::sql::ParseStatement(sql);
      if (!checks->Record("setup.prepare", prep.ok() && parsed.ok())) {
        return nullptr;
      }
      st->inserts.emplace(g.points, std::move(*prep));
      st->parsed.emplace(g.points, std::move(*parsed));
    }
  }

  // Every block spans about the same time domain from 0; a shift of one
  // cycle moves a block past all of them.
  double t1 = 0;
  for (const Block& block : st->blocks) {
    t1 = std::max(t1, block.data.TimeDomain().second);
  }
  const TrajectoryStore& base = st->blocks[0].data;
  st->tree_params = QutTreeParams(kTau, kEpsilon, kQutGamma);
  const double tau = st->tree_params[0];
  st->cycle_shift = std::ceil((t1 + 0.5 * tau) / tau) * tau;

  checks->Record("setup.create",
                 st->writer->Execute("CREATE MOD " + std::string(kMod) + ";")
                     .ok());
  // The base is what the reader queries; the QUT on it makes the tree
  // live, so every later drain inserts into it.
  for (size_t n = 0; n < st->base_commits; ++n) {
    if (!CommitGroup(st.get(), n, checks)) return nullptr;
  }
  st->next_commit = st->base_commits;
  const auto windows = PickQutWindows(
      base, kReaderWindow, kReaderWindows, [&](double lo, double hi) {
        auto q = st->reader->Execute(QutSql(kMod, lo, hi, st->tree_params));
        return q.ok() ? QutClusterRows(*q) : 0;
      });
  for (const auto& [lo, hi] : windows) {
    st->qut_sql.push_back(QutSql(kMod, lo, hi, st->tree_params));
    st->range_sql.push_back(RangeSql(kMod, lo, hi));
    st->range_expected.push_back(BruteForceRange(base, lo, hi));
  }
  return st;
}

struct ReaderLoop {
  Samples qut, range;
  uint64_t statements = 0;
  std::vector<uint64_t> qut_hash;  ///< First answer per window.
};

/// Reader: alternates QUT and RANGE over the base windows until `stop`,
/// starting a statement every kReaderPeriodMs (or at once when the last one
/// overran). The think time makes the reader arrive at any point of the
/// writer's drains, instead of falling into step with them.
void RunReader(State* st, const std::atomic<bool>* stop, ReaderLoop* out,
               Checks* checks, Tracer* tr) {
  out->qut_hash.assign(st->qut_sql.size(), 0);
  const auto period = std::chrono::microseconds(
      static_cast<int64_t>(kReaderPeriodMs * 1000));
  auto due = Clock::now();
  for (uint64_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
    std::this_thread::sleep_until(due);
    due = std::max(due, Clock::now()) + period;
    const size_t w = (i / 2) % st->qut_sql.size();
    if (tr != nullptr) {
      Tracer::Scope s(tr, "service.snapshot", i);
      checks->Record("snapshot", st->server->SnapshotMod(kMod).ok());
    }
    const bool qut = i % 2 == 0;
    const int64_t t0 = NowNs();
    hermes::StatusOr<Table> t = hermes::Status::Internal("not run");
    {
      Tracer::Scope s(tr, qut ? "stmt.qut" : "stmt.range", i);
      t = st->reader->Execute(qut ? st->qut_sql[w] : st->range_sql[w]);
    }
    const double ms = MsSince(t0);
    ++out->statements;
    if (qut) {
      out->qut.Add(ms);
      uint64_t& first = out->qut_hash[w];
      if (first == 0 && t.ok()) first = TableHash(*t);
      checks->Record("qut", t.ok() && QutClusterRows(*t) >= 1 &&
                                TableHash(*t) == first);
    } else {
      out->range.Add(ms);
      checks->Record("range", RangeMatches(t, st->range_expected[w]));
    }
  }
}

/// The run's commits: kCommitsPerSecond per second of --seconds, within
/// the schedule built in set-up.
uint64_t CommitsFor(const Options& opt, const State& st) {
  const auto wanted = static_cast<uint64_t>(opt.seconds * kCommitsPerSecond);
  return std::min<uint64_t>(wanted, st.schedule.size() - st.next_commit);
}

bool StatsMatch(hermes::service::ClientSession* s, const State& st) {
  auto t = s->Execute("SELECT STATS(" + std::string(kMod) + ");");
  return t.ok() && !t->rows.empty() &&
         t->rows[0][0].AsInt() == static_cast<int64_t>(st.acked_trajectories) &&
         t->rows[0][1].AsInt() == static_cast<int64_t>(st.acked_points);
}

/// Shuts the server down and starts it again on the same Env (WAL replay);
/// returns the seconds recovery took, or a negative value on failure.
double Restart(State* st, Checks* checks) {
  st->inserts.clear();  // Prepared on the writer session that goes away.
  st->writer.reset();
  st->reader.reset();
  st->server->Shutdown();
  st->server.reset();
  const int64_t t0 = NowNs();
  auto server = hermes::service::Server::Start(st->options, st->env.get());
  const double secs = (NowNs() - t0) / 1e9;
  if (!checks->Record("restart.start", server.ok())) return -1;
  st->server = std::move(*server);
  st->writer = st->server->Connect();
  st->reader = st->server->Connect();
  checks->Record("restart.stats_equal_acked",
                 StatsMatch(st->reader.get(), *st));
  return secs;
}

void TracedRun(const Options& opt, State* st, RunResult* out) {
  Checks* checks = &out->checks;
  Tracer wtr(true), rtr(true);
  const auto before = st->server->Stats();
  const uint64_t points_before = st->acked_points;
  const uint64_t first_commit = st->next_commit;
  std::atomic<bool> stop{false};
  ReaderLoop reader;
  Checks reader_checks;
  std::thread rt(RunReader, st, &stop, &reader, &reader_checks, &rtr);
  Samples commit_ms[2];  // [0] untraced, [1] traced commits.
  double wall_sum = 0, parts_sum = 0;
  const uint64_t commits = CommitsFor(opt, *st);
  const int64_t t0 = NowNs();
  for (uint64_t k = 0; k < commits && !PastCap(t0); ++k) {
    const bool on = k % 2 == 0;
    wtr.set_enabled(on);
    const uint64_t n = st->next_commit++;
    const size_t spans_before = wtr.spans().size();
    double ms = 0;
    {
      Tracer::Scope s(&wtr, "commit", n);
      if (!CommitGroupTraced(st, n, &wtr, checks)) break;
      ms = s.ElapsedMs();
    }
    commit_ms[on ? 1 : 0].Add(ms);
    if (on) {
      wall_sum += ms;
      for (size_t i = spans_before + 1; i < wtr.spans().size(); ++i) {
        const Span& sp = wtr.spans()[i];
        parts_sum += (sp.end_ns - sp.start_ns) / 1e6;
      }
    }
  }
  stop = true;
  rt.join();
  checks->Merge(reader_checks);
  const auto after = st->server->Stats();

  Report& rep = out->report;
  const auto agg = Aggregate({&wtr, &rtr});
  auto mean = [&agg](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / it->second.count;
  };
  rep.Set("service.enqueue_us", mean("service.enqueue") * 1e3, "us");
  rep.Set("service.flush_wait_ms", mean("service.flush_wait"), "ms");
  rep.Set("service.snapshot_us", mean("service.snapshot") * 1e3, "us");
  const double commit_s = (commit_ms[0].Sum() + commit_ms[1].Sum()) / 1e3;
  rep.Set("ingest.points_per_s",
          commit_s > 0
              ? static_cast<double>(st->acked_points - points_before) / commit_s
              : 0,
          "1/s");
  rep.Set("commit.unattributed_ms",
          commit_ms[1].size() == 0
              ? 0
              : (wall_sum - parts_sum) / commit_ms[1].size(),
          "ms");
  const double coverage = wall_sum > 0 ? 100.0 * parts_sum / wall_sum : 0;
  rep.Set("commit.coverage_pct", coverage, "%");
  checks->Record("trace.commit_coverage", coverage >= 95.0,
                 std::to_string(coverage));
  const double off = commit_ms[0].Quantile(0.5);
  const double on = commit_ms[1].Quantile(0.5);
  rep.Set("trace.overhead_ms", on - off, "ms");
  rep.Set("trace.overhead_pct", off > 0 ? 100.0 * (on - off) / off : 0, "%");

  // SQL parse cost of the reader's statements.
  {
    Tracer ptr(true);
    for (int i = 0; i < 200; ++i) {
      Tracer::Scope s(&ptr, "sql.parse", i);
      checks->Record("trace.parse",
                     hermes::sql::ParseStatement(i % 2 ? st->range_sql[0]
                                                       : st->qut_sql[0])
                         .ok());
    }
    const auto pa = Aggregate({&ptr}).at("sql.parse");
    rep.Set("sql.parse_us", pa.total_ms / pa.count * 1e3, "us");
  }

  // QUT tier counters of the shared tree, per reader QUT; the reader
  // session's SHOW STATS holds the QuTClustering::Query wall time.
  const double quts = std::max<size_t>(1, reader.qut.size());
  const uint64_t hot = after.qut_hot_probes - before.qut_hot_probes;
  const uint64_t cold = after.qut_cold_probes - before.qut_cold_probes;
  rep.Set("core.qut_hot_probes", hot / quts, "count");
  rep.Set("core.qut_cold_probes", cold / quts, "count");
  rep.Set("core.hot_hit_ratio",
          hot + cold ? static_cast<double>(hot) / (hot + cold) : 0, "ratio");
  {
    auto t = st->reader->Execute("SHOW STATS;");
    for (const auto& row :
         t.ok() ? t->rows : std::vector<std::vector<Value>>{}) {
      if (row[0].AsString() == "qut_query") {
        // Includes the set-up QUT, which builds nothing (tree already live).
        rep.Set("core.qut_query_us",
                static_cast<double>(row[1].AsInt()) / quts, "us");
      }
    }
  }

  // WAL: counters, bytes on "disk", and a full scan of the run's log.
  rep.Set("wal.records",
          static_cast<double>(after.wal_records_appended -
                              before.wal_records_appended),
          "count");
  rep.Set("wal.syncs",
          static_cast<double>(after.wal_syncs - before.wal_syncs), "count");
  rep.Set("wal.bytes",
          static_cast<double>(after.wal_bytes_appended -
                              before.wal_bytes_appended),
          "B");
  const double user_bytes = 32.0 * static_cast<double>(st->acked_points);
  rep.Set("wal.bytes_per_user_byte",
          static_cast<double>(st->env->BytesUnder("wal/")) / user_bytes,
          "ratio");
  {
    const int64_t s0 = NowNs();
    uint64_t records = 0;
    auto segs = hermes::wal::ListSegments(st->env.get(), "wal");
    checks->Record("trace.wal_list", segs.ok());
    for (uint64_t id : segs.ok() ? *segs : std::vector<uint64_t>{}) {
      auto scan = hermes::wal::ReadSegment(st->env.get(), "wal", id);
      checks->Record("trace.wal_scan", scan.ok());
      if (scan.ok()) records += scan->records.size();
    }
    rep.Set("wal.replay_scan_ms", MsSince(s0), "ms");
    checks->Record("trace.wal_records", records == after.wal_records_appended,
                   std::to_string(records));
  }

  // ReTraTree::InsertBatch on the same groups, in a tree of its own that
  // first receives cycle 0 (as the live tree did in set-up).
  {
    TrajectoryStore store;
    for (uint64_t n = 0; n < st->next_commit; ++n) {
      auto b = hermes::sql::BuildInsertTrajectories(
          st->parsed.at(GroupOf(*st, n).points), GroupBinds(*st, n));
      for (Trajectory& t : b.ok() ? *b : std::vector<Trajectory>{}) {
        (void)store.Add(std::move(t));
      }
    }
    auto tree = hermes::core::ReTraTree::Open(
        st->env.get(), "probe_tree",
        hermes::sql::MakeQutTreeParams(st->tree_params));
    if (checks->Record("trace.tree_open", tree.ok())) {
      size_t first = 0;
      for (uint64_t n = 0; n < first_commit; ++n) {
        first += GroupOf(*st, n).count;
      }
      checks->Record("trace.tree_base",
                     (*tree)->InsertBatch(store, nullptr, 0, first).ok());
      Samples ins;
      const int64_t budget = NowNs() + static_cast<int64_t>(2e9);
      for (uint64_t n = first_commit; n < st->next_commit && NowNs() < budget;
           ++n) {
        const size_t count = GroupOf(*st, n).count;
        const auto id = static_cast<hermes::traj::TrajectoryId>(first);
        const int64_t s0 = NowNs();
        checks->Record("trace.insert_batch",
                       (*tree)->InsertBatch(store, nullptr, id, count).ok());
        ins.Add(MsSince(s0));
        first += count;
      }
      rep.Set("core.retratree_insert_ms",
              ins.size() ? ins.Sum() / ins.size() : 0, "ms");
    }
  }

  // Recovery: restart several times; each must come back with exactly the
  // acked data.
  std::vector<double> rec;
  for (int i = 0; i < kRestarts; ++i) {
    const double s = Restart(st, checks);
    if (s < 0) break;
    rec.push_back(s);
  }
  rep.Set("service.recovery_s", Median(rec), "s");
  checks->Record("trace.checkpoint", st->writer->Execute("CHECKPOINT;").ok());
  rep.Set("storage.stored_bytes_per_user_byte",
          static_cast<double>(st->env->BytesUnder("data/") +
                              st->env->BytesUnder("wal/")) /
              user_bytes,
          "ratio");
  WriteSpans(opt.trace_dir + "/ingest.tsv", {&wtr, &rtr});
}

}  // namespace

RunResult RunIngest(const Options& opt) {
  RunResult out;
  std::unique_ptr<State> st;
  Checks setup_checks;
  const double setup_s = TimeSetups([&] {
    st.reset();
    setup_checks = Checks();
    st = Setup(opt.seed, &setup_checks);
  });
  out.checks.Merge(setup_checks);
  if (st == nullptr) return out;

  if (opt.trace) {
    TracedRun(opt, st.get(), &out);
    return out;
  }

  std::atomic<bool> stop{false};
  ReaderLoop reader;
  Checks reader_checks;
  std::thread rt(RunReader, st.get(), &stop, &reader, &reader_checks, nullptr);
  Samples commits;
  const uint64_t n = CommitsFor(opt, *st);
  const int64_t t0 = NowNs();
  while (commits.size() < n && !PastCap(t0)) {
    const int64_t c0 = NowNs();
    if (!CommitGroup(st.get(), st->next_commit++, &out.checks)) break;
    commits.Add(MsSince(c0));
  }
  const double wall_s = (NowNs() - t0) / 1e9;
  stop = true;
  rt.join();
  out.checks.Merge(reader_checks);
  out.checks.Record("verify.stats_equal_acked",
                    StatsMatch(st->reader.get(), *st));
  Restart(st.get(), &out.checks);

  Report& rep = out.report;
  rep.Set("setup_s", setup_s, "s");
  rep.Set("stmts_per_s",
          static_cast<double>(2 * commits.size() + reader.statements) / wall_s,
          "1/s");
  ReportLatency("work", commits, &rep);
  ReportLatency("qut", reader.qut, &rep);
  ReportLatency("range", reader.range, &rep);
  rep.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "ingest: %zu commits (%llu points acked), %zu QUT, %zu RANGE "
               "in %.1f s\n",
               commits.size(),
               static_cast<unsigned long long>(st->acked_points),
               reader.qut.size(), reader.range.size(), wall_s);
  return out;
}

}  // namespace perfbench
