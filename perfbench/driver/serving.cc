// serving: a loopback net::NetServer in front of a 2-shard
// shard::Coordinator, read-only. One wire connection with one closed-loop
// caller rotates through RANGE over a 5 % window, QUT over 5 % and 25 %
// windows, STATS, and a prepared RANGE run by BIND_EXECUTE. The dataset's
// QUT tree fits the hot tier, and nothing is clustered after set-up: the
// wire, parsing, scatter-gather and merge do the work.
//
// One statement is in flight at a time, so of the threads a statement
// passes through (client, event loop, connection worker, scatter thread)
// at most two, the halves of a scatter, have work at once: more callers
// would run more threads than a small VM has vCPUs and measure how much
// CPU the host gives it (see README.md).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "service/client_session.h"
#include "service/server.h"
#include "service/service_config.h"
#include "shard/coordinator.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hermes::sql::Table;
using hermes::sql::Value;

constexpr char kMod[] = "FLEET";
constexpr size_t kShips = 260;
constexpr double kShipDt = 60.0;
constexpr size_t kPoints = 30000;
constexpr double kEpsilon = 1600.0;
constexpr double kTau = 6400.0;
constexpr double kQutGamma = 8;
constexpr size_t kShards = 2;
/// Statements per second of --seconds: the run does fixed work, sized so
/// that it takes about --seconds on a 4-vCPU VM.
constexpr double kStatementsPerSecond = 700.0;
constexpr uint32_t kPreparedId = 1;

enum Kind { kRange, kQut5, kQut25, kStats, kBind, kNumKinds };
const char* const kKindNames[] = {"range", "qut5", "qut25", "stats", "bind"};

struct State {
  std::unique_ptr<hermes::shard::Coordinator> coord;
  std::unique_ptr<hermes::net::NetServer> net;
  hermes::traj::TrajectoryStore store;
  std::string sql[kNumKinds];  ///< kBind holds the prepared text.
  std::vector<Value> binds;
  std::pair<int64_t, int64_t> range_expected;
};

std::unique_ptr<State> Setup(uint64_t seed, Checks* checks) {
  auto st = std::make_unique<State>();
  st->store = TakePoints(MakeMaritime(kShips, kShipDt, seed * 11 + 3), kPoints);
  hermes::service::ServiceConfig config;
  config.shards = kShards;
  config.threads = 1;
  auto coord = hermes::shard::Coordinator::Start(config);
  if (!checks->Record("setup.coordinator", coord.ok())) return nullptr;
  st->coord = std::move(*coord);
  checks->Record("setup.register",
                 st->coord->RegisterStore(kMod, st->store).ok());

  const auto tree = QutTreeParams(kTau, kEpsilon, kQutGamma);
  // The first QUT builds the merged tree; it stays hot from then on.
  auto warm = st->coord->Connect();
  auto clusters = [&](double lo, double hi) {
    auto q = warm->Execute(QutSql(kMod, lo, hi, tree));
    return q.ok() ? QutClusterRows(*q) : 0;
  };
  const auto r5 = CentredWindow(st->store, 0.05);
  const auto q5 = PickQutWindows(st->store, 0.05, 1, clusters)[0];
  const auto q25 = PickQutWindows(st->store, 0.25, 1, clusters)[0];
  st->sql[kRange] = RangeSql(kMod, r5.first, r5.second);
  st->sql[kQut5] = QutSql(kMod, q5.first, q5.second, tree);
  st->sql[kQut25] = QutSql(kMod, q25.first, q25.second, tree);
  st->sql[kStats] = "SELECT STATS(" + std::string(kMod) + ");";
  st->sql[kBind] = "SELECT RANGE(" + std::string(kMod) + ", $1, $2);";
  const auto b = CentredWindow(st->store, 0.10);
  st->binds = {Value::Double(b.first), Value::Double(b.second)};
  st->range_expected = BruteForceRange(st->store, r5.first, r5.second);

  checks->Record("setup.qut_clusters",
                 clusters(q5.first, q5.second) >= 1 &&
                     clusters(q25.first, q25.second) >= 1);

  hermes::net::NetServerOptions nopt;
  nopt.port = 0;
  hermes::shard::Coordinator* c = st->coord.get();
  auto net = hermes::net::NetServer::Start([c] { return c->Connect(); }, nopt);
  if (!checks->Record("setup.net_start", net.ok())) return nullptr;
  st->net = std::move(*net);
  return st;
}

/// The statement of `kind` over any backend.
hermes::StatusOr<Table> Run(hermes::sql::StatementExecutor* ex, const State& st,
                            Kind kind, uint32_t prepared_id) {
  if (kind == kBind) return ex->BindExecute(prepared_id, st.binds);
  return ex->Execute(st.sql[kind]);
}

struct ClientLoop {
  Samples lat[kNumKinds];
  uint64_t statements = 0;
  Checks checks;
  Tracer tracer{false};
  // Traced-run attribution, per kind: in-process coordinator and single
  // unsharded session latency of the same statement, and wire codec cost.
  Samples inproc[kNumKinds], single[kNumKinds];
  Samples encode_us, decode_us;
  double response_bytes = 0;
  /// Wire latency of rotations with spans recorded and without.
  Samples traced, untraced;
};

/// Expected answers, fixed in set-up from an embedded session over the
/// same data with the hot tier off — the reference every backend must
/// match.
struct Expected {
  uint64_t hash[kNumKinds] = {};
};

bool CheckResult(const State& st, const Expected& exp, Kind kind,
                 const hermes::StatusOr<Table>& t, Checks* checks) {
  bool ok = t.ok() && TableHash(*t) == exp.hash[kind];
  if (ok && kind == kRange) ok = RangeMatches(t, st.range_expected);
  if (ok && (kind == kQut5 || kind == kQut25)) ok = QutClusterRows(*t) >= 1;
  return checks->Record(kKindNames[kind], ok);
}

/// The connection's closed loop: each statement is sent only after the
/// last reply arrived. The traced run, after every reply, also times the
/// same statement in process and through the wire codec for attribution.
void RunClient(State* st, const Expected* exp, size_t statements,
               int64_t start_ns, bool trace, ClientLoop* out,
               hermes::service::Server* single_server) {
  auto conn = hermes::net::Client::Connect("127.0.0.1", st->net->port());
  if (!out->checks.Record("client.connect", conn.ok())) return;
  hermes::net::Client* wire = conn->get();
  if (!out->checks.Record("client.prepare",
                          wire->Prepare(kPreparedId, st->sql[kBind]).ok())) {
    return;
  }
  std::unique_ptr<hermes::sql::StatementExecutor> inproc, single;
  uint32_t inproc_id = 0, single_id = 0;
  if (trace) {
    inproc = st->coord->Connect();
    single = hermes::service::MakeStatementExecutor(single_server->Connect());
    auto a = inproc->Prepare(st->sql[kBind]);
    auto b = single->Prepare(st->sql[kBind]);
    if (!out->checks.Record("client.prepare_inproc", a.ok() && b.ok())) return;
    inproc_id = a->id;
    single_id = b->id;
  }
  Tracer* tr = &out->tracer;
  for (size_t i = 0; i < statements && !PastCap(start_ns); ++i) {
    const auto kind = static_cast<Kind>(i % kNumKinds);
    const int64_t sent_ns = NowNs();
    auto t = kind == kBind ? wire->BindExecute(kPreparedId, st->binds)
                           : wire->Execute(st->sql[kind]);
    const double ms = MsSince(sent_ns);
    out->lat[kind].Add(ms);
    ++out->statements;
    CheckResult(*st, *exp, kind, t, &out->checks);
    if (!trace || !t.ok()) continue;
    // Whole rotations alternate between recording spans and not; the wire
    // latency difference is the tracing overhead.
    const bool on = (i / kNumKinds) % 2 == 0;
    (on ? out->traced : out->untraced).Add(ms);
    tr->set_enabled(on);
    const uint64_t stmt = i;
    {
      Tracer::Scope s(tr, "sql.parse", stmt);
      out->checks.Record("trace.parse",
                         hermes::sql::ParseStatement(st->sql[kind]).ok());
    }
    std::string frame;
    {
      const int64_t e0 = NowNs();
      Tracer::Scope s(tr, "net.encode", stmt);
      hermes::net::AppendTableFrame(*t, &frame);
      out->encode_us.Add(MsSince(e0) * 1e3);
    }
    out->response_bytes += static_cast<double>(frame.size());
    {
      const int64_t d0 = NowNs();
      Tracer::Scope s(tr, "net.decode", stmt);
      size_t off = 0;
      std::string body;
      const bool ok = hermes::net::ScanFrame(frame, &off, &body) ==
                          hermes::net::FrameScan::kFrame &&
                      hermes::net::DecodeResponse(body).ok();
      out->decode_us.Add(MsSince(d0) * 1e3);
      out->checks.Record("trace.decode", ok);
    }
    {
      const int64_t p0 = NowNs();
      Tracer::Scope s(tr, "stmt.inproc", stmt);
      auto r = Run(inproc.get(), *st, kind, inproc_id);
      out->inproc[kind].Add(MsSince(p0));
      CheckResult(*st, *exp, kind, r, &out->checks);
    }
    {
      const int64_t p0 = NowNs();
      Tracer::Scope s(tr, "stmt.single", stmt);
      auto r = Run(single.get(), *st, kind, single_id);
      out->single[kind].Add(MsSince(p0));
      CheckResult(*st, *exp, kind, r, &out->checks);
    }
  }
}

/// Reference answers from an embedded session with the hot tier off.
Expected MakeExpected(const State& st, Checks* checks) {
  Expected exp;
  hermes::sql::Session ref;
  checks->Record("setup.reference", ref.RegisterStore(kMod, st.store).ok());
  (void)ref.Execute("SET hermes.hot_index_budget = 0;");
  auto ex = hermes::sql::MakeSessionExecutor(&ref);
  auto prep = ex->Prepare(st.sql[kBind]);
  for (int k = 0; k < kNumKinds; ++k) {
    auto t = Run(ex.get(), st, static_cast<Kind>(k), prep.ok() ? prep->id : 0);
    checks->Record("setup.reference", t.ok());
    exp.hash[k] = t.ok() ? TableHash(*t) : 0;
  }
  return exp;
}

}  // namespace

RunResult RunServing(const Options& opt) {
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
  const Expected exp = MakeExpected(*st, &out.checks);

  // Traced run: a single unsharded server over the same data gives the
  // coordinator's gather cost by difference.
  std::unique_ptr<hermes::service::Server> single;
  if (opt.trace) {
    hermes::service::ServerOptions so;
    so.threads = 1;
    auto s = hermes::service::Server::Start(so);
    if (!out.checks.Record("trace.single_start", s.ok())) return out;
    single = std::move(*s);
    out.checks.Record("trace.single_register",
                      single->RegisterStore(kMod, st->store).ok());
  }

  ClientLoop all;
  // The traced run does a quarter of the statements: each also runs four
  // attribution probes.
  const auto statements = static_cast<size_t>(
      opt.seconds * kStatementsPerSecond / (opt.trace ? 4 : 1));
  const int64_t t0 = NowNs();
  RunClient(st.get(), &exp, statements, t0, opt.trace, &all, single.get());
  const double wall_s = (NowNs() - t0) / 1e9;
  out.checks.Merge(all.checks);
  st->net->Shutdown();
  Report& rep = out.report;

  if (opt.trace) {
    const double n = std::max<size_t>(1, all.encode_us.size());
    rep.Set("net.encode_us", all.encode_us.Sum() / n, "us");
    rep.Set("net.decode_us", all.decode_us.Sum() / n, "us");
    rep.Set("net.response_bytes", all.response_bytes / n, "B");
    rep.Set("net.overhead_ms",
            all.lat[kRange].Quantile(0.5) - all.inproc[kRange].Quantile(0.5),
            "ms");
    rep.Set("shard.gather_ms",
            all.inproc[kRange].Quantile(0.5) - all.single[kRange].Quantile(0.5),
            "ms");
    const double off = all.untraced.Quantile(0.5);
    const double on = all.traced.Quantile(0.5);
    rep.Set("trace.overhead_ms", on - off, "ms");
    rep.Set("trace.overhead_pct", off > 0 ? 100.0 * (on - off) / off : 0, "%");
    const std::vector<const Tracer*> tracers = {&all.tracer};
    const auto agg = Aggregate(tracers);
    const auto parse = agg.find("sql.parse");
    if (parse != agg.end()) {
      rep.Set("sql.parse_us",
              parse->second.total_ms / parse->second.count * 1e3, "us");
    }
    WriteSpans(opt.trace_dir + "/serving.tsv", tracers);
    return out;
  }

  rep.Set("setup_s", setup_s, "s");
  rep.Set("stmts_per_s", static_cast<double>(all.statements) / wall_s, "1/s");
  ReportLatency("work", all.lat[kBind], &rep);
  Samples qut = all.lat[kQut5];
  qut.Append(all.lat[kQut25]);
  ReportLatency("qut", qut, &rep);
  ReportLatency("range", all.lat[kRange], &rep);
  rep.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "serving: %llu statements over one connection in %.1f s\n",
               static_cast<unsigned long long>(all.statements), wall_s);
  return out;
}

}  // namespace perfbench
