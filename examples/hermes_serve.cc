// The Hermes service daemon / demo.
//
// With no arguments, runs the in-process smoke demo: a sharded
// `shard::Coordinator` (default 2 shards) owning a shared maritime MOD,
// four concurrent client sessions issuing S2T_MEMBERS / RANGE / QUT
// statements, and a writer session streaming INSERTs through the
// per-shard background ingest workers — the embedded analogue of many
// psql clients against Hermes@PostgreSQL while data arrives. Every
// statement travels the backend-neutral `sql::StatementExecutor` API.
// Exits non-zero if any statement fails or any reader observes a
// non-prefix state, so CI runs it as an end-to-end smoke test.
//
// With `--port=N` (and optionally `--listen=ADDR`, default loopback), it
// becomes a real daemon: the same seeded topology fronted by the TCP
// wire protocol (`net::NetServer`), serving until SIGINT/SIGTERM.
// Shutdown is clean — stop accepting, finish in-flight statements, drain
// the ingest queues (FLUSH), then stop the service.
//
//   hermes_serve --port=7878
//   hermes_serve --listen=0.0.0.0 --port=7878 --ships=64 --shards=4
//
// With `--wal-dir=DIR` the daemon is durable: every acked INSERT is
// write-ahead-logged with group commit, `CHECKPOINT` persists the
// catalog, and a restart pointing at the same directory recovers the
// acked state (the demo fleet is only seeded on first boot, never over a
// recovered catalog). With `--shards=N` each shard logs to its own
// `DIR/shard<k>`; the default single shard keeps the plain layout, so
// existing WAL directories recover unchanged.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/maritime.h"
#include "net/net_server.h"
#include "service/service_config.h"
#include "shard/coordinator.h"
#include "sql/statement_executor.h"
#include "storage/env.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int /*sig*/) { g_stop = 1; }

hermes::StatusOr<hermes::traj::TrajectoryStore> DemoFleet(size_t num_ships) {
  using namespace hermes;
  datagen::MaritimeScenarioParams mp;
  mp.num_ships = num_ships;
  mp.sample_dt = 300.0;
  mp.seed = 4;
  HERMES_ASSIGN_OR_RETURN(auto maritime,
                          datagen::GenerateMaritimeScenario(mp));
  return std::move(maritime.store);
}

/// `--port=N --listen=ADDR [--ships=K] [--shards=N]`: serve the wire
/// protocol until a signal, then drain and exit.
int RunDaemon(const hermes::service::ServiceConfig& config,
              size_t num_ships) {
  using namespace hermes;
  // Durability needs a real filesystem; the default in-memory env dies
  // with the process.
  auto coord_or = shard::Coordinator::Start(
      config, config.wal_dir.empty() ? nullptr : storage::Env::Posix());
  if (!coord_or.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 coord_or.status().ToString().c_str());
    return 1;
  }
  auto coord = std::move(*coord_or);
  // A recovered catalog already holds the acked state — re-seeding the
  // demo fleet would wipe what recovery just restored.
  const bool recovered = coord->ShardSnapshots("ships").ok();
  if (!recovered) {
    auto fleet = DemoFleet(num_ships);
    if (!fleet.ok() ||
        !coord->RegisterStore("ships", std::move(*fleet)).ok()) {
      return 1;
    }
  }

  auto net_or = net::NetServer::Start(
      [raw = coord.get()] { return raw->Connect(); },
      net::MakeNetServerOptions(config));
  if (!net_or.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 net_or.status().ToString().c_str());
    return 1;
  }
  auto net = std::move(*net_or);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("hermes_serve listening on %s:%u (MOD ships %s)\n",
              config.listen_addr.c_str(), net->port(),
              recovered ? "recovered" : "seeded");
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("signal received; draining...\n");
  net->Shutdown();          // stop accepting, finish in-flight statements
  if (!coord->Flush().ok()) {
    std::fprintf(stderr, "final flush failed\n");
  }
  coord->Shutdown();        // drain the ingest queues and join workers
  std::printf("hermes_serve stopped cleanly\n");
  return 0;
}

/// Streams one trajectory through the statement plane: an
/// all-placeholder INSERT prepared on the executor and bound to typed
/// values, so coordinates round-trip exactly.
hermes::Status InsertTrajectory(hermes::sql::StatementExecutor* ex,
                                const hermes::traj::Trajectory& t) {
  using namespace hermes;
  std::string text = "INSERT INTO ships VALUES ";
  std::vector<sql::Value> binds;
  binds.reserve(t.size() * 4);
  for (size_t i = 0; i < t.size(); ++i) {
    const auto& p = t.samples()[i];
    if (i > 0) text += ", ";
    text += "($" + std::to_string(4 * i + 1) + ", $" +
            std::to_string(4 * i + 2) + ", $" + std::to_string(4 * i + 3) +
            ", $" + std::to_string(4 * i + 4) + ")";
    binds.push_back(sql::Value::Int(static_cast<int64_t>(t.object_id())));
    binds.push_back(sql::Value::Double(p.t));
    binds.push_back(sql::Value::Double(p.x));
    binds.push_back(sql::Value::Double(p.y));
  }
  text += ";";
  HERMES_ASSIGN_OR_RETURN(sql::PreparedHandle handle, ex->Prepare(text));
  StatusOr<sql::Table> ack = ex->BindExecute(handle.id, binds);
  (void)ex->ClosePrepared(handle.id);
  return ack.status();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hermes;

  service::ServiceConfig config;
  config.threads = 2;
  config.session_defaults.sigma = 800.0;
  config.session_defaults.epsilon = 1600.0;
  int port = -1;
  size_t num_ships = 24;
  bool shards_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--listen=", 0) == 0) {
      config.listen_addr = arg.substr(9);
    } else if (arg.rfind("--port=", 0) == 0) {
      port = std::atoi(arg.c_str() + 7);
      config.port = static_cast<uint16_t>(port);
    } else if (arg.rfind("--ships=", 0) == 0) {
      num_ships = static_cast<size_t>(std::atol(arg.c_str() + 8));
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      config.wal_dir = arg.substr(10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.shards = static_cast<size_t>(std::atol(arg.c_str() + 9));
      shards_set = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--listen=ADDR] [--port=N] [--ships=K] "
                   "[--wal-dir=DIR] [--shards=N]\n"
                   "(no arguments: run the in-process smoke demo)\n",
                   argv[0]);
      return 2;
    }
  }
  // The demo defaults to 2 shards so CI exercises the scatter–gather
  // paths; the daemon stays single-shard unless asked (its plain
  // directory layout is what existing WAL dirs recover from).
  if (!shards_set && port < 0) config.shards = 2;
  if (Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", st.ToString().c_str());
    return 2;
  }
  if (port >= 0) return RunDaemon(config, num_ships);

  auto fleet = DemoFleet(num_ships);
  if (!fleet.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }
  const traj::TrajectoryStore ships = std::move(*fleet);
  const auto [t0, t1] = ships.TimeDomain();

  auto coord_or = shard::Coordinator::Start(config);
  if (!coord_or.ok()) {
    std::fprintf(stderr, "coordinator start failed: %s\n",
                 coord_or.status().ToString().c_str());
    return 1;
  }
  auto coord = std::move(*coord_or);

  // Seed the shared MOD with the first half of the fleet.
  const size_t initial = ships.NumTrajectories() / 2;
  traj::TrajectoryStore seed;
  for (traj::TrajectoryId tid = 0; tid < initial; ++tid) {
    if (!seed.Add(ships.Get(tid)).ok()) return 1;
  }
  if (!coord->RegisterStore("ships", std::move(seed)).ok()) return 1;

  std::atomic<int> failures{0};
  std::atomic<bool> ingest_done{false};

  // Four readers, each its own coordinator session (and two of them
  // their own 2-thread exec context), querying while ingest proceeds.
  const std::string range_sql = "SELECT RANGE(ships, " + std::to_string(t0) +
                                ", " + std::to_string(t1 + 1) + ");";
  std::vector<std::thread> readers;
  for (int rix = 0; rix < 4; ++rix) {
    readers.emplace_back([&, rix] {
      auto session = coord->Connect();
      if (rix % 2 == 1 &&
          !session->Execute("SET hermes.threads = 2;").ok()) {
        ++failures;
        return;
      }
      size_t last_rows = 0;
      while (!ingest_done.load(std::memory_order_relaxed)) {
        auto members = session->Execute("SELECT S2T_MEMBERS(ships);");
        if (!members.ok()) {
          std::fprintf(stderr, "reader %d: %s\n", rix,
                       members.status().ToString().c_str());
          ++failures;
          return;
        }
        auto range = session->Execute(range_sql);
        if (!range.ok()) {
          ++failures;
          return;
        }
        // Published snapshots are id-order prefixes: the qualifying-row
        // count can only grow.
        if (range->rows.size() < last_rows) {
          std::fprintf(stderr, "reader %d: snapshot went backwards\n", rix);
          ++failures;
          return;
        }
        last_rows = range->rows.size();
      }
    });
  }

  // The writer: stream the back half through the routed statement path,
  // then flush and run a QUT over the merged tree.
  {
    auto writer = coord->Connect();
    for (traj::TrajectoryId tid = initial; tid < ships.NumTrajectories();
         ++tid) {
      if (!InsertTrajectory(writer.get(), ships.Get(tid)).ok()) {
        ++failures;
        break;
      }
    }
    if (!writer->Execute("FLUSH;").ok()) ++failures;
    const double tau = (t1 - t0) / 2;
    const std::string qut_sql =
        "SELECT QUT(ships, " + std::to_string(t0) + ", " +
        std::to_string(t1 + 1) + ", " + std::to_string(tau) + ", " +
        std::to_string(tau / 4) + ", " + std::to_string(tau / 4) +
        ", 1600, 8);";
    auto qut = writer->Execute(qut_sql);
    if (!qut.ok()) {
      std::fprintf(stderr, "QUT failed: %s\n",
                   qut.status().ToString().c_str());
      ++failures;
    } else {
      std::printf("hermes=# %s\n%s\n", qut_sql.c_str(),
                  qut->ToString().c_str());
    }
  }
  ingest_done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  // Final state + aggregated service counters.
  auto session = coord->Connect();
  for (const char* stmt :
       {"SELECT STATS(ships);", "SHOW SERVICE STATS;", "SHOW ALL;"}) {
    auto table = session->Execute(stmt);
    if (!table.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", stmt,
                   table.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("hermes=# %s\n%s\n", stmt, table->ToString().c_str());
  }

  coord->Shutdown();
  if (failures.load() != 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures.load());
    return 1;
  }
  std::printf("service demo OK\n");
  return 0;
}
