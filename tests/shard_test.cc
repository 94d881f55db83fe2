// Sharded scatter–gather execution: the shard::Coordinator must be an
// indistinguishable drop-in for one service::Server.
//
// The headline test is the acceptance criterion of the sharding PR:
// for three datagen domains (aircraft / maritime / urban) the full query
// surface — S2T_MEMBERS, RANGE, STATS, QUT — returns *bit-identical*
// tables on 1-, 2-, and 4-shard coordinators and on the unsharded
// server, with ingest routed row-by-row through the statement plane and
// with concurrent readers in flight. The file runs under the TSan CI
// leg, so it doubles as the data-race gate for the scatter–gather and
// merged-snapshot paths.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "net/client.h"
#include "net/net_server.h"
#include "service/client_session.h"
#include "service/server.h"
#include "service/service_config.h"
#include "shard/coordinator.h"
#include "shard/partitioner.h"
#include "sql/executor.h"
#include "sql/statement_executor.h"
#include "sql/value.h"
#include "storage/env.h"

namespace hermes::shard {
namespace {

using sql::Table;
using sql::Value;

// ---------------------------------------------------------------------------
// Datagen domains
// ---------------------------------------------------------------------------

traj::TrajectoryStore MakeAircraft() {
  auto p = datagen::AircraftScenarioParams::Default();
  p.num_flights = 12;
  p.sample_dt = 40.0;
  p.time_span = 1200.0;
  p.seed = 12;
  auto s = datagen::GenerateAircraftScenario(p);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s->store);
}

traj::TrajectoryStore MakeMaritime() {
  datagen::MaritimeScenarioParams p;
  p.num_ships = 12;
  p.sample_dt = 300.0;
  p.seed = 13;
  auto s = datagen::GenerateMaritimeScenario(p);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s->store);
}

traj::TrajectoryStore MakeUrban() {
  datagen::UrbanScenarioParams p;
  p.num_vehicles = 12;
  p.sample_dt = 20.0;
  p.time_span = 900.0;
  p.seed = 14;
  auto s = datagen::GenerateUrbanScenario(p);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s->store);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// The query surface compared across topologies. QUT parameters derive
/// from the store's time domain so every domain gets a meaningful tree.
std::vector<std::string> QuerySuite(const std::string& mod,
                                    const traj::TrajectoryStore& store) {
  const auto [t0, t1] = store.TimeDomain();
  const double tau = (t1 - t0) / 2;
  return {
      "SELECT STATS(" + mod + ");",
      "SELECT RANGE(" + mod + ", " + std::to_string(t0) + ", " +
          std::to_string(t1 + 1) + ");",
      "SELECT S2T_MEMBERS(" + mod + ", 800, 1600);",
      "SELECT QUT(" + mod + ", " + std::to_string(t0) + ", " +
          std::to_string(t1 + 1) + ", " + std::to_string(tau) + ", " +
          std::to_string(tau / 4) + ", " + std::to_string(tau / 4) +
          ", 1600, 8);",
  };
}

/// Runs the suite, asserting every statement succeeds.
std::vector<Table> RunSuite(sql::StatementExecutor* db,
                            const std::vector<std::string>& suite) {
  std::vector<Table> out;
  for (const auto& q : suite) {
    auto t = db->Execute(q);
    EXPECT_TRUE(t.ok()) << q << ": " << t.status().ToString();
    out.push_back(t.ok() ? std::move(*t) : Table{});
  }
  return out;
}

/// Bit-exact table equality: schema, row count, and every Value
/// (doubles compare by representation, not tolerance).
void ExpectTablesEqual(const Table& want, const Table& got,
                       const std::string& label) {
  ASSERT_EQ(want.columns.size(), got.columns.size()) << label;
  for (size_t c = 0; c < want.columns.size(); ++c) {
    EXPECT_EQ(want.columns[c].name, got.columns[c].name) << label;
    EXPECT_EQ(want.columns[c].type, got.columns[c].type) << label;
  }
  ASSERT_EQ(want.rows.size(), got.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(want.rows[r].size(), got.rows[r].size()) << label;
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_TRUE(want.rows[r][c] == got.rows[r][c])
          << label << " row " << r << " col " << c << ": "
          << want.rows[r][c].ToString() << " vs "
          << got.rows[r][c].ToString();
    }
  }
}

/// Streams one trajectory through the statement plane as a single
/// all-placeholder INSERT with typed binds — coordinates round-trip
/// exactly, so sharded ingest can be bit-compared against RegisterStore.
Status InsertTrajectory(sql::StatementExecutor* db, const std::string& mod,
                        const traj::Trajectory& t) {
  std::string text = "INSERT INTO " + mod + " VALUES ";
  std::vector<Value> binds;
  binds.reserve(t.size() * 4);
  for (size_t i = 0; i < t.size(); ++i) {
    const auto& p = t.samples()[i];
    if (i > 0) text += ", ";
    text += "($" + std::to_string(4 * i + 1) + ", $" +
            std::to_string(4 * i + 2) + ", $" + std::to_string(4 * i + 3) +
            ", $" + std::to_string(4 * i + 4) + ")";
    binds.push_back(Value::Int(static_cast<int64_t>(t.object_id())));
    binds.push_back(Value::Double(p.t));
    binds.push_back(Value::Double(p.x));
    binds.push_back(Value::Double(p.y));
  }
  text += ";";
  HERMES_ASSIGN_OR_RETURN(sql::PreparedHandle handle, db->Prepare(text));
  StatusOr<Table> ack = db->BindExecute(handle.id, binds);
  (void)db->ClosePrepared(handle.id);
  return ack.status();
}

/// Unsharded oracle: one service::Server holding `store` whole.
std::unique_ptr<service::Server> StartBaseline(
    const traj::TrajectoryStore& store, const std::string& mod) {
  service::ServerOptions opts;
  opts.threads = 2;
  auto server = std::move(service::Server::Start(std::move(opts))).value();
  traj::TrajectoryStore copy = store;
  EXPECT_TRUE(server->RegisterStore(mod, std::move(copy)).ok());
  return server;
}

// ---------------------------------------------------------------------------
// ServiceConfig validation
// ---------------------------------------------------------------------------

TEST(ServiceConfigTest, RejectsZeroShards) {
  service::ServiceConfig config;
  config.shards = 0;
  auto st = config.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shards must be >= 1"), std::string::npos)
      << st.ToString();
}

TEST(ServiceConfigTest, SingleShardKeepsPlainDirs) {
  service::ServiceConfig config;
  config.wal_dir = "walroot";
  config.data_dir = "dataroot";
  EXPECT_EQ(config.ShardWalDir(0), "walroot");
  EXPECT_EQ(config.ShardDataDir(0), "dataroot");

  config.shards = 2;
  EXPECT_EQ(config.ShardWalDir(0), "walroot/shard0");
  EXPECT_EQ(config.ShardWalDir(1), "walroot/shard1");
  EXPECT_EQ(config.ShardDataDir(1), "dataroot/shard1");
}

TEST(ServiceConfigTest, DefaultsValidate) {
  EXPECT_TRUE(service::ServiceConfig{}.Validate().ok());
}

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(HashPartitionerTest, DeterministicInRangeAndSpreads) {
  auto part = MakeHashPartitioner();
  std::set<size_t> hit;
  for (uint64_t id = 0; id < 1000; ++id) {
    const size_t s = part->ShardOf(id, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, part->ShardOf(id, 4));  // stable across calls
    hit.insert(s);
    EXPECT_EQ(part->ShardOf(id, 1), 0u);  // single shard short-circuits
  }
  EXPECT_EQ(hit.size(), 4u) << "1000 ids left a shard empty";
}

// ---------------------------------------------------------------------------
// Startup
// ---------------------------------------------------------------------------

TEST(CoordinatorStartTest, RecoveryFailureNamesShardAndUnwinds) {
  auto env = storage::Env::NewMemEnv();
  service::ServiceConfig config;
  config.shards = 2;
  config.wal_dir = "walroot";

  // Corrupt shard 1's checkpoint manifest: recovery must fail, the
  // Status must say *which* shard, and no half-started topology leaks.
  ASSERT_TRUE(env->CreateDirs("walroot/shard1").ok());
  auto file = env->NewRWFile("walroot/shard1/MANIFEST");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->WriteAt(0, 4, "junk").ok());

  auto coord = Coordinator::Start(config, env.get());
  ASSERT_FALSE(coord.ok());
  EXPECT_NE(coord.status().message().find("shard 1: "), std::string::npos)
      << coord.status().ToString();

  // Shard 0 was unwound: a retry with the corruption cleared starts
  // cleanly against the same env (nothing held or leaked).
  ASSERT_TRUE(env->DeleteFile("walroot/shard1/MANIFEST").ok());
  auto retry = Coordinator::Start(config, env.get());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  (*retry)->Shutdown();
}

TEST(CoordinatorStartTest, RejectsInvalidConfig) {
  service::ServiceConfig config;
  config.shards = 0;
  EXPECT_FALSE(Coordinator::Start(config).ok());
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the acceptance criterion
// ---------------------------------------------------------------------------

struct Domain {
  const char* name;
  traj::TrajectoryStore store;
};

std::vector<Domain> Domains() {
  std::vector<Domain> out;
  out.push_back({"aircraft", MakeAircraft()});
  out.push_back({"maritime", MakeMaritime()});
  out.push_back({"urban", MakeUrban()});
  return out;
}

TEST(ShardInvarianceTest, ResultsBitIdenticalAcrossShardCounts) {
  for (auto& domain : Domains()) {
    SCOPED_TRACE(domain.name);
    const auto suite = QuerySuite("mod", domain.store);

    auto baseline = StartBaseline(domain.store, "mod");
    auto oracle_db =
        service::MakeStatementExecutor(baseline->Connect());
    const std::vector<Table> want = RunSuite(oracle_db.get(), suite);

    for (const size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      service::ServiceConfig config;
      config.shards = shards;
      config.threads = 2;
      auto coord_or = Coordinator::Start(config);
      ASSERT_TRUE(coord_or.ok()) << coord_or.status().ToString();
      auto coord = std::move(*coord_or);
      auto db = coord->Connect();

      // Ingest through the routed statement plane, not RegisterStore:
      // this is the path a real client takes.
      ASSERT_TRUE(db->Execute("CREATE MOD mod;").ok());
      for (traj::TrajectoryId tid = 0;
           tid < domain.store.NumTrajectories(); ++tid) {
        auto st = InsertTrajectory(db.get(), "mod", domain.store.Get(tid));
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      ASSERT_TRUE(db->Execute("FLUSH;").ok());

      const std::vector<Table> got = RunSuite(db.get(), suite);
      ASSERT_EQ(want.size(), got.size());
      for (size_t q = 0; q < want.size(); ++q) {
        ExpectTablesEqual(want[q], got[q], suite[q]);
      }
      coord->Shutdown();
    }
    baseline->Shutdown();
  }
}

TEST(ShardInvarianceTest, RegisterStorePartitionsMatchUnsharded) {
  // Bulk seeding (RegisterStore) splits by the partitioner; the merged
  // snapshot must still equal the unsharded store.
  auto store = MakeMaritime();
  const auto suite = QuerySuite("ships", store);
  auto baseline = StartBaseline(store, "ships");
  auto oracle_db = service::MakeStatementExecutor(baseline->Connect());
  const std::vector<Table> want = RunSuite(oracle_db.get(), suite);

  service::ServiceConfig config;
  config.shards = 4;
  auto coord = std::move(Coordinator::Start(config)).value();
  traj::TrajectoryStore copy = store;
  ASSERT_TRUE(coord->RegisterStore("ships", std::move(copy)).ok());
  auto db = coord->Connect();
  const std::vector<Table> got = RunSuite(db.get(), suite);
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectTablesEqual(want[q], got[q], suite[q]);
  }
  coord->Shutdown();
  baseline->Shutdown();
}

// ---------------------------------------------------------------------------
// Concurrent ingest
// ---------------------------------------------------------------------------

TEST(ShardConcurrencyTest, ReadersSeeMonotonicSnapshotsDuringIngest) {
  const auto store = MakeMaritime();
  const auto [t0, t1] = store.TimeDomain();
  const std::string range_sql = "SELECT RANGE(ships, " + std::to_string(t0) +
                                ", " + std::to_string(t1 + 1) + ");";
  const size_t initial = store.NumTrajectories() / 2;

  service::ServiceConfig config;
  config.shards = 2;
  config.threads = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  traj::TrajectoryStore seed;
  for (traj::TrajectoryId tid = 0; tid < initial; ++tid) {
    ASSERT_TRUE(seed.Add(store.Get(tid)).ok());
  }
  ASSERT_TRUE(coord->RegisterStore("ships", std::move(seed)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int rix = 0; rix < 3; ++rix) {
    readers.emplace_back([&] {
      auto session = coord->Connect();
      size_t last_rows = 0;
      while (!done.load(std::memory_order_relaxed)) {
        auto members = session->Execute("SELECT S2T_MEMBERS(ships);");
        auto range = session->Execute(range_sql);
        if (!members.ok() || !range.ok()) {
          ++failures;
          return;
        }
        // Merged snapshots only ever grow: each shard publishes id-order
        // prefixes, and the merge is a deterministic function of them.
        if (range->rows.size() < last_rows) {
          ++failures;
          return;
        }
        last_rows = range->rows.size();
      }
    });
  }

  {
    auto writer = coord->Connect();
    for (traj::TrajectoryId tid = initial; tid < store.NumTrajectories();
         ++tid) {
      ASSERT_TRUE(InsertTrajectory(writer.get(), "ships",
                                   store.Get(tid)).ok());
    }
    ASSERT_TRUE(writer->Execute("FLUSH;").ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-flush the sharded state must equal the unsharded full store.
  auto baseline = StartBaseline(store, "ships");
  auto oracle_db = service::MakeStatementExecutor(baseline->Connect());
  const auto suite = QuerySuite("ships", store);
  const auto want = RunSuite(oracle_db.get(), suite);
  auto db = coord->Connect();
  const auto got = RunSuite(db.get(), suite);
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectTablesEqual(want[q], got[q], suite[q]);
  }
  coord->Shutdown();
  baseline->Shutdown();
}

// ---------------------------------------------------------------------------
// Routing semantics
// ---------------------------------------------------------------------------

TEST(ShardRoutingTest, DdlBroadcastsToEveryShard) {
  service::ServiceConfig config;
  config.shards = 3;
  auto coord = std::move(Coordinator::Start(config)).value();
  auto db = coord->Connect();
  ASSERT_TRUE(db->Execute("CREATE MOD fleet;").ok());

  // Every shard owns the catalog entry (a per-shard session sees it).
  for (size_t k = 0; k < coord->num_shards(); ++k) {
    auto shard_db =
        service::MakeStatementExecutor(coord->shard(k)->Connect());
    auto stats = shard_db->Execute("SELECT STATS(fleet);");
    EXPECT_TRUE(stats.ok())
        << "shard " << k << ": " << stats.status().ToString();
  }

  // Errors keep parity with the unsharded server (lockstep catalogs fail
  // identically everywhere, so no shard prefix is added).
  auto dup = db->Execute("CREATE MOD fleet;");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().message().find("shard"), std::string::npos)
      << dup.status().ToString();

  ASSERT_TRUE(db->Execute("DROP MOD fleet;").ok());
  for (size_t k = 0; k < coord->num_shards(); ++k) {
    auto shard_db =
        service::MakeStatementExecutor(coord->shard(k)->Connect());
    EXPECT_FALSE(shard_db->Execute("SELECT STATS(fleet);").ok());
  }
  coord->Shutdown();
}

TEST(ShardRoutingTest, InsertRoutesByPartitioner) {
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  auto db = coord->Connect();
  ASSERT_TRUE(db->Execute("CREATE MOD m;").ok());
  // Objects 0..7, two points each, routed through plain-text INSERT.
  for (int id = 0; id < 8; ++id) {
    const std::string text =
        "INSERT INTO m VALUES (" + std::to_string(id) + ", 0, 0, 0), (" +
        std::to_string(id) + ", 60, 100, 0);";
    ASSERT_TRUE(db->Execute(text).ok());
  }
  ASSERT_TRUE(db->Execute("FLUSH;").ok());

  const auto& part = coord->partitioner();
  for (size_t k = 0; k < coord->num_shards(); ++k) {
    size_t expect = 0;
    for (uint64_t id = 0; id < 8; ++id) {
      if (part.ShardOf(id, coord->num_shards()) == k) ++expect;
    }
    EXPECT_EQ(coord->shard(k)->Stats().trajectories_ingested, expect)
        << "shard " << k;
  }
  coord->Shutdown();
}

TEST(ShardRoutingTest, ShowServiceStatsAggregatesWithBreakdown) {
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  const traj::TrajectoryStore store = MakeMaritime();
  const size_t total_trajectories = store.NumTrajectories();
  auto db = coord->Connect();
  // Ingest through the routed statement plane so the per-shard ingest
  // counters (what this test folds) actually tick.
  ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
  for (traj::TrajectoryId tid = 0; tid < store.NumTrajectories(); ++tid) {
    ASSERT_TRUE(InsertTrajectory(db.get(), "ships", store.Get(tid)).ok());
  }
  ASSERT_TRUE(db->Execute("FLUSH;").ok());

  auto table = db->Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  int64_t shards_row = -1, total = -1, shard0 = -1, shard1 = -1, mods = -1;
  for (const auto& row : table->rows) {
    const std::string& name = row[0].AsString();
    if (name == "shards") shards_row = row[1].AsInt();
    if (name == "trajectories_ingested") total = row[1].AsInt();
    if (name == "shard0.trajectories_ingested") shard0 = row[1].AsInt();
    if (name == "shard1.trajectories_ingested") shard1 = row[1].AsInt();
    if (name == "mods") mods = row[1].AsInt();
  }
  EXPECT_EQ(shards_row, 2);
  EXPECT_EQ(static_cast<size_t>(total), total_trajectories);
  EXPECT_EQ(total, shard0 + shard1);  // exact fold, no double counting
  EXPECT_EQ(mods, 1);  // broadcast DDL: max, not sum
  coord->Shutdown();
}

TEST(ShardRoutingTest, LongLiteralInsertMatchesUnsharded) {
  // One object of 300 points: 1200 values, more than the 999 `$N`
  // placeholders one statement can carry.
  std::string insert = "INSERT INTO m VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) insert += ", ";
    insert += "(7, " + std::to_string(i * 10) + ", " +
              std::to_string(i * 3.25) + ", " + std::to_string(100.5 - i) +
              ")";
  }
  insert += ";";
  const std::vector<std::string> reads = {"SELECT RANGE(m, 0, 3000);",
                                          "SELECT STATS(m);"};
  auto load = [&](sql::StatementExecutor* db) {
    EXPECT_TRUE(db->Execute("CREATE MOD m;").ok());
    auto ack = db->Execute(insert);
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_TRUE(db->Flush().ok());
    return RunSuite(db, reads);
  };

  auto server =
      std::move(service::Server::Start(service::ServerOptions{})).value();
  auto single = service::MakeStatementExecutor(server->Connect());
  const std::vector<Table> want = load(single.get());
  ASSERT_EQ(want[0].rows.size(), 1u);

  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  auto coord_db = coord->Connect();
  auto net = std::move(net::NetServer::Start(
                           [raw = coord.get()] { return raw->Connect(); },
                           net::NetServerOptions{}))
                 .value();
  auto wire_db = net::MakeStatementExecutor(
      std::move(net::Client::Connect("127.0.0.1", net->port())).value());
  for (sql::StatementExecutor* db : {coord_db.get(), wire_db.get()}) {
    const std::vector<Table> got = load(db);
    for (size_t q = 0; q < reads.size(); ++q) {
      ExpectTablesEqual(want[q], got[q], reads[q]);
    }
    ASSERT_TRUE(db->Execute("DROP MOD m;").ok());
  }
  net->Shutdown();
  coord->Shutdown();
  server->Shutdown();
}

TEST(ShardRoutingTest, SessionCountersCountCoordinatorSessions) {
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  std::vector<std::unique_ptr<sql::StatementExecutor>> sessions;
  for (int i = 0; i < 3; ++i) sessions.push_back(coord->Connect());
  auto table = sessions[0]->Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  int64_t opened = -1, active = -1, shard0_active = -1;
  for (const auto& row : table->rows) {
    const std::string& name = row[0].AsString();
    if (name == "sessions_opened") opened = row[1].AsInt();
    if (name == "sessions_active") active = row[1].AsInt();
    if (name == "shard0.sessions_active") shard0_active = row[1].AsInt();
  }
  EXPECT_EQ(opened, 3);
  EXPECT_EQ(active, 3);
  EXPECT_EQ(shard0_active, 0);
  sessions.pop_back();
  EXPECT_EQ(coord->Stats().total.sessions_active, 2u);
  sessions.clear();
  coord->Shutdown();
}

// ---------------------------------------------------------------------------
// One API, every backend
// ---------------------------------------------------------------------------

TEST(StatementExecutorParityTest, EmbeddedServiceCoordinatorAndWireAgree) {
  const auto store = MakeMaritime();
  const auto suite = QuerySuite("ships", store);

  // Embedded session.
  sql::Session session;
  {
    traj::TrajectoryStore copy = store;
    ASSERT_TRUE(session.RegisterStore("ships", std::move(copy)).ok());
  }
  auto embedded = sql::MakeSessionExecutor(&session);
  const auto want = RunSuite(embedded.get(), suite);

  // Service session.
  auto server = StartBaseline(store, "ships");
  auto service_db = service::MakeStatementExecutor(server->Connect());

  // Coordinator session (2 shards).
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  {
    traj::TrajectoryStore copy = store;
    ASSERT_TRUE(coord->RegisterStore("ships", std::move(copy)).ok());
  }
  auto coord_db = coord->Connect();

  // Remote client over the wire protocol, fronting the coordinator.
  auto net = std::move(net::NetServer::Start(
                           [raw = coord.get()] { return raw->Connect(); },
                           net::NetServerOptions{}))
                 .value();
  auto client = std::move(net::Client::Connect("127.0.0.1", net->port()))
                    .value();
  auto wire_db = net::MakeStatementExecutor(std::move(client));

  for (auto* db : {service_db.get(), coord_db.get(), wire_db.get()}) {
    const auto got = RunSuite(db, suite);
    for (size_t q = 0; q < want.size(); ++q) {
      ExpectTablesEqual(want[q], got[q], suite[q]);
    }
  }

  // Prepared statements behave identically through every backend.
  const auto [t0, t1] = store.TimeDomain();
  for (auto* db : {embedded.get(), service_db.get(), coord_db.get(),
                   wire_db.get()}) {
    auto prepared = db->Prepare("SELECT RANGE(ships, $1, $2);");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_EQ(prepared->num_params, 2);
    auto bound = db->BindExecute(
        prepared->id, {Value::Double(t0), Value::Double(t1 + 1)});
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    EXPECT_EQ(bound->rows.size(), store.NumTrajectories());
    EXPECT_TRUE(db->ClosePrepared(prepared->id).ok());
    EXPECT_FALSE(db->BindExecute(prepared->id, {Value::Double(t0),
                                                Value::Double(t1)})
                     .ok());
  }

  net->Shutdown();
  coord->Shutdown();
  server->Shutdown();
}

/// Forwards to a MemEnv and tracks which files exist, so a test can see
/// which tree directories still hold files.
class TrackingEnv final : public storage::Env {
 public:
  StatusOr<std::unique_ptr<storage::RandomRWFile>> NewRWFile(
      const std::string& fname) override {
    {
      common::MutexLock lock(&mu_);
      files_.insert(fname);
    }
    return base_->NewRWFile(fname);
  }
  bool FileExists(const std::string& fname) const override {
    return base_->FileExists(fname);
  }
  Status DeleteFile(const std::string& fname) override {
    Status st = base_->DeleteFile(fname);
    common::MutexLock lock(&mu_);
    if (st.ok()) files_.erase(fname);
    return st;
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    Status st = base_->RenameFile(src, dst);
    common::MutexLock lock(&mu_);
    if (st.ok()) {
      files_.erase(src);
      files_.insert(dst);
    }
    return st;
  }
  Status CreateDirs(const std::string& dirname) override {
    return base_->CreateDirs(dirname);
  }
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dirname) const override {
    return base_->ListDir(dirname);
  }

  /// Directories holding at least one file whose directory name contains
  /// `marker`.
  std::set<std::string> DirsWith(const std::string& marker) const {
    common::MutexLock lock(&mu_);
    std::set<std::string> dirs;
    for (const std::string& f : files_) {
      const std::string dir = f.substr(0, f.rfind('/'));
      if (dir.find(marker) != std::string::npos) dirs.insert(dir);
    }
    return dirs;
  }

 private:
  std::unique_ptr<storage::Env> base_ = storage::Env::NewMemEnv();
  mutable common::Mutex mu_;
  std::set<std::string> files_ GUARDED_BY(mu_);
};

/// The four backends of the parity tests, each over its own empty
/// catalog: embedded session, service session, 2-shard coordinator (over
/// `coord_env`), and a wire client fronting another service server.
struct Backends {
  Backends() {
    embedded_db = sql::MakeSessionExecutor(&session);
    server = std::move(service::Server::Start(service::ServerOptions{}))
                 .value();
    service_db = service::MakeStatementExecutor(server->Connect());
    service::ServiceConfig config;
    config.shards = 2;
    coord = std::move(Coordinator::Start(config, &coord_env)).value();
    coord_db = coord->Connect();
    wire_server = std::move(service::Server::Start(service::ServerOptions{}))
                      .value();
    net = std::move(net::NetServer::Start(wire_server.get(),
                                          net::NetServerOptions{}))
              .value();
    wire_db = net::MakeStatementExecutor(
        std::move(net::Client::Connect("127.0.0.1", net->port())).value());
  }
  ~Backends() {
    net->Shutdown();
    coord->Shutdown();
    server->Shutdown();
    wire_server->Shutdown();
  }

  std::vector<sql::StatementExecutor*> All() {
    return {embedded_db.get(), service_db.get(), coord_db.get(),
            wire_db.get()};
  }

  sql::Session session;
  std::unique_ptr<sql::StatementExecutor> embedded_db;
  std::unique_ptr<service::Server> server;
  std::unique_ptr<sql::StatementExecutor> service_db;
  TrackingEnv coord_env;
  std::unique_ptr<Coordinator> coord;
  std::unique_ptr<sql::StatementExecutor> coord_db;
  std::unique_ptr<service::Server> wire_server;
  std::unique_ptr<net::NetServer> net;
  std::unique_ptr<sql::StatementExecutor> wire_db;
};

/// QUT over the whole time domain with a tree that forms clusters on the
/// maritime domain; `split` varies the tree parameters.
std::string ClusteringQut(const std::string& mod,
                          const traj::TrajectoryStore& store, double split) {
  const auto [t0, t1] = store.TimeDomain();
  const double tau = (t1 - t0) / split;
  return "SELECT QUT(" + mod + ", " + std::to_string(t0) + ", " +
         std::to_string(t1 + 1) + ", " + std::to_string(tau) + ", " +
         std::to_string(tau / 4) + ", " + std::to_string(tau / 4) +
         ", 1600, 4);";
}

TEST(StatementExecutorParityTest, InterleavedIngestAndQutAgreeAcrossBackends) {
  // Each backend keeps its QUT tree its own way — the embedded session
  // and the service catch it up after ingest, the coordinator rebuilds
  // it when its merge moves — and every answer must match bit for bit.
  const auto store = MakeMaritime();
  Backends b;
  std::vector<std::vector<Table>> answers;
  for (sql::StatementExecutor* db : b.All()) {
    std::vector<Table> got;
    ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
    traj::TrajectoryId next = 0;
    for (const traj::TrajectoryId upto : {4, 7, 12}) {
      for (; next < upto; ++next) {
        ASSERT_TRUE(InsertTrajectory(db, "ships", store.Get(next)).ok());
      }
      ASSERT_TRUE(db->Flush().ok());
      // New parameters rebuild; the repeat after the next ingest round
      // catches up (or, sharded, rebuilds).
      for (const double split : {8.0, 6.0}) {
        for (const std::string& q :
             {ClusteringQut("ships", store, split),
              std::string("SELECT STATS(ships);")}) {
          auto t = db->Execute(q);
          ASSERT_TRUE(t.ok()) << q << ": " << t.status().ToString();
          got.push_back(std::move(*t));
        }
      }
    }
    answers.push_back(std::move(got));
  }
  bool clustered = false;  // Some QUT answer holds a cluster.
  for (const Table& t : answers[0]) {
    clustered = clustered || (t.columns[0].name == "cluster_id" &&
                              t.rows.size() >= 2);
  }
  EXPECT_TRUE(clustered);
  for (size_t k = 1; k < answers.size(); ++k) {
    ASSERT_EQ(answers[k].size(), answers[0].size());
    for (size_t q = 0; q < answers[0].size(); ++q) {
      ExpectTablesEqual(answers[0][q], answers[k][q],
                        "backend " + std::to_string(k) + " answer " +
                            std::to_string(q));
    }
  }
  EXPECT_GE(b.server->Stats().tree_catchups, 1u);
}

TEST(StatementExecutorParityTest, NonFiniteS2TBandwidthsRejectedEverywhere) {
  const auto store = MakeMaritime();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Backends b;
  for (sql::StatementExecutor* db : b.All()) {
    ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
    for (traj::TrajectoryId i = 0; i < 4; ++i) {
      ASSERT_TRUE(InsertTrajectory(db, "ships", store.Get(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    for (const char* bad : {"SELECT S2T_MEMBERS(ships, 1e999, 3000);",
                            "SELECT S2T_MEMBERS(ships, 800, 1e999);"}) {
      EXPECT_TRUE(db->Execute(bad).status().IsInvalidArgument()) << bad;
    }
    auto prepared = db->Prepare("SELECT S2T_MEMBERS(ships, $1, $2);");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_TRUE(db->BindExecute(prepared->id,
                                {Value::Double(nan), Value::Double(3000)})
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(db->BindExecute(prepared->id,
                                {Value::Double(800), Value::Double(1600)})
                    .ok());
  }
}

TEST(StatementExecutorParityTest, OneSampleObjectsChangeNothing) {
  const auto store = MakeMaritime();
  const std::string csv =
      (std::filesystem::temp_directory_path() / "hermes_one_sample.csv")
          .string();
  {
    // Two well-formed objects and one with a single sample.
    std::ofstream out(csv);
    out << "obj_id,t,x,y\n"
        << "500,0,0,0\n500,60,100,0\n"
        << "501,0,10,10\n"
        << "502,0,50,50\n502,60,150,50\n";
  }
  // Several objects, so the statement spans both shards; one of them
  // has a single sample.
  std::string insert = "INSERT INTO ships VALUES (999, 0, 0, 0)";
  for (int id = 1000; id < 1008; ++id) {
    insert += ", (" + std::to_string(id) + ", 0, 0, 0), (" +
              std::to_string(id) + ", 60, 100, 0)";
  }
  insert += ";";
  const std::string qut = ClusteringQut("ships", store, 8.0);

  Backends b;
  std::vector<Table> quts;
  for (sql::StatementExecutor* db : b.All()) {
    ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
    for (traj::TrajectoryId i = 0; i < store.NumTrajectories(); ++i) {
      ASSERT_TRUE(InsertTrajectory(db, "ships", store.Get(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    auto before = db->Execute("SELECT STATS(ships);");
    ASSERT_TRUE(before.ok());

    auto load = db->Execute("LOAD MOD ships FROM '" + csv + "';");
    ASSERT_FALSE(load.ok());
    EXPECT_EQ(load.status().code(), StatusCode::kInvalidArgument)
        << load.status().ToString();
    auto fresh = db->Execute("LOAD MOD other FROM '" + csv + "';");
    ASSERT_FALSE(fresh.ok());
    EXPECT_EQ(fresh.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(db->Execute("SELECT STATS(other);").ok());  // No phantom.

    // Every backend rejects the whole statement before any of it is
    // applied or queued (sharded: before any shard queues its part).
    auto ins = db->Execute(insert);
    ASSERT_FALSE(ins.ok());
    EXPECT_EQ(ins.status().code(), StatusCode::kInvalidArgument)
        << ins.status().ToString();
    ASSERT_TRUE(db->Flush().ok());
    auto after = db->Execute("SELECT STATS(ships);");
    ASSERT_TRUE(after.ok());
    ExpectTablesEqual(*before, *after, "STATS");

    auto q = db->Execute(qut);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    quts.push_back(std::move(*q));
  }
  for (size_t k = 1; k < quts.size(); ++k) {
    ExpectTablesEqual(quts[0], quts[k], "QUT " + std::to_string(k));
  }
  EXPECT_EQ(b.server->Stats().ingest_errors, 0u);
  std::filesystem::remove(csv);
}

TEST(StatementExecutorParityTest, EpochScaleQutFailsWithoutAbort) {
  // Epoch-millisecond timestamps with a 1-unit delta put the sub-chunk
  // index near 1e12, outside the tree's derived-id key space: the QUT
  // must fail with a Status on every backend, and the backend must go on
  // answering.
  const std::vector<std::string> setup = {
      "CREATE MOD epoch;",
      "INSERT INTO epoch VALUES (1, 1000000000000, 0, 0), "
      "(1, 1000000000001, 10, 0), (2, 1000000000000, 0, 5), "
      "(2, 1000000000001, 10, 5);"};
  const std::string bad =
      "SELECT QUT(epoch, 1e12, 1000000000002, 10, 1, 225, 1600, 2);";
  const std::string good =
      "SELECT QUT(epoch, 1e12, 1000000000002, 1e6, 1e5, 225, 1600, 2);";
  Backends b;
  for (sql::StatementExecutor* db :
       {b.embedded_db.get(), b.service_db.get(), b.coord_db.get()}) {
    for (const std::string& q : setup) ASSERT_TRUE(db->Execute(q).ok()) << q;
    ASSERT_TRUE(db->Flush().ok());
    auto t = db->Execute(bad);
    ASSERT_FALSE(t.ok());
    EXPECT_TRUE(t.status().IsInvalidArgument()) << t.status().ToString();
    auto ok = db->Execute(good);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_GE(ok->rows.size(), 1u);
  }
  auto wire =
      std::move(net::Client::Connect("127.0.0.1", b.net->port())).value();
  for (const std::string& q : setup) ASSERT_TRUE(wire->Execute(q).ok()) << q;
  ASSERT_TRUE(wire->Flush().ok());
  auto t = wire->Execute(bad);
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsInvalidArgument()) << t.status().ToString();
  EXPECT_TRUE(wire->Ping().ok());
  auto ok = wire->Execute(good);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GE(ok->rows.size(), 1u);
}

TEST(StatementExecutorParityTest, OutOfDomainQutTreeParamsFailOnEveryBackend) {
  // Each bad tree parameter fails with InvalidArgument naming it, before
  // any tree is built, and the live tree keeps answering afterwards.
  const std::vector<std::string> setup = {
      "CREATE MOD qp;",
      "INSERT INTO qp VALUES (1, 0, 0, 0), (1, 10, 10, 0), (2, 0, 0, 5), "
      "(2, 10, 10, 5);"};
  const std::string good = "SELECT QUT(qp, 0, 20, 10, 5, 5, 100, 2);";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"SELECT QUT(qp, 0, 20, 10, 5, 5, 100, -1);", "gamma"},
      {"SELECT QUT(qp, 0, 20, 10, 5, 5, 100, 1e30);", "gamma"},
      {"SELECT QUT(qp, 0, 20, 10, 5, 5, 100, 4294967296);", "gamma"},
      {"SELECT QUT(qp, 0, 20, 10, 5, -5, -100, 2);", "QUT t "},
      {"SELECT QUT(qp, 0, 20, 1e999, 5, 5, 100, 2);", "tau"},
      {"SELECT QUT(qp, 0, 20, 10, 0, 5, 100, 2);", "delta"},
      {"SELECT QUT(qp, 0, 20, 10, 5, 5, 0, 2);", "QUT d "}};
  auto expect_rejected = [](const StatusOr<Table>& t, const std::string& name,
                            const std::string& what) {
    ASSERT_FALSE(t.ok()) << what;
    EXPECT_TRUE(t.status().IsInvalidArgument()) << t.status().ToString();
    EXPECT_NE(t.status().ToString().find(name), std::string::npos)
        << t.status().ToString();
  };
  Backends b;
  for (sql::StatementExecutor* db : b.All()) {
    for (const std::string& q : setup) ASSERT_TRUE(db->Execute(q).ok()) << q;
    ASSERT_TRUE(db->Flush().ok());
    auto before = db->Execute(good);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    for (const auto& [q, name] : bad) expect_rejected(db->Execute(q), name, q);
    auto prepared =
        db->Prepare("SELECT QUT(qp, 0, 20, 10, 5, 5, 100, $1);");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    expect_rejected(db->BindExecute(prepared->id, {Value::Double(nan)}),
                    "gamma", "NaN bind");
    EXPECT_TRUE(db->ClosePrepared(prepared->id).ok());
    auto after = db->Execute(good);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after->ToString(), before->ToString());
  }
  auto wire =
      std::move(net::Client::Connect("127.0.0.1", b.net->port())).value();
  expect_rejected(wire->Execute(bad[0].first), "gamma", bad[0].first);
  EXPECT_TRUE(wire->Ping().ok());
  EXPECT_TRUE(wire->Execute(good).ok());
}

TEST(StatementExecutorParityTest, NonNumericWindowFailsOnEveryBackend) {
  // A NaN window bound bound into a prepared RANGE or QUT fails with
  // InvalidArgument naming it (it used to abort the process), and an
  // infinite window still answers over the whole domain.
  const std::vector<std::string> setup = {
      "CREATE MOD qp;",
      "INSERT INTO qp VALUES (1, 0, 0, 0), (1, 10, 10, 0), (2, 0, 0, 5), "
      "(2, 10, 10, 5);"};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // An empty window (We <= Wi) fails before any tree is built, so a MOD
  // no QUT has touched yet gets none.
  const auto store = MakeMaritime();
  const auto [t0, t1] = store.TimeDomain();
  const double tau = (t1 - t0) / 8;
  const std::string tree = ", " + std::to_string(tau) + ", " +
                           std::to_string(tau / 4) + ", " +
                           std::to_string(tau / 4) + ", 1600, 4);";
  const std::vector<std::string> empty = {
      "SELECT QUT(fresh, " + std::to_string(t1) + ", " + std::to_string(t0) +
          tree,
      "SELECT QUT(fresh, " + std::to_string(t0) + ", " + std::to_string(t0) +
          tree};
  Backends b;
  for (sql::StatementExecutor* db : b.All()) {
    ASSERT_TRUE(db->Execute("CREATE MOD fresh;").ok());
    for (traj::TrajectoryId i = 0; i < store.NumTrajectories(); ++i) {
      ASSERT_TRUE(InsertTrajectory(db, "fresh", store.Get(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    for (const std::string& q : empty) {
      auto t = db->Execute(q);
      ASSERT_FALSE(t.ok()) << q;
      EXPECT_TRUE(t.status().IsInvalidArgument()) << t.status().ToString();
      EXPECT_NE(t.status().ToString().find("empty window"), std::string::npos)
          << t.status().ToString();
    }
  }
  auto phases = b.embedded_db->Execute("SHOW STATS;");
  ASSERT_TRUE(phases.ok()) << phases.status().ToString();
  for (const auto& row : phases->rows) {
    EXPECT_NE(row[0], Value::Str("ingest_split"));
  }
  auto served = b.service_db->Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  for (const auto& row : served->rows) {
    if (row[0] == Value::Str("ingest_split_us")) {
      EXPECT_EQ(row[1], Value::Int(0));
    }
  }
  EXPECT_TRUE(b.coord_env.DirsWith("coord/FRESH_").empty());

  for (sql::StatementExecutor* db : b.All()) {
    for (const std::string& q : setup) ASSERT_TRUE(db->Execute(q).ok()) << q;
    ASSERT_TRUE(db->Flush().ok());
    for (const std::string text :
         {"SELECT RANGE(qp, $1, $2);",
          "SELECT QUT(qp, $1, $2, 10, 5, 5, 100, 2);"}) {
      auto prepared = db->Prepare(text);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      for (const auto& [wi, we] : {std::pair{nan, 50.0}, std::pair{0.0, nan},
                                   std::pair{nan, nan}}) {
        auto t = db->BindExecute(prepared->id,
                                 {Value::Double(wi), Value::Double(we)});
        ASSERT_FALSE(t.ok()) << text;
        EXPECT_TRUE(t.status().IsInvalidArgument()) << t.status().ToString();
        EXPECT_NE(t.status().ToString().find("non-numeric window bound"),
                  std::string::npos)
            << t.status().ToString();
      }
      auto whole = db->BindExecute(prepared->id,
                                   {Value::Double(-inf), Value::Double(inf)});
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
      auto covering = db->BindExecute(
          prepared->id, {Value::Double(-1.0), Value::Double(20.0)});
      ASSERT_TRUE(covering.ok()) << covering.status().ToString();
      // QUT's last row echoes the window; every other cell must agree.
      ASSERT_EQ(whole->rows.size(), covering->rows.size()) << text;
      ASSERT_GE(whole->rows.size(), 2u) << text;
      for (size_t r = 0; r + 1 < whole->rows.size(); ++r) {
        EXPECT_EQ(whole->rows[r], covering->rows[r]) << text;
      }
      EXPECT_EQ(whole->rows.back()[1], covering->rows.back()[1]) << text;
      EXPECT_TRUE(db->ClosePrepared(prepared->id).ok());
    }
  }
}

TEST(StatementExecutorParityTest, LoadAgreesAcrossBackends) {
  // LOAD into a new MOD and into an existing one: every backend acks the
  // same totals and ends with the same rows.
  const auto store = MakeMaritime();
  const std::string csv =
      (std::filesystem::temp_directory_path() / "hermes_load_parity.csv")
          .string();
  {
    // Several objects, so the file spans both shards.
    std::ofstream out(csv);
    out << "obj_id,t,x,y\n";
    for (int id = 500; id < 508; ++id) {
      for (int s = 0; s < 3; ++s) {
        out << id << "," << s * 60 << "," << id + s * 100 << "," << s * 7
            << "\n";
      }
    }
  }
  const std::vector<std::string> steps = {
      "LOAD MOD fresh FROM '" + csv + "';",
      "SELECT STATS(fresh);",
      "SELECT RANGE(fresh, 0, 200);",
      "LOAD MOD ships FROM '" + csv + "';",
      "SELECT STATS(ships);",
      "SELECT RANGE(ships, 0, 200);"};
  Backends b;
  std::vector<std::vector<Table>> answers;
  for (sql::StatementExecutor* db : b.All()) {
    ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
    for (traj::TrajectoryId i = 0; i < 6; ++i) {
      ASSERT_TRUE(InsertTrajectory(db, "ships", store.Get(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    std::vector<Table> got;
    for (const std::string& q : steps) {
      auto t = db->Execute(q);
      ASSERT_TRUE(t.ok()) << q << ": " << t.status().ToString();
      got.push_back(std::move(*t));
    }
    answers.push_back(std::move(got));
  }
  // The acks' post-load trajectory totals: 8 loaded, then 6 + 8.
  EXPECT_EQ(answers[0][0].rows[0][1], Value::Int(8));
  EXPECT_EQ(answers[0][3].rows[0][1], Value::Int(14));
  for (size_t k = 1; k < answers.size(); ++k) {
    for (size_t q = 0; q < steps.size(); ++q) {
      ExpectTablesEqual(answers[0][q], answers[k][q],
                        "backend " + std::to_string(k) + ": " + steps[q]);
    }
  }
  std::filesystem::remove(csv);
}

TEST(StatementExecutorParityTest, CoordinatorHotTierRowsCountTheMergedTrees) {
  // QUT on a coordinator runs on the merged trees, so its total hot-tier
  // rows must read what a service session over the same data reads.
  const auto store = MakeMaritime();
  const std::vector<std::string> names = {
      "qut_hot_probes", "qut_cold_probes", "hot_promotions", "hot_demotions",
      "hot_index_bytes", "hot_partitions", "hot_pins_total"};
  Backends b;
  std::vector<std::vector<int64_t>> rows;
  for (sql::StatementExecutor* db : {b.service_db.get(), b.coord_db.get()}) {
    ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
    for (traj::TrajectoryId i = 0; i < store.NumTrajectories(); ++i) {
      ASSERT_TRUE(InsertTrajectory(db, "ships", store.Get(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    for (int r = 0; r < 3; ++r) {
      auto q = db->Execute(ClusteringQut("ships", store, 8.0));
      ASSERT_TRUE(q.ok()) << q.status().ToString();
    }
    auto stats = db->Execute("SHOW SERVICE STATS;");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    std::vector<int64_t> hot;
    for (const std::string& name : names) {
      for (const auto& row : stats->rows) {
        if (row[0] == Value::Str(name)) hot.push_back(row[1].AsInt());
      }
    }
    ASSERT_EQ(hot.size(), names.size());
    rows.push_back(std::move(hot));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(rows[0][i], rows[1][i]) << names[i];
  }
  EXPECT_GT(rows[1][0], 0);
}

// ---------------------------------------------------------------------------
// QUT tree lifecycle: retired trees leave no files behind
// ---------------------------------------------------------------------------

TEST(QutTreeLifecycleTest, RetiredTreesLeaveOneTreeOfFilesPerMod) {
  // Every round ingests, then queries with parameters the tree was not
  // built with (or, sharded, over a merge that moved): 20 retired trees.
  const auto store = MakeMaritime();
  constexpr int kRounds = 20;
  auto rounds = [&](sql::StatementExecutor* db) {
    ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
    ASSERT_TRUE(db->Execute("CREATE MOD boats;").ok());
    for (int r = 0; r < kRounds; ++r) {
      const traj::Trajectory& t = store.Get(r % store.NumTrajectories());
      ASSERT_TRUE(InsertTrajectory(db, "ships", t).ok());
      ASSERT_TRUE(InsertTrajectory(db, "boats", t).ok());
      ASSERT_TRUE(db->Flush().ok());
      for (const char* mod : {"ships", "boats"}) {
        auto q = db->Execute(ClusteringQut(mod, store, r % 2 ? 8.0 : 6.0));
        ASSERT_TRUE(q.ok()) << q.status().ToString();
      }
    }
  };
  {
    TrackingEnv env;
    sql::Session session(&env, "embedded");
    auto db = sql::MakeSessionExecutor(&session);
    rounds(db.get());
    EXPECT_EQ(env.DirsWith("tree_").size(), 2u);
  }
  {
    TrackingEnv env;
    service::ServerOptions opts;
    opts.data_dir = "served";
    auto server = std::move(service::Server::Start(opts, &env)).value();
    auto db = service::MakeStatementExecutor(server->Connect());
    rounds(db.get());
    EXPECT_EQ(env.DirsWith("tree_").size(), 2u);
    db.reset();
    server->Shutdown();
  }
  {
    TrackingEnv env;
    service::ServiceConfig config;
    config.shards = 2;
    auto coord = std::move(Coordinator::Start(config, &env)).value();
    auto db = coord->Connect();
    rounds(db.get());
    EXPECT_EQ(env.DirsWith("tree_").size(), 2u);
    db.reset();
    coord->Shutdown();
  }
}

TEST(QutTreeLifecycleTest, CoordinatorDropModRetiresMergedTree) {
  const auto store = MakeMaritime();
  TrackingEnv env;
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config, &env)).value();
  auto db = coord->Connect();
  ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
  for (traj::TrajectoryId i = 0; i < store.NumTrajectories(); ++i) {
    ASSERT_TRUE(InsertTrajectory(db.get(), "ships", store.Get(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  auto q = db->Execute(ClusteringQut("ships", store, 8.0));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(env.DirsWith("coord/SHIPS_").empty());  // The merged tree.

  ASSERT_TRUE(db->Execute("DROP MOD ships;").ok());
  EXPECT_TRUE(env.DirsWith("tree_").empty());
  EXPECT_FALSE(db->Execute("SELECT STATS(ships);").ok());
  db.reset();
  coord->Shutdown();
}

TEST(QutTreeLifecycleTest, QutRacingDropModLeavesNoMergedTree) {
  // A QUT that snapshots the shards just before DROP MOD must not put
  // the MOD's merged view (and a tree built for it) back after the drop
  // retired it. Each round races readers looping QUT on several MODs
  // against their drops; once the readers are joined no merged tree of a
  // dropped MOD may hold a file.
  const auto store = MakeMaritime();
  const auto [t0, t1] = store.TimeDomain();
  const double tau = (t1 - t0) / 6.0;
  const std::vector<double> tree_params = {tau, tau / 4, tau / 4, 1600, 4};
  TrackingEnv env;
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config, &env)).value();
  auto db = coord->Connect();
  constexpr int kRounds = 100;
  constexpr int kMods = 8;
  constexpr int kReadersPerMod = 4;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<std::string> mods;
    for (int m = 0; m < kMods; ++m) {
      mods.push_back("RACE" + std::to_string(r) + "_" + std::to_string(m));
      ASSERT_TRUE(db->Execute("CREATE MOD " + mods.back() + ";").ok());
      for (traj::TrajectoryId i = 0; i < 3; ++i) {
        const auto& t = store.Get((r + m + i) % store.NumTrajectories());
        ASSERT_TRUE(InsertTrajectory(db.get(), mods.back(), t).ok());
      }
    }
    ASSERT_TRUE(db->Flush().ok());
    std::atomic<int> answered{0};
    std::vector<std::thread> readers;
    for (const std::string& mod : mods) {
      for (int k = 0; k < kReadersPerMod; ++k) {
        readers.emplace_back([&, mod] {
          while (coord->QutQuery(mod, t0, t1 + 1, tree_params).ok()) {
            answered.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    }
    // Let a first (building) query finish on odd rounds, so the drops
    // meet both builds and the fast path.
    while (r % 2 == 1 && answered.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    for (const std::string& mod : mods) {
      ASSERT_TRUE(db->Execute("DROP MOD " + mod + ";").ok());
    }
    for (std::thread& t : readers) t.join();
    for (const std::string& mod : mods) {
      EXPECT_TRUE(env.DirsWith("coord/" + mod + "_").empty())
          << "round " << r << " " << mod;
    }
  }
  db.reset();
  coord->Shutdown();
}

}  // namespace
}  // namespace hermes::shard
