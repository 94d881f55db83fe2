// Multi-session service layer: shared catalog, background ingest worker,
// per-session settings, snapshot-isolated concurrent readers.
//
// The headline test is the acceptance criterion of the service PR: four
// concurrent reader sessions issue S2T_MEMBERS / RANGE statements while
// the ingest worker drains queued batches, and every result must be
// *bit-identical* to a quiesced sequential run over one of the published
// store prefixes — concurrency may change timing, never values. The file
// runs under the TSan CI leg, so the same test doubles as the data-race
// gate for the whole read path.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/maritime.h"
#include "service/client_session.h"
#include "service/ingest_queue.h"
#include "service/server.h"
#include "service/service_config.h"
#include "sql/executor.h"
#include "sql/value.h"

namespace hermes::service {
namespace {

using sql::Table;
using sql::Value;
using sql::ValueType;

traj::TrajectoryStore MakeShips(size_t num_ships) {
  datagen::MaritimeScenarioParams p;
  p.num_ships = num_ships;
  p.sample_dt = 300.0;
  p.seed = 13;
  auto s = datagen::GenerateMaritimeScenario(p);
  return std::move(s->store);
}

/// First `k` trajectories of `full`, re-added in id order — exactly the
/// store the service publishes after the batches summing to `k` applied.
traj::TrajectoryStore Prefix(const traj::TrajectoryStore& full, size_t k) {
  traj::TrajectoryStore out;
  for (traj::TrajectoryId tid = 0; tid < k; ++tid) {
    auto r = out.Add(full.Get(tid));
    EXPECT_TRUE(r.ok());
  }
  return out;
}

// ---------------------------------------------------------------------------
// IngestQueue
// ---------------------------------------------------------------------------

TEST(IngestQueueTest, PreservesOrderAndTickets) {
  IngestQueue q(/*capacity=*/8);
  for (int i = 0; i < 3; ++i) {
    IngestBatch b;
    b.mod = "M" + std::to_string(i);
    auto seq = q.Push(std::move(b));
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(*seq, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.last_enqueued_seq(), 3u);
  std::vector<IngestBatch> got;
  ASSERT_TRUE(q.PopAll(&got));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].mod, "M0");
  EXPECT_EQ(got[2].mod, "M2");
  EXPECT_EQ(got[2].seq, 3u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(IngestQueueTest, CloseFailsPushAndDrainsPops) {
  IngestQueue q(4);
  IngestBatch b;
  b.mod = "X";
  ASSERT_TRUE(q.Push(std::move(b)).ok());
  q.Close();
  IngestBatch after;
  after.mod = "Y";
  EXPECT_FALSE(q.Push(std::move(after)).ok());
  std::vector<IngestBatch> got;
  EXPECT_TRUE(q.PopAll(&got));  // The pre-close batch still drains.
  EXPECT_EQ(got.size(), 1u);
  EXPECT_FALSE(q.PopAll(&got));  // Closed and empty: worker exits.
}

TEST(IngestQueueTest, ConcurrentProducersAllArrive) {
  IngestQueue q(/*capacity=*/2);  // Small: exercises backpressure blocking.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        IngestBatch b;
        b.mod = "P" + std::to_string(p);
        ASSERT_TRUE(q.Push(std::move(b)).ok());
      }
    });
  }
  size_t received = 0;
  std::vector<IngestBatch> got;
  while (received < kProducers * kPerProducer) {
    ASSERT_TRUE(q.PopAll(&got));
    received += got.size();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(received, static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(q.last_enqueued_seq(),
            static_cast<uint64_t>(kProducers * kPerProducer));
}

// ---------------------------------------------------------------------------
// Server lifecycle + SQL surface
// ---------------------------------------------------------------------------

TEST(ServiceTest, SqlLifecycleAcrossSessions) {
  auto server = std::move(Server::Start(ServerOptions{})).value();
  auto s1 = server->Connect();
  auto s2 = server->Connect();

  // DDL from one session is visible to the other (shared catalog).
  ASSERT_TRUE(s1->Execute("CREATE MOD fleet;").ok());
  EXPECT_FALSE(s2->Execute("CREATE MOD fleet;").ok());  // AlreadyExists.

  // INSERT queues; FLUSH makes it query-visible — from either session.
  auto ins = s1->Execute(
      "INSERT INTO fleet VALUES (1, 0, 0, 0), (1, 60, 500, 0), "
      "(2, 0, 0, 40), (2, 60, 500, 40);");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->columns[1].name, "trajectories_queued");
  EXPECT_EQ(ins->rows[0][1], Value::Int(2));
  ASSERT_TRUE(s2->Execute("FLUSH;").ok());
  auto stats = s2->Execute("SELECT STATS(fleet);");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows[0][0], Value::Int(2));  // trajectories
  EXPECT_EQ(stats->rows[0][1], Value::Int(4));  // points

  // SHOW SERVICE STATS reflects the ingest.
  auto svc = s1->Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  int64_t ingested = -1, sessions = -1, published = -1;
  for (const auto& row : svc->rows) {
    if (row[0] == Value::Str("trajectories_ingested")) ingested = row[1].AsInt();
    if (row[0] == Value::Str("sessions_active")) sessions = row[1].AsInt();
    if (row[0] == Value::Str("snapshots_published")) published = row[1].AsInt();
  }
  EXPECT_EQ(ingested, 2);
  EXPECT_EQ(sessions, 2);
  EXPECT_GE(published, 2);  // CREATE + post-drain republish.

  // DROP from session 2; session 1's next query fails cleanly.
  ASSERT_TRUE(s2->Execute("DROP MOD fleet;").ok());
  EXPECT_FALSE(s1->Execute("SELECT STATS(fleet);").ok());
}

TEST(ServiceTest, PerSessionSettingsDoNotInterfere) {
  ServerOptions opts;
  opts.session_defaults.sigma = 700.0;
  auto server = std::move(Server::Start(std::move(opts))).value();
  auto a = server->Connect();
  auto b = server->Connect();

  // Both sessions start from the server defaults...
  EXPECT_EQ(a->settings().Get("hermes.sigma")->AsDouble(), 700.0);
  EXPECT_EQ(b->settings().Get("hermes.sigma")->AsDouble(), 700.0);

  // ...and diverge independently: a's SETs never leak into b.
  ASSERT_TRUE(a->Execute("SET hermes.sigma = 111;").ok());
  ASSERT_TRUE(a->Execute("SET hermes.threads = 4;").ok());
  ASSERT_TRUE(a->Execute("SET hermes.use_index = off;").ok());
  EXPECT_EQ(a->settings().Get("hermes.sigma")->AsDouble(), 111.0);
  EXPECT_EQ(b->settings().Get("hermes.sigma")->AsDouble(), 700.0);
  EXPECT_EQ(b->settings().Get("hermes.threads")->AsInt(), 1);
  EXPECT_EQ(b->settings().Get("hermes.use_index")->AsInt(), 1);
  EXPECT_NE(a->exec_context(), nullptr);
  EXPECT_EQ(b->exec_context(), nullptr);

  // Per-session validation still holds.
  EXPECT_FALSE(a->Execute("SET hermes.threads = 0;").ok());
}

TEST(ServiceTest, CursorHoldsItsSnapshotWhileIngestPublishes) {
  auto server = std::move(Server::Start(ServerOptions{})).value();
  const traj::TrajectoryStore ships = MakeShips(6);
  ASSERT_TRUE(server->RegisterStore("ships", Prefix(ships, 4)).ok());
  auto session = server->Connect();

  const auto [t0, t1] = ships.TimeDomain();
  const std::string range = "SELECT RANGE(ships, " + std::to_string(t0) +
                            ", " + std::to_string(t1 + 1) + ");";
  auto cursor = session->ExecuteCursor(range);
  ASSERT_TRUE(cursor.ok());
  std::vector<Value> row;
  auto first = (*cursor)->Next(&row);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);

  // Ingest two more trajectories and force visibility.
  std::vector<traj::Trajectory> batch;
  batch.push_back(ships.Get(4));
  batch.push_back(ships.Get(5));
  ASSERT_TRUE(server->EnqueueInsert("ships", std::move(batch)).ok());
  ASSERT_TRUE(server->Flush().ok());

  // The open cursor still sweeps its original 4-trajectory snapshot...
  size_t rows = 1;
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++rows;
  }
  EXPECT_EQ(rows, 4u);
  // ...while a fresh statement sees the published 6.
  auto after = session->Execute(range);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), 6u);

  // Pin accounting: the cursor's snapshot epoch was released; the
  // server's own published snapshot keeps exactly one pin per MOD.
  cursor->reset();
  auto svc = session->Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(svc.ok());
  for (const auto& r : svc->rows) {
    if (r[0] == Value::Str("arena_epochs_pinned")) {
      EXPECT_EQ(r[1], Value::Int(1));
    }
  }
}

TEST(ServiceTest, QutUsesSharedTreeAndCatchesUpAfterIngest) {
  auto server = std::move(Server::Start(ServerOptions{})).value();
  const traj::TrajectoryStore ships = MakeShips(8);
  ASSERT_TRUE(server->RegisterStore("ships", Prefix(ships, 6)).ok());
  auto session = server->Connect();

  const auto [t0, t1] = ships.TimeDomain();
  const double tau = (t1 - t0) / 2, delta = tau / 4;
  auto qut_sql = [&](const char* mod) {
    return std::string("SELECT QUT(") + mod + ", " + std::to_string(t0) +
           ", " + std::to_string(t1 + 1) + ", " + std::to_string(tau) + ", " +
           std::to_string(delta) + ", " + std::to_string(delta) +
           ", 900, 6);";
  };
  auto before = session->Execute(qut_sql("ships"));
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  std::vector<traj::Trajectory> batch;
  batch.push_back(ships.Get(6));
  batch.push_back(ships.Get(7));
  ASSERT_TRUE(server->EnqueueInsert("ships", std::move(batch)).ok());
  ASSERT_TRUE(session->Execute("FLUSH;").ok());
  auto after = session->Execute(qut_sql("ships"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  // The worker (or query path) caught the shared tree up incrementally
  // instead of rebuilding it.
  EXPECT_GE(server->Stats().tree_catchups, 1u);

  // Parity: a fresh server fed all 8 up front answers identically.
  auto fresh = std::move(Server::Start(ServerOptions{})).value();
  ASSERT_TRUE(fresh->RegisterStore("ships", Prefix(ships, 8)).ok());
  auto fresh_session = fresh->Connect();
  auto expected = fresh_session->Execute(qut_sql("ships"));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after->rows, expected->rows);
}

TEST(ServiceTest, ServiceStatsExposeHotTierCounters) {
  auto server = std::move(Server::Start(ServerOptions{})).value();
  const traj::TrajectoryStore ships = MakeShips(6);
  ASSERT_TRUE(server->RegisterStore("ships", Prefix(ships, 6)).ok());
  auto session = server->Connect();

  const auto [t0, t1] = ships.TimeDomain();
  const double tau = (t1 - t0) / 2, delta = tau / 4;
  const std::string qut_sql =
      "SELECT QUT(ships, " + std::to_string(t0) + ", " +
      std::to_string(t1 + 1) + ", " + std::to_string(tau) + ", " +
      std::to_string(delta) + ", " + std::to_string(delta) + ", 900, 6);";
  // First query promotes (cold probes), second serves hot.
  ASSERT_TRUE(session->Execute(qut_sql).ok());
  ASSERT_TRUE(session->Execute(qut_sql).ok());

  auto svc = session->Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(svc.ok());
  int64_t hot = -1, cold = -1, bytes = -1, parts = -1, pins = -1;
  for (const auto& row : svc->rows) {
    if (row[0] == Value::Str("qut_hot_probes")) hot = row[1].AsInt();
    if (row[0] == Value::Str("qut_cold_probes")) cold = row[1].AsInt();
    if (row[0] == Value::Str("hot_index_bytes")) bytes = row[1].AsInt();
    if (row[0] == Value::Str("hot_partitions")) parts = row[1].AsInt();
    if (row[0] == Value::Str("hot_pins_total")) pins = row[1].AsInt();
  }
  EXPECT_GT(hot, 0);
  EXPECT_GT(cold, 0);
  EXPECT_GT(bytes, 0);
  // The tier counters embedded SHOW STATS reports must ride along too.
  EXPECT_GT(parts, 0);
  EXPECT_GT(pins, 0);

  // A zero server budget keeps every shared tree cold.
  ServerOptions cold_opts;
  cold_opts.session_defaults.hot_index_budget = 0;
  auto cold_server = std::move(Server::Start(std::move(cold_opts))).value();
  ASSERT_TRUE(cold_server->RegisterStore("ships", Prefix(ships, 6)).ok());
  auto cold_session = cold_server->Connect();
  ASSERT_TRUE(cold_session->Execute(qut_sql).ok());
  ASSERT_TRUE(cold_session->Execute(qut_sql).ok());
  const ServiceStats cs = cold_server->Stats();
  EXPECT_EQ(cs.qut_hot_probes, 0u);
  EXPECT_GT(cs.qut_cold_probes, 0u);
  EXPECT_EQ(cs.hot_index_bytes, 0u);

  // Start-time validation mirrors the SET-path validator.
  ServerOptions bad;
  bad.session_defaults.hot_index_budget = -5;
  EXPECT_TRUE(Server::Start(std::move(bad)).status().IsInvalidArgument());
}

/// Session defaults outside a `hermes.*` domain fail start-up with the
/// same validator `SET` runs, through both entry points.
TEST(ServiceTest, OutOfDomainSessionDefaultsAreRejected) {
  using Defaults = sql::HermesSettingDefaults;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(Defaults*)>>>
      cases = {
          {"hermes.threads", [](Defaults* d) { d->threads = 0; }},
          {"hermes.threads", [](Defaults* d) { d->threads = 1025; }},
          {"hermes.sigma", [nan](Defaults* d) { d->sigma = nan; }},
          {"hermes.sigma", [inf](Defaults* d) { d->sigma = inf; }},
          {"hermes.sigma", [](Defaults* d) { d->sigma = 0.0; }},
          {"hermes.epsilon", [](Defaults* d) { d->epsilon = -1.0; }},
          {"hermes.use_index", [](Defaults* d) { d->use_index = 2; }},
          {"hermes.hot_index_budget",
           [](Defaults* d) { d->hot_index_budget = -1; }},
      };
  for (const auto& [setting, corrupt] : cases) {
    ServerOptions opts;
    corrupt(&opts.session_defaults);
    const Status started = Server::Start(std::move(opts)).status();
    EXPECT_TRUE(started.IsInvalidArgument()) << started.ToString();
    EXPECT_NE(started.message().find(setting), std::string::npos)
        << started.ToString();

    ServiceConfig config;
    corrupt(&config.session_defaults);
    const Status validated = config.Validate();
    EXPECT_TRUE(validated.IsInvalidArgument()) << validated.ToString();
    EXPECT_NE(validated.message().find(setting), std::string::npos)
        << validated.ToString();
  }
}

// ---------------------------------------------------------------------------
// The acceptance criterion: concurrent readers + ingest worker,
// bit-identical to quiesced sequential runs over published prefixes.
// ---------------------------------------------------------------------------

TEST(ServiceTest, ConcurrentReadersMatchQuiescedSequentialPrefixes) {
  constexpr size_t kTotal = 16;
  constexpr size_t kInitial = 8;
  constexpr size_t kBatch = 2;
  const traj::TrajectoryStore ships = MakeShips(kTotal);
  const auto [t0, t1] = ships.TimeDomain();
  const std::string members_sql = "SELECT S2T_MEMBERS(ships, 800, 1600);";
  const std::string range_sql = "SELECT RANGE(ships, " + std::to_string(t0) +
                                ", " + std::to_string(t1 + 1) + ");";

  // Quiesced sequential baselines, one per possible published prefix
  // (initial load, then whole batches in queue order — the worker never
  // splits a batch across a republication).
  std::vector<size_t> prefixes;
  for (size_t k = kInitial; k <= kTotal; k += kBatch) prefixes.push_back(k);
  std::vector<Table> expected_members;
  std::vector<Table> expected_range;
  for (size_t k : prefixes) {
    sql::Session quiesced;
    ASSERT_TRUE(quiesced.RegisterStore("ships", Prefix(ships, k)).ok());
    auto m = quiesced.Execute(members_sql);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    expected_members.push_back(std::move(*m));
    auto r = quiesced.Execute(range_sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected_range.push_back(std::move(*r));
  }

  ServerOptions opts;
  opts.threads = 2;  // The ingest drains themselves fan out.
  auto server = std::move(Server::Start(std::move(opts))).value();
  ASSERT_TRUE(server->RegisterStore("ships", Prefix(ships, kInitial)).ok());

  // 4 reader sessions × alternating S2T_MEMBERS / RANGE, concurrent with
  // the ingest worker draining the remaining batches.
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 6;
  struct ReaderResult {
    bool is_members = false;
    Table table;
  };
  std::vector<std::vector<ReaderResult>> results(kReaders);
  std::vector<std::string> failures(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int rix = 0; rix < kReaders; ++rix) {
    readers.emplace_back([&, rix] {
      auto session = server->Connect();
      // Two of the readers run their statements multi-threaded, so the
      // per-session exec contexts overlap with the worker's.
      if (rix % 2 == 1 &&
          !session->Execute("SET hermes.threads = 2;").ok()) {
        failures[rix] = "SET hermes.threads failed";
        return;
      }
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const bool members = (q % 2 == 0);
        auto table = session->Execute(members ? members_sql : range_sql);
        if (!table.ok()) {
          failures[rix] = table.status().ToString();
          return;
        }
        results[rix].push_back({members, std::move(*table)});
      }
    });
  }

  // The single writer: queue the remaining trajectories in kBatch chunks.
  for (size_t next = kInitial; next < kTotal; next += kBatch) {
    std::vector<traj::Trajectory> batch;
    for (size_t tid = next; tid < next + kBatch && tid < kTotal; ++tid) {
      batch.push_back(ships.Get(tid));
    }
    ASSERT_TRUE(server->EnqueueInsert("ships", std::move(batch)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(server->Flush().ok());
  for (auto& t : readers) t.join();

  for (int rix = 0; rix < kReaders; ++rix) {
    ASSERT_EQ(failures[rix], "") << "reader " << rix;
    ASSERT_EQ(results[rix].size(), static_cast<size_t>(kQueriesPerReader));
    for (size_t q = 0; q < results[rix].size(); ++q) {
      const ReaderResult& got = results[rix][q];
      const auto& expected = got.is_members ? expected_members : expected_range;
      bool matched = false;
      for (const Table& e : expected) {
        if (got.table.rows == e.rows) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched)
          << "reader " << rix << " query " << q << " ("
          << (got.is_members ? "S2T_MEMBERS" : "RANGE")
          << ") matches no quiesced sequential prefix result:\n"
          << got.table.ToString();
    }
  }

  // Quiesced end state: both statements now equal the full-store
  // baseline exactly.
  auto session = server->Connect();
  auto final_members = session->Execute(members_sql);
  ASSERT_TRUE(final_members.ok());
  EXPECT_EQ(final_members->rows, expected_members.back().rows);
  auto final_range = session->Execute(range_sql);
  ASSERT_TRUE(final_range.ok());
  EXPECT_EQ(final_range->rows, expected_range.back().rows);

  const ServiceStats stats = server->Stats();
  EXPECT_EQ(stats.trajectories_ingested, kTotal - kInitial);
  EXPECT_EQ(stats.ingest_errors, 0u);
  EXPECT_GE(stats.batches_applied, 1u);
}

// The QUT counterpart: four sessions alternate two tree parameter sets,
// so shared-tree rebuilds race the worker's catch-ups, while a fifth
// polls SHOW SERVICE STATS (hot-tier counters read through the slot).
// Every answer must equal the quiesced answer over some published prefix.
TEST(ServiceTest, ConcurrentQutMatchesQuiescedSequentialPrefixes) {
  constexpr size_t kTotal = 16;
  constexpr size_t kInitial = 8;
  constexpr size_t kBatch = 2;
  const traj::TrajectoryStore ships = MakeShips(kTotal);
  const auto [t0, t1] = ships.TimeDomain();
  auto qut_sql = [&](double tau, int gamma) {
    return "SELECT QUT(ships, " + std::to_string(t0) + ", " +
           std::to_string(t1 + 1) + ", " + std::to_string(tau) + ", " +
           std::to_string(tau / 4) + ", " + std::to_string(tau / 4) +
           ", 900, " + std::to_string(gamma) + ");";
  };
  const std::vector<std::string> quts = {qut_sql((t1 - t0) / 2, 6),
                                         qut_sql((t1 - t0) / 4, 4)};

  std::vector<size_t> prefixes;
  for (size_t k = kInitial; k <= kTotal; k += kBatch) prefixes.push_back(k);
  // expected[p][i]: QUT parameter set p over prefix i.
  std::vector<std::vector<Table>> expected(quts.size());
  for (size_t k : prefixes) {
    sql::Session quiesced;
    ASSERT_TRUE(quiesced.RegisterStore("ships", Prefix(ships, k)).ok());
    for (size_t p = 0; p < quts.size(); ++p) {
      auto q = quiesced.Execute(quts[p]);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      expected[p].push_back(std::move(*q));
    }
  }
  // Prefixes must answer differently, or a stale tree would pass.
  EXPECT_NE(expected[0].front().rows, expected[0].back().rows);
  EXPECT_NE(expected[1].front().rows, expected[1].back().rows);

  ServerOptions opts;
  opts.threads = 2;
  auto server = std::move(Server::Start(std::move(opts))).value();
  ASSERT_TRUE(server->RegisterStore("ships", Prefix(ships, kInitial)).ok());

  // Readers are paced by the writer — query q waits for batch q / 2 to
  // be queued — so their queries spread over every drain.
  constexpr size_t kBatches = (kTotal - kInitial) / kBatch;
  constexpr size_t kReaders = 4;
  constexpr size_t kQueriesPerReader = 2 * (kBatches + 1);
  struct QutResult {
    size_t params = 0;
    Table table;
  };
  std::vector<std::vector<QutResult>> results(kReaders);
  std::vector<std::string> failures(kReaders + 1);
  std::atomic<size_t> enqueued{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (size_t rix = 0; rix < kReaders; ++rix) {
    threads.emplace_back([&, rix] {
      auto session = server->Connect();
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        while (enqueued.load() < q / 2) std::this_thread::yield();
        // Neighbouring readers start on different sets, so every round
        // asks for both trees at once.
        const size_t p = (q + rix) % quts.size();
        auto table = session->Execute(quts[p]);
        if (!table.ok()) {
          failures[rix] = table.status().ToString();
          return;
        }
        results[rix].push_back({p, std::move(*table)});
      }
    });
  }
  threads.emplace_back([&] {
    auto session = server->Connect();
    while (!done.load()) {
      auto stats = session->Execute("SHOW SERVICE STATS;");
      if (!stats.ok()) {
        failures[kReaders] = stats.status().ToString();
        return;
      }
    }
  });

  for (size_t next = kInitial; next < kTotal; next += kBatch) {
    std::vector<traj::Trajectory> batch;
    for (size_t tid = next; tid < next + kBatch; ++tid) {
      batch.push_back(ships.Get(tid));
    }
    ASSERT_TRUE(server->EnqueueInsert("ships", std::move(batch)).ok());
    enqueued.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(server->Flush().ok());
  for (size_t rix = 0; rix < kReaders; ++rix) threads[rix].join();
  done.store(true);
  threads.back().join();

  for (size_t f = 0; f <= kReaders; ++f) EXPECT_EQ(failures[f], "") << f;
  for (size_t rix = 0; rix < kReaders; ++rix) {
    ASSERT_EQ(results[rix].size(), kQueriesPerReader);
    for (size_t q = 0; q < results[rix].size(); ++q) {
      const QutResult& got = results[rix][q];
      bool matched = false;
      for (const Table& e : expected[got.params]) {
        matched = matched || got.table.rows == e.rows;
      }
      EXPECT_TRUE(matched)
          << "reader " << rix << " query " << q << " (parameter set "
          << got.params << ") matches no quiesced prefix:\n"
          << got.table.ToString();
    }
  }

  // After FLUSH both parameter sets answer over the full store.
  auto session = server->Connect();
  for (size_t p = 0; p < quts.size(); ++p) {
    auto final_qut = session->Execute(quts[p]);
    ASSERT_TRUE(final_qut.ok()) << final_qut.status().ToString();
    EXPECT_EQ(final_qut->rows, expected[p].back().rows) << p;
  }
  const ServiceStats stats = server->Stats();
  EXPECT_EQ(stats.trajectories_ingested, kTotal - kInitial);
  EXPECT_EQ(stats.ingest_errors, 0u);
}

TEST(ServiceTest, SingleSampleInsertIsRejectedBeforeQueueing) {
  auto server = std::move(Server::Start(ServerOptions{})).value();
  auto session = server->Connect();
  ASSERT_TRUE(session->Execute("CREATE MOD m;").ok());
  // One sample can never form a segment (and would poison the shared
  // tree's catch-up); the precondition fails at the ack, not in the
  // worker.
  auto bad = session->Execute("INSERT INTO m VALUES (7, 0, 0, 0);");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(session->Execute("FLUSH;").ok());
  auto stats = session->Execute("SELECT STATS(m);");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows[0][0], Value::Int(0));
  EXPECT_EQ(server->Stats().ingest_errors, 0u);
}

TEST(ServiceTest, ShutdownRejectsLaterInsertsButKeepsQueries) {
  auto server = std::move(Server::Start(ServerOptions{})).value();
  ASSERT_TRUE(server->RegisterStore("ships", MakeShips(4)).ok());
  auto session = server->Connect();
  server->Shutdown();
  // A Push racing (or following) Close() gets the distinct Unavailable
  // code — not ResourceExhausted, which means "queue at capacity" and
  // would tell a client to retry against a server that is gone.
  const auto late = session->Execute("INSERT INTO ships VALUES (9, 0, 0, 0), "
                                     "(9, 60, 10, 0);");
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsUnavailable()) << late.status().ToString();
  EXPECT_FALSE(late.status().IsResourceExhausted());
  auto stats = session->Execute("SELECT STATS(ships);");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows[0][0], Value::Int(4));
}

// ---------------------------------------------------------------------------
// Prepared statements (the wire protocol's PREPARE / BIND+EXECUTE path)
// ---------------------------------------------------------------------------

/// Regression for the old hard-rejection of `$N` statements in service
/// sessions: Prepare/Bind/Execute through a ClientSession must match the
/// embedded sql::Session bit-for-bit — typed cells, not rendered text.
TEST(ServiceTest, PreparedStatementsMatchEmbeddedSessionBitForBit) {
  const traj::TrajectoryStore ships = MakeShips(8);

  sql::Session embedded;
  ASSERT_TRUE(embedded.RegisterStore("ships", Prefix(ships, 8)).ok());
  auto server = std::move(Server::Start(ServerOptions{})).value();
  ASSERT_TRUE(server->RegisterStore("ships", Prefix(ships, 8)).ok());
  auto session = server->Connect();

  const auto same = [](const Table& got, const Table& want) {
    ASSERT_EQ(got.columns.size(), want.columns.size());
    for (size_t c = 0; c < want.columns.size(); ++c) {
      EXPECT_EQ(got.columns[c].name, want.columns[c].name);
      EXPECT_EQ(got.columns[c].type, want.columns[c].type);
    }
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (size_t r = 0; r < want.rows.size(); ++r) {
      for (size_t c = 0; c < want.rows[r].size(); ++c) {
        EXPECT_TRUE(got.rows[r][c] == want.rows[r][c])
            << "row " << r << " col " << c;
      }
    }
  };

  // The MOD position itself as `$1` plus numeric parameters — the shared
  // ResolveSelectModName path on both frontends.
  struct Case {
    const char* stmt;
    std::vector<Value> binds;  ///< $2.. — $1 is always the MOD name.
  };
  const std::vector<Case> cases = {
      {"SELECT RANGE($1, $2, $3);",
       {Value::Double(0.0), Value::Double(1e9)}},
      {"SELECT STATS($1);", {}},
      {"SELECT S2T($1, $2, $3);",
       {Value::Double(100.0), Value::Double(200.0)}},
  };
  for (const auto& [stmt, extra] : cases) {
    auto e = embedded.Prepare(stmt);
    auto s = session->Prepare(stmt);
    ASSERT_TRUE(e.ok()) << stmt;
    ASSERT_TRUE(s.ok()) << stmt;
    EXPECT_EQ(e->num_params(), s->num_params());
    for (auto* ps : {&*e, &*s}) {
      ASSERT_TRUE(ps->Bind(1, Value::Str("ships")).ok());
      for (size_t i = 0; i < extra.size(); ++i) {
        ASSERT_TRUE(ps->Bind(static_cast<int>(i) + 2, extra[i]).ok());
      }
    }
    auto want = e->Execute();
    auto got = s->Execute();
    ASSERT_TRUE(want.ok()) << stmt;
    ASSERT_TRUE(got.ok()) << stmt;
    same(*got, *want);
    // Re-execution with persistent binds is stable on both.
    auto again = s->Execute();
    ASSERT_TRUE(again.ok());
    same(*again, *want);
  }

  // Plain ExecuteCursor still rejects unbound placeholders — but with the
  // same message as the embedded session, not the old hard rejection.
  auto direct = session->ExecuteCursor("SELECT STATS($1);");
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
  auto edirect = embedded.ExecuteCursor("SELECT STATS($1);");
  ASSERT_FALSE(edirect.ok());

  // Unbound parameter and bad MOD-bind type fail identically.
  auto e_hole = embedded.Prepare("SELECT STATS($1);");
  auto s_hole = session->Prepare("SELECT STATS($1);");
  ASSERT_TRUE(e_hole.ok());
  ASSERT_TRUE(s_hole.ok());
  EXPECT_EQ(e_hole->Execute().status().message(),
            s_hole->Execute().status().message());
  ASSERT_TRUE(e_hole->Bind(1, Value::Int(3)).ok());
  ASSERT_TRUE(s_hole->Bind(1, Value::Int(3)).ok());
  EXPECT_EQ(e_hole->Execute().status().message(),
            s_hole->Execute().status().message());

  // INSERT with $N binds: queued through the service, applied by FLUSH,
  // and visible with the same STATS as the embedded synchronous insert.
  auto e_ins = embedded.Prepare(
      "INSERT INTO ships VALUES ($1, 0, 0, 0), ($1, 300, 50, 50);");
  auto s_ins = session->Prepare(
      "INSERT INTO ships VALUES ($1, 0, 0, 0), ($1, 300, 50, 50);");
  ASSERT_TRUE(e_ins.ok());
  ASSERT_TRUE(s_ins.ok());
  ASSERT_TRUE(e_ins->Bind(1, Value::Int(123)).ok());
  ASSERT_TRUE(s_ins->Bind(1, Value::Int(123)).ok());
  ASSERT_TRUE(e_ins->Execute().ok());
  ASSERT_TRUE(s_ins->Execute().ok());  // async ack (queued + ticket)
  ASSERT_TRUE(session->Execute("FLUSH;").ok());
  auto want_stats = embedded.Execute("SELECT STATS(ships);");
  auto got_stats = session->Execute("SELECT STATS(ships);");
  ASSERT_TRUE(want_stats.ok());
  ASSERT_TRUE(got_stats.ok());
  same(*got_stats, *want_stats);
}

}  // namespace
}  // namespace hermes::service
