// Crash recovery of the durable service: WAL replay, checkpoints, and
// the fault-injected failure modes of ISSUE 9's acceptance criterion —
// every FLUSH-acked trajectory survives a restart bit-identically, a
// torn WAL tail is dropped (never half-applied), and a WAL that stops
// accepting writes turns the server read-only instead of un-durable.
//
// "Crash" here = abandon the server's Env handles and re-open the same
// base MemEnv: whatever the fault points let through is the disk image
// the dead process left behind. The process-level SIGKILL variant is
// tests/restart_test.cc, against the real daemon and filesystem.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "service/client_session.h"
#include "service/server.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "traj/trajectory_io.h"
#include "wal/wal.h"

namespace hermes::service {
namespace {

constexpr char kWalDir[] = "waldir";

ServerOptions DurableOptions() {
  ServerOptions opts;
  opts.wal_dir = kWalDir;
  return opts;
}

std::unique_ptr<Server> StartDurable(storage::Env* env) {
  auto server = Server::Start(DurableOptions(), env);
  EXPECT_TRUE(server.ok()) << server.status().message();
  return std::move(server).value();
}

traj::TrajectoryStore MakeMaritime(size_t n) {
  datagen::MaritimeScenarioParams p;
  p.num_ships = n;
  p.sample_dt = 300.0;
  p.seed = 13;
  return std::move(datagen::GenerateMaritimeScenario(p)->store);
}

traj::TrajectoryStore MakeAircraft(size_t n) {
  datagen::AircraftScenarioParams p = datagen::AircraftScenarioParams::Default();
  p.num_flights = n;
  p.sample_dt = 60.0;
  p.seed = 7;
  return std::move(datagen::GenerateAircraftScenario(p)->store);
}

traj::TrajectoryStore MakeUrban(size_t n) {
  datagen::UrbanScenarioParams p;
  p.num_vehicles = n;
  p.time_span = 600.0;
  p.seed = 11;
  return std::move(datagen::GenerateUrbanScenario(p)->store);
}

/// Trajectories [lo, hi) of `s`, as an ingest batch.
std::vector<traj::Trajectory> Slice(const traj::TrajectoryStore& s, size_t lo,
                                    size_t hi) {
  std::vector<traj::Trajectory> out;
  for (size_t i = lo; i < hi && i < s.NumTrajectories(); ++i) {
    out.push_back(s.Get(static_cast<traj::TrajectoryId>(i)));
  }
  return out;
}

/// The MOD's published snapshot, binary-encoded — the bit-identity
/// witness (trajectory_io's encode is bit-exact on doubles).
std::string Encoded(Server* server, const std::string& mod) {
  auto snap = server->SnapshotMod(mod);
  EXPECT_TRUE(snap.ok()) << snap.status().message();
  if (!snap.ok()) return "";
  std::string out;
  traj::EncodeStore(**snap, &out);
  return out;
}

/// Creates `mod` and ingests all of `data` in `batches` FLUSH-acked
/// batches.
void Ingest(Server* server, const std::string& mod,
            const traj::TrajectoryStore& data, size_t batches) {
  ASSERT_TRUE(server->CreateMod(mod).ok());
  const size_t n = data.NumTrajectories();
  const size_t per = (n + batches - 1) / batches;
  for (size_t lo = 0; lo < n; lo += per) {
    ASSERT_TRUE(
        server->EnqueueInsert(mod, Slice(data, lo, lo + per)).ok());
  }
  ASSERT_TRUE(server->Flush().ok());
}

// ---------------------------------------------------------------------------
// Configuration gates
// ---------------------------------------------------------------------------

TEST(RecoveryTest, NonDurableServerRejectsCheckpoint) {
  auto server = std::move(Server::Start(ServerOptions{})).value();
  auto st = server->Checkpoint();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotSupported());

  auto table = server->Connect()->Execute("CHECKPOINT;");
  ASSERT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsNotSupported());
}

// ---------------------------------------------------------------------------
// WAL replay (no checkpoint): all three movement domains, bit-identical
// ---------------------------------------------------------------------------

TEST(RecoveryTest, WalReplayRestoresEveryDomainBitIdentical) {
  auto env = storage::Env::NewMemEnv();
  const traj::TrajectoryStore aircraft = MakeAircraft(6);
  const traj::TrajectoryStore maritime = MakeMaritime(6);
  const traj::TrajectoryStore urban = MakeUrban(6);

  std::string want_air, want_sea, want_road;
  {
    auto server = StartDurable(env.get());
    Ingest(server.get(), "flights", aircraft, 2);
    Ingest(server.get(), "ships", maritime, 2);
    Ingest(server.get(), "cars", urban, 2);
    want_air = Encoded(server.get(), "flights");
    want_sea = Encoded(server.get(), "ships");
    want_road = Encoded(server.get(), "cars");
    ASSERT_FALSE(want_air.empty());
    // No Checkpoint: everything must come back from the WAL alone.
  }

  auto restarted = StartDurable(env.get());
  EXPECT_EQ(Encoded(restarted.get(), "flights"), want_air);
  EXPECT_EQ(Encoded(restarted.get(), "ships"), want_sea);
  EXPECT_EQ(Encoded(restarted.get(), "cars"), want_road);

  const ServiceStats stats = restarted->Stats();
  EXPECT_EQ(stats.mods, 3u);
  // 3 creates + 6 insert batches, replayed exactly once each.
  EXPECT_EQ(stats.wal_records_replayed, 9u);
  EXPECT_EQ(stats.wal_torn_bytes_dropped, 0u);

  // The recovered server is a first-class durable server: ingest more,
  // restart again, and the chain still replays bit-identically.
  ASSERT_TRUE(
      restarted->EnqueueInsert("ships", Slice(maritime, 0, 2)).ok());
  ASSERT_TRUE(restarted->Flush().ok());
  const std::string want_sea2 = Encoded(restarted.get(), "ships");
  restarted.reset();

  auto third = StartDurable(env.get());
  EXPECT_EQ(Encoded(third.get(), "ships"), want_sea2);
  EXPECT_EQ(Encoded(third.get(), "flights"), want_air);
}

TEST(RecoveryTest, DropAndRecreateReplayInLogOrder) {
  auto env = storage::Env::NewMemEnv();
  const traj::TrajectoryStore ships = MakeMaritime(6);
  std::string want;
  {
    auto server = StartDurable(env.get());
    Ingest(server.get(), "m", ships, 1);
    ASSERT_TRUE(server->DropMod("m").ok());
    // Recreate with different contents: replay must land on the second
    // incarnation, not resurrect the first.
    ASSERT_TRUE(server->CreateMod("m").ok());
    ASSERT_TRUE(server->EnqueueInsert("m", Slice(ships, 2, 4)).ok());
    ASSERT_TRUE(server->Flush().ok());
    want = Encoded(server.get(), "m");
  }
  auto restarted = StartDurable(env.get());
  EXPECT_EQ(Encoded(restarted.get(), "m"), want);
  auto snap = restarted->SnapshotMod("m");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->NumTrajectories(), 2u);
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CheckpointTruncatesWalAndBoundsReplay) {
  auto env = storage::Env::NewMemEnv();
  const traj::TrajectoryStore ships = MakeMaritime(8);
  std::string want;
  {
    auto server = StartDurable(env.get());
    Ingest(server.get(), "ships", ships, 4);
    ASSERT_TRUE(server->Checkpoint().ok());
    EXPECT_EQ(server->Stats().checkpoints_taken, 1u);

    // Covered segments are gone; only the fresh one remains.
    auto segments = wal::ListSegments(env.get(), kWalDir);
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 1u);

    // Post-checkpoint tail: one more acked batch.
    ASSERT_TRUE(
        server->EnqueueInsert("ships", Slice(ships, 0, 3)).ok());
    ASSERT_TRUE(server->Flush().ok());
    want = Encoded(server.get(), "ships");
  }

  auto restarted = StartDurable(env.get());
  EXPECT_EQ(Encoded(restarted.get(), "ships"), want);
  // Only the tail replays; the checkpoint carried the rest.
  EXPECT_EQ(restarted->Stats().wal_records_replayed, 1u);

  // A second checkpoint supersedes the first and cleans its store files.
  ASSERT_TRUE(restarted->Checkpoint().ok());
  auto names = env->ListDir(kWalDir);
  ASSERT_TRUE(names.ok());
  size_t ckpt_files = 0;
  for (const std::string& name : *names) {
    if (name.rfind("ckpt_", 0) == 0) ++ckpt_files;
  }
  EXPECT_EQ(ckpt_files, 1u);
}

TEST(RecoveryTest, CheckpointSqlStatement) {
  auto env = storage::Env::NewMemEnv();
  const traj::TrajectoryStore ships = MakeMaritime(6);
  std::string want;
  {
    auto server = StartDurable(env.get());
    Ingest(server.get(), "ships", ships, 2);
    auto session = server->Connect();
    auto ack = session->Execute("CHECKPOINT;");
    ASSERT_TRUE(ack.ok()) << ack.status().message();
    EXPECT_EQ(server->Stats().checkpoints_taken, 1u);
    want = Encoded(server.get(), "ships");
  }
  auto restarted = StartDurable(env.get());
  EXPECT_EQ(Encoded(restarted.get(), "ships"), want);
  EXPECT_EQ(restarted->Stats().wal_records_replayed, 0u);
}

TEST(RecoveryTest, QutResultsSurviveCheckpointAndRestart) {
  const std::string qut = "SELECT QUT(SHIPS, 0, 100000, 600, 2, 3, 400, 0.8);";
  auto env = storage::Env::NewMemEnv();
  const traj::TrajectoryStore ships = MakeMaritime(8);
  sql::Table want;
  {
    auto server = StartDurable(env.get());
    Ingest(server.get(), "ships", ships, 2);
    auto got = server->Connect()->Execute(qut);
    ASSERT_TRUE(got.ok()) << got.status().message();
    want = std::move(got).value();
    ASSERT_TRUE(server->Checkpoint().ok());  // persists the shared tree
  }
  auto restarted = StartDurable(env.get());
  auto got = restarted->Connect()->Execute(qut);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got->rows.size(), want.rows.size());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got->rows[r].size(), want.rows[r].size());
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_TRUE(got->rows[r][c] == want.rows[r][c])
          << "row " << r << " col " << c;
    }
  }
}

TEST(RecoveryTest, QutAfterCheckpointIngestAndRestartMatchesFreshServer) {
  // The shared tree keeps catching up after a checkpoint, so a restart
  // must not reopen the tree directory the checkpoint saw: it rebuilds
  // from the recovered store and answers like a server that never died.
  const std::string qut =
      "SELECT QUT(SHIPS, 0, 100000, 3000, 750, 750, 1600, 4);";
  auto env = storage::Env::NewMemEnv();
  const traj::TrajectoryStore ships = MakeMaritime(12);
  sql::Table before;
  {
    auto server = StartDurable(env.get());
    ASSERT_TRUE(server->CreateMod("ships").ok());
    ASSERT_TRUE(server->EnqueueInsert("ships", Slice(ships, 0, 6)).ok());
    ASSERT_TRUE(server->Flush().ok());
    ASSERT_TRUE(server->Connect()->Execute(qut).ok());  // builds the tree
    ASSERT_TRUE(server->Checkpoint().ok());
    ASSERT_TRUE(server->EnqueueInsert("ships", Slice(ships, 6, 12)).ok());
    ASSERT_TRUE(server->Flush().ok());  // the worker catches the tree up
    auto got = server->Connect()->Execute(qut);
    ASSERT_TRUE(got.ok()) << got.status().message();
    before = std::move(got).value();
  }
  auto restarted = StartDurable(env.get());
  auto after = restarted->Connect()->Execute(qut);
  ASSERT_TRUE(after.ok()) << after.status().message();

  auto fresh = std::move(Server::Start(ServerOptions{})).value();
  traj::TrajectoryStore copy = ships;
  ASSERT_TRUE(fresh->RegisterStore("ships", std::move(copy)).ok());
  auto expected = fresh->Connect()->Execute(qut);
  ASSERT_TRUE(expected.ok()) << expected.status().message();

  EXPECT_GE(expected->rows.size(), 2u);  // A cluster, not just outliers.
  ASSERT_EQ(before.rows.size(), expected->rows.size());
  ASSERT_EQ(after->rows.size(), expected->rows.size());
  EXPECT_EQ(before.rows, expected->rows);
  EXPECT_EQ(after->rows, expected->rows);
}

std::string ReadAll(storage::Env* env, const std::string& path) {
  auto file = env->NewRWFile(path);
  EXPECT_TRUE(file.ok());
  if (!file.ok()) return "";
  auto size = (*file)->Size();
  EXPECT_TRUE(size.ok());
  if (!size.ok()) return "";
  std::string data(*size, '\0');
  EXPECT_TRUE((*file)->ReadAt(0, data.size(), data.data()).ok());
  return data;
}

void WriteAll(storage::Env* env, const std::string& path,
              const std::string& data) {
  if (env->FileExists(path)) {
    ASSERT_TRUE(env->DeleteFile(path).ok());
  }
  auto file = env->NewRWFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->WriteAt(0, data.size(), data.data()).ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

// Servers from before QUT trees became caches saved each MOD's tree and
// named its directory in the manifest. Nothing reopens such a tree now:
// recovery restores the MOD from its store and deletes the old tree's
// files.
TEST(RecoveryTest, OldManifestTreeDirectoryIsEmptiedOnRecovery) {
  auto env = storage::Env::NewMemEnv();
  const traj::TrajectoryStore ships = MakeMaritime(6);
  std::string want;
  {
    auto server = StartDurable(env.get());
    Ingest(server.get(), "ships", ships, 1);
    ASSERT_TRUE(server->Checkpoint().ok());
    want = Encoded(server.get(), "ships");
  }

  // Re-encode the manifest the old way. Its payload: 4 x u64 header, the
  // u32 MOD count, then per MOD two u16-prefixed strings (name, store
  // file), the has_tree byte, [tree directory, 5 f64 params, u64
  // consumed count], and the u64 tree sequence.
  const std::string manifest = std::string(kWalDir) + "/MANIFEST";
  const std::string blob = ReadAll(env.get(), manifest);
  ASSERT_GT(blob.size(), 12u);
  const std::string payload = blob.substr(12);
  size_t at = 4 * 8;
  ASSERT_EQ(GetFixed32(payload.data() + at), 1u);
  at += 4;
  for (int field = 0; field < 2; ++field) {
    at += 2 + GetFixed16(payload.data() + at);
  }
  ASSERT_EQ(payload[at], 0);  // Written as "no tree".
  const std::string tree_dir = "hermes_service/SHIPS_g0_tree_0";
  std::string old = payload.substr(0, at);
  old.push_back(1);
  PutFixed16(&old, static_cast<uint16_t>(tree_dir.size()));
  old += tree_dir;
  for (double p : {3000.0, 750.0, 750.0, 1600.0, 4.0}) PutDouble(&old, p);
  PutFixed64(&old, ships.NumTrajectories());
  old += payload.substr(at + 1);
  std::string rewritten = blob.substr(0, 8);  // Magic and version.
  PutFixed32(&rewritten, common::Crc32(old));
  rewritten += old;
  WriteAll(env.get(), manifest, rewritten);

  ASSERT_TRUE(env->CreateDirs(tree_dir).ok());
  for (const char* name : {"catalog", "sc0_r0.heap", "sc0_r0.idx"}) {
    WriteAll(env.get(), tree_dir + "/" + name, "saved tree");
  }
  ASSERT_EQ(env->ListDir(tree_dir)->size(), 3u);

  auto restarted = StartDurable(env.get());
  ASSERT_NE(restarted, nullptr);
  EXPECT_EQ(Encoded(restarted.get(), "ships"), want);
  auto left = env->ListDir(tree_dir);
  ASSERT_TRUE(left.ok());
  EXPECT_TRUE(left->empty());
}

// ---------------------------------------------------------------------------
// Fault injection: torn writes, fsync failure, failed checkpoints
// ---------------------------------------------------------------------------

TEST(RecoveryTest, TornWalTailIsDroppedNeverHalfApplied) {
  auto base = storage::Env::NewMemEnv();
  storage::FaultInjectionEnv faulty(base.get());
  const traj::TrajectoryStore ships = MakeMaritime(8);

  std::string acked;
  {
    auto server = StartDurable(&faulty);
    Ingest(server.get(), "ships", ships, 1);  // acked batch, durable
    acked = Encoded(server.get(), "ships");

    // The next batch's WAL append tears after 9 bytes — a crash
    // mid-write. The batch must NOT be applied (it was never durable,
    // so applying it would make FLUSH lie after recovery).
    faulty.set_write_budget(9);
    ASSERT_TRUE(
        server->EnqueueInsert("ships", Slice(ships, 0, 4)).ok());
    ASSERT_TRUE(server->Flush().ok());  // ticket completes: as an error
    const ServiceStats stats = server->Stats();
    EXPECT_GE(stats.wal_errors, 1u);
    EXPECT_GE(stats.ingest_errors, 1u);
    EXPECT_EQ(Encoded(server.get(), "ships"), acked);  // unchanged

    // The server is read-only now: new ingest fast-fails.
    auto rejected = server->EnqueueInsert("ships", Slice(ships, 0, 1));
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.status().IsIOError());
    EXPECT_NE(rejected.status().message().find("read-only"),
              std::string::npos);
    // Reads keep working on the durable prefix.
    EXPECT_TRUE(server->Connect()->Execute("SELECT STATS(SHIPS);").ok());
  }

  // Recover from the base env: the torn 9-byte tail is dropped by CRC,
  // the acked prefix is intact, and the server writes again.
  auto restarted = StartDurable(base.get());
  EXPECT_EQ(Encoded(restarted.get(), "ships"), acked);
  EXPECT_EQ(restarted->Stats().wal_torn_bytes_dropped, 9u);
  ASSERT_TRUE(
      restarted->EnqueueInsert("ships", Slice(ships, 0, 2)).ok());
  ASSERT_TRUE(restarted->Flush().ok());
  auto snap = restarted->SnapshotMod("ships");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->NumTrajectories(), ships.NumTrajectories() + 2);
}

TEST(RecoveryTest, FsyncFailureMakesServerReadOnly) {
  auto base = storage::Env::NewMemEnv();
  storage::FaultInjectionEnv faulty(base.get());
  const traj::TrajectoryStore ships = MakeMaritime(6);

  auto server = StartDurable(&faulty);
  Ingest(server.get(), "ships", ships, 1);
  const std::string acked = Encoded(server.get(), "ships");

  // Group commit's fsync fails: the records' durability is unknowable,
  // so the drain is rejected whole and the server goes read-only.
  faulty.set_fail_syncs(true);
  ASSERT_TRUE(server->EnqueueInsert("ships", Slice(ships, 0, 3)).ok());
  ASSERT_TRUE(server->Flush().ok());
  EXPECT_GE(server->Stats().wal_errors, 1u);
  EXPECT_EQ(Encoded(server.get(), "ships"), acked);

  // Clearing the failpoint does not resurrect it — the durable prefix
  // froze at the failure; only a restart re-establishes it. DDL is
  // rejected too.
  faulty.set_fail_syncs(false);
  EXPECT_FALSE(server->EnqueueInsert("ships", Slice(ships, 0, 1)).ok());
  EXPECT_FALSE(server->CreateMod("another").ok());
  EXPECT_FALSE(server->Checkpoint().ok());
  server.reset();

  // A failed fsync leaves durability UNKNOWABLE: the appended records
  // may or may not be on disk (MemEnv persists them, so here they are).
  // The recovery contract is one-sided — every acked trajectory must
  // come back; never-acked ones may. The acked prefix must be
  // bit-identical; the resurrected batch, if present, must be whole.
  auto restarted = StartDurable(base.get());
  auto snap = restarted->SnapshotMod("ships");
  ASSERT_TRUE(snap.ok());
  const size_t n = ships.NumTrajectories();
  ASSERT_TRUE((*snap)->NumTrajectories() == n ||
              (*snap)->NumTrajectories() == n + 3)
      << (*snap)->NumTrajectories();
  for (size_t i = 0; i < n; ++i) {
    std::string got, want;
    traj::EncodeTrajectory(
        (*snap)->Get(static_cast<traj::TrajectoryId>(i)), &got);
    traj::EncodeTrajectory(ships.Get(static_cast<traj::TrajectoryId>(i)),
                           &want);
    EXPECT_EQ(got, want) << "trajectory " << i;
  }
}

TEST(RecoveryTest, FailedCheckpointLeavesOldManifestInForce) {
  auto base = storage::Env::NewMemEnv();
  storage::FaultInjectionEnv faulty(base.get());
  const traj::TrajectoryStore ships = MakeMaritime(8);

  std::string want;
  {
    auto server = StartDurable(&faulty);
    Ingest(server.get(), "ships", ships, 2);
    ASSERT_TRUE(server->Checkpoint().ok());
    ASSERT_TRUE(
        server->EnqueueInsert("ships", Slice(ships, 0, 3)).ok());
    ASSERT_TRUE(server->Flush().ok());
    want = Encoded(server.get(), "ships");

    // Disk full: the second checkpoint cannot write its store blobs.
    // It must fail without retracting the first checkpoint.
    faulty.set_write_budget(0);
    EXPECT_FALSE(server->Checkpoint().ok());
  }

  // Everything acked before the failed checkpoint recovers from the
  // old manifest + the WAL tail it still covers.
  auto restarted = StartDurable(base.get());
  EXPECT_EQ(Encoded(restarted.get(), "ships"), want);
}


// ---------------------------------------------------------------------------
// On-disk format: the bytes a WAL and a checkpoint hold
// ---------------------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

/// "<lsn>:<type>:<payload hex>" of every record in WAL segment `seg`.
std::vector<std::string> SegmentRecords(storage::Env* env, uint64_t seg) {
  auto scan = wal::ReadSegment(env, kWalDir, seg);
  EXPECT_TRUE(scan.ok()) << scan.status().message();
  std::vector<std::string> out;
  if (!scan.ok()) return out;
  EXPECT_EQ(scan->tail_bytes_dropped, 0u);
  for (const wal::Record& rec : scan->records) {
    out.push_back(std::to_string(rec.lsn) + ":" +
                  std::to_string(static_cast<int>(rec.type)) + ":" +
                  Hex(rec.payload));
  }
  return out;
}

// Pins the payload of each of the four record types, a manifest and a
// checkpoint store file byte for byte, so a WAL and checkpoint directory
// written by one version of the server recovers on another.
TEST(RecoveryTest, WalAndCheckpointBytesAreStable) {
  auto env = storage::Env::NewMemEnv();
  auto server = StartDurable(env.get());
  traj::Trajectory first(7, {{1.5, -2.0, 10.0}, {3.0, 4.25, 20.0}});
  traj::Trajectory second(9, {{0.5, 0.5, 1.0}, {-1.0, 8.0, 2.5}});

  ASSERT_TRUE(server->CreateMod("g").ok());
  ASSERT_TRUE(server->EnqueueInsert("g", {first}).ok());
  ASSERT_TRUE(server->Flush().ok());
  traj::TrajectoryStore swapped;
  ASSERT_TRUE(swapped.Add(second).ok());
  ASSERT_TRUE(server->RegisterStore("g", std::move(swapped)).ok());
  EXPECT_EQ(
      SegmentRecords(env.get(), 1),
      (std::vector<std::string>{
          "1:1:010047",
          "2:3:01004701000000070000000000000002000000000000000000f83f00000000"
          "000000c00000000000002440000000000000084000000000000011400000000000"
          "003440",
          "3:4:01004701000000090000000000000002000000000000000000e03f00000000"
          "0000e03f000000000000f03f000000000000f0bf000000000000204000000000000"
          "00440"}));

  ASSERT_TRUE(server->Checkpoint().ok());
  EXPECT_EQ(Hex(ReadAll(env.get(), std::string(kWalDir) + "/MANIFEST")),
            "4e414d4801000000889434a40100000000000000020000000000000004000000"
            "000000000000000000000000010000000100471300636b70745f303030303031"
            "5f472e73746f7265000000000000000000");
  EXPECT_EQ(Hex(ReadAll(env.get(),
                        std::string(kWalDir) + "/ckpt_000001_G.store")),
            "504b434801000000eb4a58a90100000009000000000000000200000000000000"
            "0000e03f000000000000e03f000000000000f03f000000000000f0bf00000000"
            "000020400000000000000440");

  ASSERT_TRUE(server->DropMod("g").ok());
  EXPECT_EQ(SegmentRecords(env.get(), 2),
            (std::vector<std::string>{"4:2:010047"}));
}

// A LOAD whose commit fails must leave no MOD behind: not in the live
// catalog, and after a restart either nothing or the whole file.
TEST(RecoveryTest, FailedLoadLeavesNoMod) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hermes_failed_load.csv")
          .string();
  {
    std::ofstream out(path);
    out << "obj_id,t,x,y\n";
    for (int obj = 1; obj <= 3; ++obj) {
      for (int i = 0; i < 4; ++i) {
        out << obj << "," << i * 10 << "," << obj * 100 + i << "," << i
            << "\n";
      }
    }
  }
  traj::TrajectoryStore file;
  ASSERT_TRUE(file.LoadCsv(path).ok());
  std::string whole;
  traj::EncodeStore(file, &whole);

  auto base = storage::Env::NewMemEnv();
  storage::FaultInjectionEnv faulty(base.get());
  {
    auto server = StartDurable(&faulty);
    faulty.set_fail_syncs(true);
    EXPECT_FALSE(server->Connect()
                     ->Execute("LOAD MOD fresh FROM '" + path + "';")
                     .ok());
    EXPECT_TRUE(server->SnapshotMod("fresh").status().IsNotFound());
  }
  std::filesystem::remove(path);

  auto restarted = StartDurable(base.get());
  auto snap = restarted->SnapshotMod("fresh");
  if (snap.ok()) {
    std::string got;
    traj::EncodeStore(**snap, &got);
    EXPECT_EQ(got, whole);
  } else {
    EXPECT_TRUE(snap.status().IsNotFound()) << snap.status().message();
  }
}

// ---------------------------------------------------------------------------
// Crash-point sweep: a crash after any number of written bytes
// ---------------------------------------------------------------------------

/// Every MOD of `server`, as name → encoded published store, for the
/// names a script uses. Also checks that no other MOD exists.
std::map<std::string, std::string> CatalogState(
    Server* server, const std::vector<std::string>& names) {
  std::map<std::string, std::string> state;
  for (const std::string& name : names) {
    auto snap = server->SnapshotMod(name);
    if (!snap.ok()) {
      EXPECT_TRUE(snap.status().IsNotFound()) << snap.status().message();
      continue;
    }
    traj::EncodeStore(**snap, &state[name]);
  }
  EXPECT_EQ(server->Stats().mods, state.size());
  return state;
}

/// A small script reaching every write entry point of the server. Each
/// step returns whether it was acknowledged; an insert counts as acked
/// when its FLUSH returned and the worker applied it.
std::vector<std::function<bool(Server*)>> CrashSweepScript() {
  // Two-sample trajectories keep the whole log near 500 bytes.
  traj::TrajectoryStore ships;
  for (int obj = 0; obj < 5; ++obj) {
    EXPECT_TRUE(
        ships.Add(traj::Trajectory(obj, {{obj * 1.0, 0.0, 0.0},
                                         {obj * 1.0, 1.0, 10.0}}))
            .ok());
  }
  auto store_of = [&](size_t lo, size_t hi) {
    traj::TrajectoryStore out;
    for (traj::Trajectory& t : Slice(ships, lo, hi)) {
      EXPECT_TRUE(out.Add(std::move(t)).ok());
    }
    return out;
  };
  auto insert = [](std::string mod, std::vector<traj::Trajectory> batch) {
    return [mod, batch](Server* s) {
      const uint64_t errors = s->Stats().ingest_errors;
      return s->EnqueueInsert(mod, batch).ok() && s->Flush().ok() &&
             s->Stats().ingest_errors == errors;
    };
  };
  auto load = [](std::string mod, traj::TrajectoryStore parsed) {
    return [mod, parsed](Server* s) { return s->LoadMod(mod, parsed).ok(); };
  };
  return {
      [](Server* s) { return s->CreateMod("a").ok(); },
      insert("a", Slice(ships, 0, 1)),
      load("b", store_of(1, 3)),  // Creates B.
      insert("b", Slice(ships, 3, 4)),
      [store = store_of(4, 5)](Server* s) {
        return s->RegisterStore("a", store).ok();  // Replaces A.
      },
      load("a", store_of(0, 1)),  // Appends to A.
      [](Server* s) { return s->DropMod("b").ok(); },
  };
}

// ROADMAP E.4: for every byte offset the WAL can stop at, recovery
// yields the state after some prefix of the script that holds every
// acknowledged step — never a step half-applied — and the live server
// never applies a step it could not make durable.
TEST(RecoveryTest, CrashAtEveryWalOffsetRecoversAScriptPrefix) {
  const auto script = CrashSweepScript();
  const std::vector<std::string> names = {"A", "B"};

  // The states after each prefix, and the bytes the whole script writes.
  std::vector<std::map<std::string, std::string>> prefix_states;
  int64_t total_bytes = 0;
  {
    auto base = storage::Env::NewMemEnv();
    storage::FaultInjectionEnv faulty(base.get());
    auto server = StartDurable(&faulty);
    const uint64_t before = faulty.bytes_written();
    prefix_states.push_back(CatalogState(server.get(), names));
    for (const auto& step : script) {
      ASSERT_TRUE(step(server.get()));
      prefix_states.push_back(CatalogState(server.get(), names));
    }
    total_bytes = static_cast<int64_t>(faulty.bytes_written() - before);
  }
  ASSERT_GT(total_bytes, 0);

  for (int64_t budget = 0; budget <= total_bytes; ++budget) {
    SCOPED_TRACE("write budget " + std::to_string(budget));
    auto base = storage::Env::NewMemEnv();
    storage::FaultInjectionEnv faulty(base.get());
    size_t acked = 0;
    {
      auto server = StartDurable(&faulty);
      faulty.set_write_budget(budget);
      bool failed = false;
      for (const auto& step : script) {
        const bool ok = step(server.get());
        EXPECT_FALSE(ok && failed) << "a step acked after a failed one";
        failed = failed || !ok;
        if (!failed) ++acked;
      }
      EXPECT_EQ(CatalogState(server.get(), names), prefix_states[acked]);
    }
    EXPECT_EQ(acked == script.size(), budget == total_bytes);

    auto restarted = StartDurable(base.get());
    const auto recovered = CatalogState(restarted.get(), names);
    bool matches = false;
    for (size_t k = acked; k < prefix_states.size(); ++k) {
      matches = matches || recovered == prefix_states[k];
    }
    EXPECT_TRUE(matches) << acked << " acked steps";
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace hermes::service
