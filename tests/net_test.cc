// Wire-protocol front end: framing, the shared blocking frame reader and
// writer, and the per-connection read -> execute -> write loops.
//
// The headline test: socket clients — including pipelined and prepared
// ($N) statements — receive responses *bit-identical* to the same
// statements through an in-process `ClientSession`. The file also
// tortures the framing layer (malformed frames, oversize requests and
// responses, a dribbling client writing a few bytes at a time, a
// pipelined burst spanning several reads), checks that finished
// connections release their threads and descriptors, and runs under the
// TSan and ASan/UBSan CI legs, making it the race and memory gate for the
// connection loops and the shutdown path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "datagen/maritime.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "service/client_session.h"
#include "service/server.h"
#include "sql/value.h"

namespace hermes::net {
namespace {

using service::Server;
using service::ServerOptions;
using sql::Table;
using sql::Value;

traj::TrajectoryStore MakeShips(size_t num_ships) {
  datagen::MaritimeScenarioParams p;
  p.num_ships = num_ships;
  // Coarser sampling than service_test: S2T statements are quadratic in
  // points, and this suite re-runs them across pipelined connections
  // under TSan.
  p.sample_dt = 600.0;
  p.seed = 13;
  auto s = datagen::GenerateMaritimeScenario(p);
  return std::move(s->store);
}

struct Rig {
  std::unique_ptr<Server> server;
  std::unique_ptr<NetServer> net;

  // 6 ships keeps the S2T-heavy statements affordable under TSan while
  // still producing multi-cluster, multi-row results to compare.
  explicit Rig(NetServerOptions net_opts = {}, size_t num_ships = 6) {
    server = std::move(Server::Start(ServerOptions{})).value();
    EXPECT_TRUE(server->RegisterStore("ships", MakeShips(num_ships)).ok());
    net = std::move(NetServer::Start(server.get(), net_opts)).value();
  }

  std::unique_ptr<Client> Connect() {
    return std::move(Client::Connect("127.0.0.1", net->port())).value();
  }
};

/// Strict bit-for-bit table equality: column names, declared types, and
/// every typed cell (Int(2) != Double(2.0)).
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    EXPECT_EQ(got.columns[c].name, want.columns[c].name);
    EXPECT_EQ(got.columns[c].type, want.columns[c].type);
  }
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size());
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_TRUE(got.rows[r][c] == want.rows[r][c])
          << "row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire encode/decode round-trips
// ---------------------------------------------------------------------------

TEST(WireTest, RequestRoundTrips) {
  std::string buf;
  AppendExecuteFrame("SELECT STATS(SHIPS);", &buf);
  AppendPrepareFrame(7, "SELECT RANGE($1, $2, $3);", &buf);
  AppendBindExecuteFrame(
      7, {Value::Str("ships"), Value::Double(0.0), Value::Int(42)}, &buf);
  AppendFlushFrame(&buf);
  AppendPingFrame(&buf);

  size_t off = 0;
  std::string body;
  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  auto exec = DecodeRequest(body);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->op, Opcode::kExecute);
  EXPECT_EQ(exec->sql, "SELECT STATS(SHIPS);");

  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  auto prep = DecodeRequest(body);
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep->op, Opcode::kPrepare);
  EXPECT_EQ(prep->stmt_id, 7u);
  EXPECT_EQ(prep->sql, "SELECT RANGE($1, $2, $3);");

  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  auto bind = DecodeRequest(body);
  ASSERT_TRUE(bind.ok());
  EXPECT_EQ(bind->op, Opcode::kBindExecute);
  ASSERT_EQ(bind->binds.size(), 3u);
  EXPECT_TRUE(bind->binds[0] == Value::Str("ships"));
  EXPECT_TRUE(bind->binds[1] == Value::Double(0.0));
  EXPECT_TRUE(bind->binds[2] == Value::Int(42));

  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  EXPECT_EQ(DecodeRequest(body)->op, Opcode::kFlush);
  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  EXPECT_EQ(DecodeRequest(body)->op, Opcode::kPing);
  EXPECT_EQ(off, buf.size());
}

TEST(WireTest, TableAndErrorRoundTrips) {
  Table t;
  t.columns = {{"name", sql::ValueType::kString},
               {"n", sql::ValueType::kInt},
               {"x", sql::ValueType::kDouble}};
  t.rows = {{Value::Str("a"), Value::Int(-5), Value::Double(1.25)},
            {Value::Null(), Value::Int(1u << 30), Value::Double(-0.5)}};
  std::string buf;
  AppendTableFrame(t, &buf);
  AppendErrorFrame(Status::NotFound("no MOD named X"), &buf);

  size_t off = 0;
  std::string body;
  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  auto table = DecodeResponse(body);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->op, Opcode::kTable);
  ExpectSameTable(table->table, t);

  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  auto err = DecodeResponse(body);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->op, Opcode::kError);
  EXPECT_EQ(err->code, StatusCode::kNotFound);
  EXPECT_EQ(err->message, "no MOD named X");
}

TEST(WireTest, TruncatedAndTrailingPayloadsAreMalformed) {
  std::string buf;
  AppendPrepareFrame(3, "SELECT STATS($1);", &buf);
  size_t off = 0;
  std::string body;
  ASSERT_EQ(ScanFrame(buf, &off, &body), FrameScan::kFrame);
  // Truncated: drop the last payload byte.
  EXPECT_FALSE(DecodeRequest(body.substr(0, body.size() - 1)).ok());
  // Trailing: one rider byte after a valid payload.
  EXPECT_FALSE(DecodeRequest(body + "x").ok());
  // Unknown opcode.
  EXPECT_FALSE(DecodeRequest(std::string(1, '\x7f')).ok());
}

TEST(WireTest, ScanFrameHandlesPartialAndOversize) {
  std::string buf;
  AppendPingFrame(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string partial = buf.substr(0, cut);
    size_t off = 0;
    std::string body;
    EXPECT_EQ(ScanFrame(partial, &off, &body), FrameScan::kNeedMore);
  }
  std::string oversize;
  PutFixed32(&oversize, kMaxFrameBytes + 1);
  oversize.push_back('\x01');
  size_t off = 0;
  std::string body;
  EXPECT_EQ(ScanFrame(oversize, &off, &body), FrameScan::kOversize);
}

// ---------------------------------------------------------------------------
// Socket integration: bit-identical to the in-process session
// ---------------------------------------------------------------------------

TEST(NetServerTest, PingAndBasicExecute) {
  Rig rig;
  auto client = rig.Connect();
  ASSERT_TRUE(client->Ping().ok());
  auto stats = client->Execute("SELECT STATS(SHIPS);");
  ASSERT_TRUE(stats.ok());
  auto embedded = rig.server->Connect()->Execute("SELECT STATS(SHIPS);");
  ASSERT_TRUE(embedded.ok());
  ExpectSameTable(*stats, *embedded);
}

TEST(NetServerTest, ErrorsMatchInProcessSessionExactly) {
  Rig rig;
  auto client = rig.Connect();
  auto embedded = rig.server->Connect();
  for (const char* sql :
       {"SELECT STATS(NOPE);", "SELECT QUT(SHIPS, 1, 2);", "garbage",
        "SET hermes.unknown = 1;"}) {
    auto got = client->Execute(sql);
    auto want = embedded->Execute(sql);
    ASSERT_FALSE(got.ok());
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(got.status().code(), want.status().code()) << sql;
    EXPECT_EQ(got.status().message(), want.status().message()) << sql;
  }
  // The connection survives every statement error.
  ASSERT_TRUE(client->Ping().ok());
}

/// The acceptance check: a deterministic mutation phase (sequential, so
/// queue tickets are reproducible) compared statement-by-statement
/// against a fresh in-process run, then a concurrent pipelined phase over
/// 4 connections, each sending the read-only statements at `reads`
/// (indices into `script`) twice, all answers bit-identical.
void ExpectSocketMatchesInProcess(const std::vector<std::string>& script,
                                  const std::vector<size_t>& reads) {
  // In-process reference run on its own identically-seeded server.
  std::vector<StatusOr<Table>> want;
  {
    Rig ref;
    auto session = ref.server->Connect();
    for (const auto& sql : script) want.push_back(session->Execute(sql));
  }

  Rig rig;
  auto client = rig.Connect();
  for (size_t i = 0; i < script.size(); ++i) {
    auto got = client->Execute(script[i]);
    ASSERT_EQ(got.ok(), want[i].ok()) << script[i];
    if (!got.ok()) {
      EXPECT_EQ(got.status().message(), want[i].status().message());
      continue;
    }
    if (script[i] == "SHOW SERVICE STATS;") {
      // Counter *values* vary with run history; shape must match.
      ASSERT_EQ(got->rows.size(), want[i]->rows.size());
      for (size_t r = 0; r < got->rows.size(); ++r) {
        EXPECT_TRUE(got->rows[r][0] == want[i]->rows[r][0]);
      }
      continue;
    }
    ExpectSameTable(*got, *want[i]);
  }

  // Phase 2: four connections, each pipelining the read-only statements
  // several times, all answers bit-identical to the reference.
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&rig, &script, &reads, &want] {
      auto conn = rig.Connect();
      constexpr int kRounds = 2;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t idx : reads) {
          ASSERT_TRUE(conn->SendExecute(script[idx]).ok());
        }
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t idx : reads) {
          auto got = conn->ReadTable();
          ASSERT_TRUE(got.ok()) << script[idx];
          ExpectSameTable(*got, *want[idx]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(NetServerTest, SocketMatchesInProcessBitForBit) {
  ExpectSocketMatchesInProcess(
      {
          "CREATE MOD fleet;",
          "INSERT INTO fleet VALUES (1, 0, 0, 0), (1, 300, 100, 50);",
          "INSERT INTO fleet VALUES (2, 0, 500, 500), (2, 300, 600, 550);",
          "FLUSH;",
          "SELECT STATS(FLEET);",
          "SELECT RANGE(FLEET, 0, 1000);",
          "SELECT S2T(SHIPS);",
          "SELECT S2T_MEMBERS(SHIPS, 100, 200);",
          "SELECT QUT(SHIPS, 0, 100000, 600, 2, 3, 400, 0.8);",
          "SHOW hermes.sigma;",
          "SHOW SERVICE STATS;",
      },
      {4, 5, 6, 7, 8});
}

/// The same connection shape over statements cheap enough that a
/// sanitizer run spends its time on the wire code rather than on
/// clustering (the race-gate counterpart of the test above). The QUT
/// still answers two clusters, at under 1 % of the cost of the one above.
TEST(NetServerTest, CheapStatementsMatchInProcessBitForBit) {
  ExpectSocketMatchesInProcess(
      {
          "CREATE MOD fleet;",
          "INSERT INTO fleet VALUES (1, 0, 0, 0), (1, 300, 100, 50);",
          "INSERT INTO fleet VALUES (2, 0, 500, 500), (2, 300, 600, 550);",
          "FLUSH;",
          "SELECT STATS(FLEET);",
          "SELECT RANGE(FLEET, 0, 1000);",
          "SELECT RANGE(SHIPS, 0, 100000);",
          "SELECT S2T_MEMBERS(FLEET, 100, 200);",
          "SELECT QUT(SHIPS, 0, 100000, 3000, 750, 750, 10000, 2);",
          "SHOW hermes.sigma;",
          "SHOW SERVICE STATS;",
      },
      {4, 5, 6, 7, 8});
}

TEST(NetServerTest, PreparedStatementsMatchEmbeddedSession) {
  Rig rig;
  auto client = rig.Connect();

  // Embedded reference through the *service* session's Prepare (which in
  // turn must match the embedded sql::Session path — covered by
  // service_test's regression test).
  auto session = rig.server->Connect();
  auto ref = session->Prepare("SELECT RANGE($1, $2, $3);");
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref->Bind(1, Value::Str("ships")).ok());
  ASSERT_TRUE(ref->Bind(2, Value::Double(0)).ok());
  ASSERT_TRUE(ref->Bind(3, Value::Double(100000)).ok());
  auto want = ref->Execute();
  ASSERT_TRUE(want.ok());

  auto nparams = client->Prepare(11, "SELECT RANGE($1, $2, $3);");
  ASSERT_TRUE(nparams.ok());
  EXPECT_EQ(*nparams, 3u);
  auto got = client->BindExecute(
      11, {Value::Str("ships"), Value::Double(0), Value::Double(100000)});
  ASSERT_TRUE(got.ok());
  ExpectSameTable(*got, *want);

  // Unknown id and unbound/bad parameters surface as in-order errors.
  auto missing = client->BindExecute(99, {});
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto unbound = client->BindExecute(11, {Value::Str("ships")});
  ASSERT_TRUE(unbound.ok());  // previous binds persist, like embedded
  ExpectSameTable(*unbound, *want);

  // Re-preparing an id replaces the statement.
  ASSERT_TRUE(client->Prepare(11, "SELECT STATS($1);").ok());
  auto stats = client->BindExecute(11, {Value::Str("ships")});
  ASSERT_TRUE(stats.ok());
  auto stats_want = session->Execute("SELECT STATS(SHIPS);");
  ASSERT_TRUE(stats_want.ok());
  ExpectSameTable(*stats, *stats_want);
}

// ---------------------------------------------------------------------------
// Framing torture
// ---------------------------------------------------------------------------

TEST(NetServerTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  Rig rig;
  auto client = rig.Connect();

  // Unknown opcode in a well-framed frame.
  std::string frame;
  PutFixed32(&frame, 1);
  frame.push_back('\x7f');
  ASSERT_TRUE(client->SendRaw(frame.data(), frame.size()).ok());
  auto resp = client->ReadResponse();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->op, Opcode::kError);
  EXPECT_EQ(resp->code, StatusCode::kInvalidArgument);

  // Truncated payload (PREPARE with half its fields).
  frame.clear();
  std::string body;
  body.push_back(static_cast<char>(Opcode::kPrepare));
  PutFixed16(&body, 1);  // too short for stmt_id
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  frame.append(body);
  ASSERT_TRUE(client->SendRaw(frame.data(), frame.size()).ok());
  resp = client->ReadResponse();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->op, Opcode::kError);

  // The same connection still serves well-formed requests afterwards.
  ASSERT_TRUE(client->Ping().ok());
  auto table = client->Execute("SELECT STATS(SHIPS);");
  EXPECT_TRUE(table.ok());
}

TEST(NetServerTest, OversizeFrameClosesOnlyThatConnection) {
  NetServerOptions opts;
  opts.max_frame_bytes = 1024;
  Rig rig(opts);
  auto victim = rig.Connect();
  auto bystander = rig.Connect();

  std::string frame;
  PutFixed32(&frame, 4096);  // declared length over the 1 KiB cap
  frame.append("attack");
  ASSERT_TRUE(victim->SendRaw(frame.data(), frame.size()).ok());
  auto resp = victim->ReadResponse();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->op, Opcode::kError);
  // After the error flushes, the server closes the poisoned stream.
  auto next = victim->ReadResponse();
  EXPECT_FALSE(next.ok());

  // An untouched connection — and new ones — keep working.
  EXPECT_TRUE(bystander->Ping().ok());
  auto fresh = rig.Connect();
  EXPECT_TRUE(fresh->Execute("SELECT STATS(SHIPS);").ok());
}

/// Dribbling client: every request byte arrives in 1–3-byte chunks
/// (forcing partial reads and frame reassembly), and responses are read
/// normally. Mirrors short-write handling on the server: tiny SO_SNDBUF
/// is not portable to force here, but the pipelined QUT/S2T responses in
/// the bit-identical test already exceed one write() burst.
TEST(NetServerTest, DribblingClientReassemblesFrames) {
  Rig rig;
  auto client = rig.Connect();

  std::string bytes;
  AppendExecuteFrame("SELECT STATS(SHIPS);", &bytes);
  AppendPingFrame(&bytes);
  AppendExecuteFrame("SELECT RANGE(SHIPS, 0, 100000);", &bytes);

  size_t off = 0;
  int step = 1;
  while (off < bytes.size()) {
    const size_t n = std::min<size_t>(static_cast<size_t>(step), bytes.size() - off);
    ASSERT_TRUE(client->SendRaw(bytes.data() + off, n).ok());
    off += n;
    step = step % 3 + 1;  // 1, 2, 3, 1, ...
  }

  auto want_stats = rig.server->Connect()->Execute("SELECT STATS(SHIPS);");
  ASSERT_TRUE(want_stats.ok());
  auto stats = client->ReadTable();
  ASSERT_TRUE(stats.ok());
  ExpectSameTable(*stats, *want_stats);
  auto pong = client->ReadResponse();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->op, Opcode::kPong);
  auto range = client->ReadTable();
  ASSERT_TRUE(range.ok());
  auto want_range =
      rig.server->Connect()->Execute("SELECT RANGE(SHIPS, 0, 100000);");
  ASSERT_TRUE(want_range.ok());
  ExpectSameTable(*range, *want_range);
}

TEST(NetServerTest, HalfCloseDrainsPipelinedRequests) {
  Rig rig;
  auto client = rig.Connect();
  constexpr int kPipelined = 8;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client->SendExecute("SELECT STATS(SHIPS);").ok());
  }
  client->CloseWrite();
  // Every queued request is still answered, in order, before the server
  // closes its side.
  for (int i = 0; i < kPipelined; ++i) {
    auto got = client->ReadTable();
    ASSERT_TRUE(got.ok()) << "response " << i;
  }
  auto eof = client->ReadResponse();
  EXPECT_FALSE(eof.ok());
}

/// One burst of mixed frames — EXECUTE (padded so the burst crosses
/// several 16 KiB reads), PING, a bad-opcode frame, PREPARE and
/// BIND_EXECUTE — then a half-close. The responses are a few KiB, well
/// under the socket buffers, so the burst never waits on backpressure.
TEST(NetServerTest, PipelinedBurstSpansSeveralReads) {
  Rig rig;
  auto client = rig.Connect();
  constexpr int kGroups = 8;
  const std::string padded_stats =
      std::string(6000, ' ') + "SELECT STATS(SHIPS);";
  std::string burst;
  for (int g = 0; g < kGroups; ++g) {
    AppendExecuteFrame(padded_stats, &burst);
    AppendPingFrame(&burst);
    PutFixed32(&burst, 1);
    burst.push_back('\x7f');
    AppendPrepareFrame(static_cast<uint32_t>(g), "SELECT STATS($1);", &burst);
    AppendBindExecuteFrame(static_cast<uint32_t>(g), {Value::Str("ships")},
                           &burst);
  }
  ASSERT_GT(burst.size(), 2u * 16 * 1024);
  ASSERT_TRUE(client->SendRaw(burst.data(), burst.size()).ok());
  client->CloseWrite();

  auto want = rig.server->Connect()->Execute("SELECT STATS(SHIPS);");
  ASSERT_TRUE(want.ok());
  for (int g = 0; g < kGroups; ++g) {
    auto stats = client->ReadTable();
    ASSERT_TRUE(stats.ok()) << "group " << g;
    ExpectSameTable(*stats, *want);
    auto pong = client->ReadResponse();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->op, Opcode::kPong);
    auto bad = client->ReadResponse();
    ASSERT_TRUE(bad.ok());
    EXPECT_EQ(bad->op, Opcode::kError);
    EXPECT_EQ(bad->code, StatusCode::kInvalidArgument);
    auto prepared = client->ReadResponse();
    ASSERT_TRUE(prepared.ok());
    EXPECT_EQ(prepared->op, Opcode::kPrepared);
    EXPECT_EQ(prepared->stmt_id, static_cast<uint32_t>(g));
    auto bound = client->ReadTable();
    ASSERT_TRUE(bound.ok()) << "group " << g;
    ExpectSameTable(*bound, *want);
  }
  auto eof = client->ReadResponse();
  EXPECT_FALSE(eof.ok());
}

/// A response the cap cannot carry becomes an in-order ERROR: the client
/// would otherwise reject the frame and lose the stream's framing.
TEST(NetServerTest, OversizeResponseGetsErrorAndConnectionSurvives) {
  NetServerOptions opts;
  opts.max_frame_bytes = 1024;
  Rig rig(opts, /*num_ships=*/80);
  const std::string range = "SELECT RANGE(SHIPS, 0, 100000);";
  auto want = rig.server->Connect()->Execute(range);
  ASSERT_TRUE(want.ok());
  std::string encoded;
  AppendTableFrame(*want, &encoded);
  ASSERT_GT(encoded.size(), 4u + opts.max_frame_bytes);

  auto client = rig.Connect();
  auto got = client->Execute(range);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(got.status().message().find("max_frame_bytes (1024)"),
            std::string::npos)
      << got.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
}

TEST(NetServerTest, ZeroMaxFrameBytesMeansProtocolDefault) {
  NetServerOptions opts;
  opts.max_frame_bytes = 0;
  Rig rig(opts);
  auto client = rig.Connect();
  EXPECT_TRUE(client->Execute("SELECT STATS(SHIPS);").ok());
}

/// This process's thread count, from /proc/self/status.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  int threads = -1;
  while (std::getline(status, line)) {
    if (std::sscanf(line.c_str(), "Threads: %d", &threads) == 1) break;
  }
  return threads;
}

/// This process's open descriptor count.
int FdCount() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Connection threads return when their peer leaves, and the accept
/// thread joins them and closes their sockets on each later accept: 200
/// short connections leave neither threads nor descriptors behind.
TEST(NetServerTest, FinishedConnectionsAreReaped) {
  Rig rig;
  ASSERT_TRUE(rig.Connect()->Ping().ok());
  const int threads_before = ThreadCount();
  const int fds_before = FdCount();
  ASSERT_GT(threads_before, 0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(rig.Connect()->Ping().ok()) << "cycle " << i;
  }
  // Only the last few connections can still be winding down.
  EXPECT_LE(ThreadCount(), threads_before + 4);
  EXPECT_LE(FdCount(), fds_before + 4);
}

// ---------------------------------------------------------------------------
// Deadlines (both default-off: opt-in per rig / per client)
// ---------------------------------------------------------------------------

TEST(NetServerTest, IdleConnectionsAreSwept) {
  NetServerOptions opts;
  opts.idle_timeout_ms = 100;
  Rig rig(opts);
  auto client = rig.Connect();
  // A connection with traffic is not idle: the round-trip stamps
  // last_activity well inside the window.
  ASSERT_TRUE(client->Ping().ok());
  // Go quiet. The sweep expires the connection through the peer-EOF
  // path, so the client observes a clean server-side close.
  auto eof = client->ReadResponse();
  ASSERT_FALSE(eof.ok());
  EXPECT_TRUE(eof.status().IsIOError());
  // The listener is untouched: fresh connections still serve.
  auto fresh = rig.Connect();
  EXPECT_TRUE(fresh->Ping().ok());
}

TEST(NetServerTest, ClientReceiveTimeoutExpiresWithoutResponse) {
  Rig rig;
  auto client = rig.Connect();
  // A generous deadline never fires when the server answers.
  client->set_receive_timeout_ms(5000);
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Execute("SELECT STATS(SHIPS);").ok());
  // No request in flight: no response will ever arrive, so the read
  // deadline is the only thing standing between us and a hung test.
  client->set_receive_timeout_ms(50);
  auto resp = client->ReadResponse();
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsIOError());
  EXPECT_NE(resp.status().message().find("timeout"), std::string::npos);
}

TEST(NetServerTest, ShutdownWithLiveConnections) {
  Rig rig;
  auto a = rig.Connect();
  auto b = rig.Connect();
  ASSERT_TRUE(a->Ping().ok());
  ASSERT_TRUE(b->Execute("SELECT STATS(SHIPS);").ok());
  rig.net->Shutdown();   // idempotent; the Rig dtor calls it again
  rig.net->Shutdown();
}

/// Shutdown while a connection is executing a pipeline of slow
/// statements: the statement in progress may finish, the rest is
/// abandoned, and the client sees its answered prefix, then EOF.
TEST(NetServerTest, ShutdownAbandonsPipelinedStatements) {
  // 40 ships make each S2T take milliseconds, so the pipeline cannot
  // drain in the moment between the first answer and Shutdown().
  Rig rig(NetServerOptions{}, /*num_ships=*/40);
  auto client = rig.Connect();
  constexpr int kPipelined = 64;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client->SendExecute("SELECT S2T(SHIPS);").ok());
  }
  // Once the first answer is back, the loop is executing the second.
  ASSERT_TRUE(client->ReadTable().ok());
  rig.net->Shutdown();
  int answered = 1;
  for (;;) {
    auto resp = client->ReadTable();
    if (!resp.ok()) {
      EXPECT_TRUE(resp.status().IsIOError()) << resp.status().ToString();
      break;
    }
    ++answered;
  }
  EXPECT_LT(answered, kPipelined);
}

}  // namespace
}  // namespace hermes::net
