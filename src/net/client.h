#ifndef HERMES_NET_CLIENT_H_
#define HERMES_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "net/wire.h"
#include "sql/statement_executor.h"
#include "sql/value.h"

namespace hermes::net {

/// \brief Blocking TCP client for the Hermes wire protocol.
///
/// The synchronous calls (`Execute`, `Prepare`, `BindExecute`, `Flush`,
/// `Ping`) send one request and wait for its response. For pipelining,
/// use the split halves: `Send*` writes frames to the socket without
/// waiting, and `ReadResponse` reads the next response in request order.
/// The server answers one request at a time and blocks while the socket
/// will not take its answer, so a pipelining caller must keep reading:
/// one that sends more than the socket buffers hold before its first
/// read stalls both sides (TCP backpressure, as in libpq's pipeline mode).
///
/// A `kError` response surfaces as a non-OK Status carrying the server's
/// code and message — so a socket client observes exactly what an
/// in-process `ClientSession` caller would (same code, same message).
///
/// Not thread-safe: one Client per thread, like the session it fronts.
class Client {
 public:
  static StatusOr<std::unique_ptr<Client>> Connect(const std::string& host,
                                                   uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Synchronous round-trips ---
  StatusOr<sql::Table> Execute(const std::string& sql);
  /// Registers `sql` under the client-chosen `stmt_id` (re-preparing an
  /// id replaces it); returns the statement's parameter count.
  StatusOr<uint16_t> Prepare(uint32_t stmt_id, const std::string& sql);
  /// Binds `$1..$n` to `binds` in order and executes.
  StatusOr<sql::Table> BindExecute(uint32_t stmt_id,
                                   const std::vector<sql::Value>& binds);
  /// Drains the server's async ingest queue (the FLUSH statement).
  StatusOr<sql::Table> Flush();
  Status Ping();
  /// Drops the statement registered under `stmt_id`; later BindExecute
  /// calls on it fail with NotFound, exactly like every other backend.
  Status ClosePrepared(uint32_t stmt_id);

  // --- Pipelined halves ---
  Status SendExecute(const std::string& sql);
  Status SendPrepare(uint32_t stmt_id, const std::string& sql);
  Status SendBindExecute(uint32_t stmt_id,
                         const std::vector<sql::Value>& binds);
  Status SendFlush();
  Status SendPing();
  Status SendClosePrepared(uint32_t stmt_id);
  /// Writes raw bytes to the socket verbatim — torture-test hook for
  /// malformed frames and deliberately dribbled partial writes.
  Status SendRaw(const void* data, size_t size);

  /// Blocks for the next response frame, in request order.
  StatusOr<Response> ReadResponse();

  /// Expects the next response to be a table (or error) — the decoded
  /// form of `Execute`'s reply for a previously pipelined request.
  StatusOr<sql::Table> ReadTable();

  /// Half-closes the write side (`shutdown(SHUT_WR)`): the server answers
  /// every request already sent, then closes.
  void CloseWrite();

  /// Bounds how long `ReadResponse` (and every synchronous round-trip)
  /// waits for the next response byte (the same `FrameReader` poll as the
  /// server's idle timeout). 0 (the default) blocks forever. On expiry
  /// the call fails with an `IOError` and the connection should be
  /// abandoned: the response stream's framing is still intact, but
  /// request/response pairing is no longer knowable.
  void set_receive_timeout_ms(int ms) { receive_timeout_ms_ = ms; }

 private:
  explicit Client(int fd) : fd_(fd), reader_(fd, kMaxFrameBytes) {}

  int fd_;
  FrameReader reader_;
  int receive_timeout_ms_ = 0;  ///< 0 = no deadline.
};

/// Wraps a connected wire client in the backend-neutral
/// `sql::StatementExecutor` interface (owning the client). Prepare maps
/// directly onto the wire protocol's client-chosen statement ids, so a
/// remote backend is indistinguishable from an in-process one at the
/// statement API.
std::unique_ptr<sql::StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<Client> client);

}  // namespace hermes::net

#endif  // HERMES_NET_CLIENT_H_
