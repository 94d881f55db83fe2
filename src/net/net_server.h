#ifndef HERMES_NET_NET_SERVER_H_
#define HERMES_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "net/wire.h"
#include "service/server.h"
#include "service/service_config.h"
#include "sql/statement_executor.h"

namespace hermes::net {

struct NetServerOptions {
  /// IPv4 address to bind; loopback by default (a reverse proxy or mesh
  /// fronts public traffic in the target deployment).
  std::string listen_addr = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via `port()`.
  uint16_t port = 0;
  /// Hard per-frame cap in both directions; 0 means `kMaxFrameBytes`. A
  /// peer declaring a larger request is answered once and disconnected
  /// (the stream can no longer be framed once the prefix is untrusted); a
  /// response that would be larger is replaced by a ResourceExhausted
  /// ERROR and the connection stays.
  uint32_t max_frame_bytes = kMaxFrameBytes;
  int backlog = 128;
  /// A connection whose peer sends no request bytes for this long while
  /// the server waits for its next request is closed. Time spent
  /// executing or writing a response does not count. 0 (the default)
  /// waits forever.
  int idle_timeout_ms = 0;
};

/// Projects a validated `service::ServiceConfig`'s network scalars into
/// the net layer's option struct.
NetServerOptions MakeNetServerOptions(const service::ServiceConfig& config);

/// \brief TCP front end for any statement backend: accepts connections,
/// decodes wire-protocol frames, and executes them on per-connection
/// `sql::StatementExecutor`s produced by a session factory — an
/// in-process `service::Server` session or a shard coordinator session,
/// indistinguishable on the wire.
///
/// Threading (see docs/ARCHITECTURE.md "Wire protocol"): one accept
/// thread, plus one thread per connection running a blocking loop, like
/// a PostgreSQL backend: read a frame, execute it on the connection's own
/// executor, write the response, read the next. Responses therefore come
/// back strictly in request order, and a pipelining peer is held back by
/// TCP backpressure, not by a server-side queue. A frame that fails to
/// decode (unknown opcode, truncated payload) is answered with an ERROR
/// in its place and the connection survives; an oversize length prefix
/// gets one ERROR, then the connection closes.
///
/// Whatever backend the factory's executors reference must outlive the
/// NetServer. Destruction (or `Shutdown()`) stops accepting, lets each
/// busy connection finish the statement it is executing, abandons the
/// rest, and joins every thread.
class NetServer {
 public:
  /// Produces one statement executor per accepted connection.
  using SessionFactory =
      std::function<std::unique_ptr<sql::StatementExecutor>()>;

  static StatusOr<std::unique_ptr<NetServer>> Start(SessionFactory factory,
                                                    NetServerOptions options);
  /// Convenience: front an in-process `service::Server` directly.
  static StatusOr<std::unique_ptr<NetServer>> Start(service::Server* server,
                                                    NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Stops the acceptor, closes every connection, joins all threads.
  /// Idempotent.
  void Shutdown();

  /// The bound port (resolves option `port == 0` to the kernel's pick).
  uint16_t port() const { return port_; }

 private:
  /// One accepted socket and the thread serving it. `fd` is closed only
  /// after `thread` is joined, so a concurrent `Shutdown()` can never
  /// reach a reused descriptor number.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};  ///< Set as `thread` returns.
  };

  NetServer(SessionFactory factory, NetServerOptions options);

  Status Listen();
  void AcceptLoop();
  /// The connection's read → execute → write loop; owns its executor.
  void Serve(Connection* conn,
             std::unique_ptr<sql::StatementExecutor> session);
  /// Joins and closes every connection whose loop has returned.
  void ReapFinished();

  SessionFactory factory_;
  NetServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  /// Touched only by the accept thread while it runs, and by `Shutdown`
  /// after joining it.
  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread acceptor_;
  /// Serializes Shutdown against itself (dtor + explicit call).
  common::Mutex shutdown_mu_;
  bool shut_down_ GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace hermes::net

#endif  // HERMES_NET_NET_SERVER_H_
