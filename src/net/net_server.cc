#include "net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <system_error>
#include <utility>

#include "service/client_session.h"

namespace hermes::net {

namespace {

/// Executes one decoded request on `session`, appending the response
/// frame to `*out`. `prepared` maps client-chosen wire statement ids to
/// the executor's own handles; re-PREPARE on a wire id replaces (and
/// closes) the old one.
void HandleRequest(sql::StatementExecutor* session,
                   std::map<uint32_t, sql::PreparedHandle>* prepared,
                   const StatusOr<Request>& req, std::string* out) {
  if (!req.ok()) {
    AppendErrorFrame(req.status(), out);
    return;
  }
  const Request& r = *req;
  switch (r.op) {
    case Opcode::kPing:
      AppendPongFrame(out);
      return;
    case Opcode::kExecute:
    case Opcode::kFlush: {
      // FLUSH is spelled as a statement so its ack table — and its
      // drain-the-ingest-queue semantics — match the SQL path exactly.
      StatusOr<sql::Table> result =
          session->Execute(r.op == Opcode::kFlush ? "FLUSH" : r.sql);
      if (!result.ok()) {
        AppendErrorFrame(result.status(), out);
      } else {
        AppendTableFrame(*result, out);
      }
      return;
    }
    case Opcode::kPrepare: {
      StatusOr<sql::PreparedHandle> handle = session->Prepare(r.sql);
      if (!handle.ok()) {
        AppendErrorFrame(handle.status(), out);
        return;
      }
      // Re-PREPARE on a wire id replaces the old statement; release the
      // executor's handle so remote backends can reclaim theirs too.
      auto it = prepared->find(r.stmt_id);
      if (it != prepared->end()) {
        (void)session->ClosePrepared(it->second.id);
      }
      prepared->insert_or_assign(r.stmt_id, *handle);
      AppendPreparedFrame(r.stmt_id, static_cast<uint16_t>(handle->num_params),
                          out);
      return;
    }
    case Opcode::kBindExecute: {
      auto it = prepared->find(r.stmt_id);
      if (it == prepared->end()) {
        AppendErrorFrame(
            Status::NotFound("no prepared statement with id " +
                             std::to_string(r.stmt_id)),
            out);
        return;
      }
      StatusOr<sql::Table> result =
          session->BindExecute(it->second.id, r.binds);
      if (!result.ok()) {
        AppendErrorFrame(result.status(), out);
      } else {
        AppendTableFrame(*result, out);
      }
      return;
    }
    case Opcode::kClosePrepared: {
      auto it = prepared->find(r.stmt_id);
      if (it == prepared->end()) {
        AppendErrorFrame(
            Status::NotFound("no prepared statement with id " +
                             std::to_string(r.stmt_id)),
            out);
        return;
      }
      const Status st = session->ClosePrepared(it->second.id);
      prepared->erase(it);
      if (!st.ok()) {
        AppendErrorFrame(st, out);
      } else {
        AppendPongFrame(out);
      }
      return;
    }
    default:
      AppendErrorFrame(Status::InvalidArgument("response opcode in request"),
                       out);
      return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

NetServerOptions MakeNetServerOptions(const service::ServiceConfig& config) {
  NetServerOptions opts;
  opts.listen_addr = config.listen_addr;
  opts.port = config.port;
  opts.max_frame_bytes = config.max_frame_bytes;
  opts.backlog = config.backlog;
  opts.idle_timeout_ms = config.idle_timeout_ms;
  return opts;
}

NetServer::NetServer(SessionFactory factory, NetServerOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {}

StatusOr<std::unique_ptr<NetServer>> NetServer::Start(
    SessionFactory factory, NetServerOptions options) {
  if (!factory) {
    return Status::InvalidArgument("NetServer requires a session factory");
  }
  if (options.max_frame_bytes == 0) options.max_frame_bytes = kMaxFrameBytes;
  std::unique_ptr<NetServer> net(
      new NetServer(std::move(factory), std::move(options)));
  HERMES_RETURN_NOT_OK(net->Listen());
  net->acceptor_ = std::thread([raw = net.get()] { raw->AcceptLoop(); });
  return net;
}

StatusOr<std::unique_ptr<NetServer>> NetServer::Start(
    service::Server* server, NetServerOptions options) {
  return Start(
      [server] { return service::MakeStatementExecutor(server->Connect()); },
      std::move(options));
}

Status NetServer::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.listen_addr.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " +
                                   options_.listen_addr);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("bind(" + options_.listen_addr + ":" +
                           std::to_string(options_.port) +
                           "): " + std::strerror(errno));
  }
  if (listen(listen_fd_, options_.backlog) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  {
    common::MutexLock lock(&shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  stop_.store(true, std::memory_order_release);
  // shutdown() on a listening socket wakes the blocked accept() (Linux
  // returns EINVAL); on a connection it wakes a blocked read, poll or
  // send. The descriptors themselves stay open until their threads join.
  if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& conn : conns_) shutdown(conn->fd, SHUT_RDWR);
  for (auto& conn : conns_) {
    conn->thread.join();
    close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

// ---------------------------------------------------------------------------
// Accept thread
// ---------------------------------------------------------------------------

void NetServer::AcceptLoop() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (stop_.load(std::memory_order_acquire)) {
      if (fd >= 0) close(fd);
      return;
    }
    ReapFinished();
    if (fd < 0) continue;  // EINTR, or a connection reset before accept.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    try {
      raw->thread = std::thread(
          [this, raw, session = factory_()]() mutable {
            Serve(raw, std::move(session));
          });
    } catch (const std::system_error&) {
      close(fd);  // Out of threads: refuse this peer, keep serving others.
      continue;
    }
    conns_.push_back(std::move(conn));
  }
}

void NetServer::ReapFinished() {
  for (size_t i = 0; i < conns_.size();) {
    Connection* conn = conns_[i].get();
    if (!conn->done.load(std::memory_order_acquire)) {
      ++i;
      continue;
    }
    conn->thread.join();
    close(conn->fd);
    conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Connection loop
// ---------------------------------------------------------------------------

void NetServer::Serve(Connection* conn,
                      std::unique_ptr<sql::StatementExecutor> session) {
  std::map<uint32_t, sql::PreparedHandle> prepared;
  FrameReader reader(conn->fd, options_.max_frame_bytes);
  std::string body;
  std::string out;
  while (!stop_.load(std::memory_order_acquire)) {
    // Peer EOF (after every frame it sent), idle timeout, a failed read
    // and Shutdown() all surface here as IOError: stop serving.
    const Status read = reader.Next(&body, options_.idle_timeout_ms);
    if (read.IsIOError()) break;
    out.clear();
    if (read.ok()) {
      HandleRequest(session.get(), &prepared, DecodeRequest(body), &out);
      const size_t bytes = out.size() - 4;  // Frame length after the prefix.
      if (bytes > options_.max_frame_bytes) {
        out.clear();
        AppendErrorFrame(
            Status::ResourceExhausted(
                "response of " + std::to_string(bytes) +
                " bytes exceeds max_frame_bytes (" +
                std::to_string(options_.max_frame_bytes) + ")"),
            &out);
      }
    } else {
      // Oversize length prefix: answer once, then never frame this
      // stream again.
      AppendErrorFrame(read, &out);
    }
    if (!SendAll(conn->fd, out.data(), out.size()).ok() || !read.ok()) break;
  }
  // The peer sees EOF now; the descriptor is closed after the join.
  shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

}  // namespace hermes::net
