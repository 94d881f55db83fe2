#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace hermes::net {

StatusOr<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                  uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close(fd);
    return Status::IOError("connect(" + host + ":" + std::to_string(port) +
                           "): " + std::strerror(err));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

void Client::CloseWrite() { shutdown(fd_, SHUT_WR); }

Status Client::SendRaw(const void* data, size_t size) {
  return SendAll(fd_, data, size);
}

Status Client::SendExecute(const std::string& sql) {
  std::string frame;
  AppendExecuteFrame(sql, &frame);
  return SendRaw(frame.data(), frame.size());
}

Status Client::SendPrepare(uint32_t stmt_id, const std::string& sql) {
  std::string frame;
  AppendPrepareFrame(stmt_id, sql, &frame);
  return SendRaw(frame.data(), frame.size());
}

Status Client::SendBindExecute(uint32_t stmt_id,
                               const std::vector<sql::Value>& binds) {
  std::string frame;
  AppendBindExecuteFrame(stmt_id, binds, &frame);
  return SendRaw(frame.data(), frame.size());
}

Status Client::SendFlush() {
  std::string frame;
  AppendFlushFrame(&frame);
  return SendRaw(frame.data(), frame.size());
}

Status Client::SendPing() {
  std::string frame;
  AppendPingFrame(&frame);
  return SendRaw(frame.data(), frame.size());
}

Status Client::SendClosePrepared(uint32_t stmt_id) {
  std::string frame;
  AppendClosePreparedFrame(stmt_id, &frame);
  return SendRaw(frame.data(), frame.size());
}

StatusOr<Response> Client::ReadResponse() {
  std::string body;
  HERMES_RETURN_NOT_OK(reader_.Next(&body, receive_timeout_ms_));
  return DecodeResponse(body);
}

StatusOr<sql::Table> Client::ReadTable() {
  HERMES_ASSIGN_OR_RETURN(Response resp, ReadResponse());
  if (resp.op == Opcode::kError) {
    return Status(resp.code, resp.message);
  }
  if (resp.op != Opcode::kTable) {
    return Status::Corruption("expected TABLE response, got opcode " +
                              std::to_string(static_cast<int>(resp.op)));
  }
  return std::move(resp.table);
}

StatusOr<sql::Table> Client::Execute(const std::string& sql) {
  HERMES_RETURN_NOT_OK(SendExecute(sql));
  return ReadTable();
}

StatusOr<uint16_t> Client::Prepare(uint32_t stmt_id, const std::string& sql) {
  HERMES_RETURN_NOT_OK(SendPrepare(stmt_id, sql));
  HERMES_ASSIGN_OR_RETURN(Response resp, ReadResponse());
  if (resp.op == Opcode::kError) {
    return Status(resp.code, resp.message);
  }
  if (resp.op != Opcode::kPrepared || resp.stmt_id != stmt_id) {
    return Status::Corruption("bad PREPARED response");
  }
  return resp.num_params;
}

StatusOr<sql::Table> Client::BindExecute(
    uint32_t stmt_id, const std::vector<sql::Value>& binds) {
  HERMES_RETURN_NOT_OK(SendBindExecute(stmt_id, binds));
  return ReadTable();
}

StatusOr<sql::Table> Client::Flush() {
  HERMES_RETURN_NOT_OK(SendFlush());
  return ReadTable();
}

Status Client::Ping() {
  HERMES_RETURN_NOT_OK(SendPing());
  HERMES_ASSIGN_OR_RETURN(Response resp, ReadResponse());
  if (resp.op == Opcode::kError) {
    return Status(resp.code, resp.message);
  }
  if (resp.op != Opcode::kPong) {
    return Status::Corruption("expected PONG response");
  }
  return Status::OK();
}

Status Client::ClosePrepared(uint32_t stmt_id) {
  HERMES_RETURN_NOT_OK(SendClosePrepared(stmt_id));
  HERMES_ASSIGN_OR_RETURN(Response resp, ReadResponse());
  if (resp.op == Opcode::kError) {
    return Status(resp.code, resp.message);
  }
  if (resp.op != Opcode::kPong) {
    return Status::Corruption("expected PONG response");
  }
  return Status::OK();
}

namespace {

/// net::Client behind the backend-neutral statement API. The wire
/// protocol already speaks id-based prepare, so the executor's handles
/// are the wire statement ids themselves — no translation map needed.
class ClientExecutor final : public sql::StatementExecutor {
 public:
  explicit ClientExecutor(std::unique_ptr<Client> client)
      : client_(std::move(client)) {}

  StatusOr<sql::Table> Execute(const std::string& sql) override {
    return client_->Execute(sql);
  }

  StatusOr<sql::PreparedHandle> Prepare(const std::string& sql) override {
    const uint32_t id = next_id_++;
    HERMES_ASSIGN_OR_RETURN(uint16_t num_params, client_->Prepare(id, sql));
    sql::PreparedHandle handle;
    handle.id = id;
    handle.num_params = num_params;
    return handle;
  }

  StatusOr<sql::Table> BindExecute(
      uint32_t id, const std::vector<sql::Value>& binds) override {
    return client_->BindExecute(id, binds);
  }

  Status ClosePrepared(uint32_t id) override {
    return client_->ClosePrepared(id);
  }

  Status Flush() override { return client_->Flush().status(); }

 private:
  std::unique_ptr<Client> client_;
  uint32_t next_id_ = 1;
};

}  // namespace

std::unique_ptr<sql::StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<Client> client) {
  return std::make_unique<ClientExecutor>(std::move(client));
}

}  // namespace hermes::net
