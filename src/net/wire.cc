#include "net/wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/coding.h"

namespace hermes::net {

namespace {

void PutString(std::string* dst, const std::string& s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s);
}

void PutValue(std::string* dst, const sql::Value& v) {
  dst->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case sql::ValueType::kNull:
      break;
    case sql::ValueType::kInt:
      PutFixed64(dst, static_cast<uint64_t>(v.AsInt()));
      break;
    case sql::ValueType::kDouble:
      PutDouble(dst, v.AsDouble());
      break;
    case sql::ValueType::kString:
      PutString(dst, v.AsString());
      break;
  }
}

/// Wraps an encoded body (opcode + payload) in the length prefix.
void PutFrame(std::string* dst, const std::string& body) {
  PutFixed32(dst, static_cast<uint32_t>(body.size()));
  dst->append(body);
}

/// \brief Bounds-checked sequential reader over a frame body.
///
/// The shared `common::Decoder` trusts its caller on bounds; wire bytes
/// come from the network, so every read here checks `remaining()` first
/// and latches a failure flag that the decode entry points turn into a
/// single InvalidArgument at the end (branch-free happy path).
class WireReader {
 public:
  explicit WireReader(const std::string& body)
      : p_(body.data()), end_(body.data() + body.size()) {}

  bool failed() const { return failed_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t ReadU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(*p_++);
  }
  uint16_t ReadU16() {
    if (!Require(2)) return 0;
    const uint16_t v = GetFixed16(p_);
    p_ += 2;
    return v;
  }
  uint32_t ReadU32() {
    if (!Require(4)) return 0;
    const uint32_t v = GetFixed32(p_);
    p_ += 4;
    return v;
  }
  uint64_t ReadU64() {
    if (!Require(8)) return 0;
    const uint64_t v = GetFixed64(p_);
    p_ += 8;
    return v;
  }
  double ReadF64() {
    if (!Require(8)) return 0.0;
    const double v = GetDouble(p_);
    p_ += 8;
    return v;
  }
  std::string ReadString() {
    const uint32_t n = ReadU32();
    if (!Require(n)) return std::string();
    std::string s(p_, n);
    p_ += n;
    return s;
  }
  sql::Value ReadValue() {
    switch (ReadU8()) {
      case static_cast<uint8_t>(sql::ValueType::kNull):
        return sql::Value::Null();
      case static_cast<uint8_t>(sql::ValueType::kInt):
        return sql::Value::Int(static_cast<int64_t>(ReadU64()));
      case static_cast<uint8_t>(sql::ValueType::kDouble):
        return sql::Value::Double(ReadF64());
      case static_cast<uint8_t>(sql::ValueType::kString):
        return sql::Value::Str(ReadString());
      default:
        failed_ = true;
        return sql::Value::Null();
    }
  }

  /// A frame with unconsumed payload bytes is malformed too — a peer
  /// speaking a newer dialect must version via new opcodes, not riders.
  Status Finish(const char* what) const {
    if (failed_ || remaining() != 0) {
      return Status::InvalidArgument(std::string("malformed ") + what +
                                     " frame");
    }
    return Status::OK();
  }

 private:
  bool Require(size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool failed_ = false;
};

}  // namespace

// --- Request encoding ----------------------------------------------------

void AppendExecuteFrame(const std::string& sql, std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(Opcode::kExecute));
  PutString(&body, sql);
  PutFrame(dst, body);
}

void AppendPrepareFrame(uint32_t stmt_id, const std::string& sql,
                        std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(Opcode::kPrepare));
  PutFixed32(&body, stmt_id);
  PutString(&body, sql);
  PutFrame(dst, body);
}

void AppendBindExecuteFrame(uint32_t stmt_id,
                            const std::vector<sql::Value>& binds,
                            std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(Opcode::kBindExecute));
  PutFixed32(&body, stmt_id);
  PutFixed16(&body, static_cast<uint16_t>(binds.size()));
  for (const sql::Value& v : binds) PutValue(&body, v);
  PutFrame(dst, body);
}

void AppendFlushFrame(std::string* dst) {
  std::string body(1, static_cast<char>(Opcode::kFlush));
  PutFrame(dst, body);
}

void AppendPingFrame(std::string* dst) {
  std::string body(1, static_cast<char>(Opcode::kPing));
  PutFrame(dst, body);
}

void AppendClosePreparedFrame(uint32_t stmt_id, std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(Opcode::kClosePrepared));
  PutFixed32(&body, stmt_id);
  PutFrame(dst, body);
}

// --- Response encoding ---------------------------------------------------

void AppendTableFrame(const sql::Table& table, std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(Opcode::kTable));
  PutFixed16(&body, static_cast<uint16_t>(table.columns.size()));
  for (const sql::Column& c : table.columns) {
    PutString(&body, c.name);
    body.push_back(static_cast<char>(c.type));
  }
  PutFixed32(&body, static_cast<uint32_t>(table.rows.size()));
  for (const auto& row : table.rows) {
    for (const sql::Value& v : row) PutValue(&body, v);
  }
  PutFrame(dst, body);
}

void AppendErrorFrame(const Status& status, std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(Opcode::kError));
  body.push_back(static_cast<char>(status.code()));
  PutString(&body, status.message());
  PutFrame(dst, body);
}

void AppendPreparedFrame(uint32_t stmt_id, uint16_t num_params,
                         std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(Opcode::kPrepared));
  PutFixed32(&body, stmt_id);
  PutFixed16(&body, num_params);
  PutFrame(dst, body);
}

void AppendPongFrame(std::string* dst) {
  std::string body(1, static_cast<char>(Opcode::kPong));
  PutFrame(dst, body);
}

// --- Framing -------------------------------------------------------------

FrameScan ScanFrame(const std::string& buf, size_t* offset,
                    std::string* body, uint32_t max_frame) {
  const size_t avail = buf.size() - *offset;
  if (avail < 4) return FrameScan::kNeedMore;
  const uint32_t len = GetFixed32(buf.data() + *offset);
  // A zero-length frame carries no opcode; treat as oversize-class poison
  // (the framing invariant is broken either way).
  if (len == 0 || len > max_frame) return FrameScan::kOversize;
  if (avail < 4 + static_cast<size_t>(len)) return FrameScan::kNeedMore;
  body->assign(buf, *offset + 4, len);
  *offset += 4 + static_cast<size_t>(len);
  return FrameScan::kFrame;
}

// --- Blocking socket I/O -------------------------------------------------

Status SendAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t w = send(fd, p, size, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    p += w;
    size -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status FrameReader::Next(std::string* body, int timeout_ms) {
  for (;;) {
    const FrameScan scan = ScanFrame(buf_, &off_, body, max_frame_);
    if (scan == FrameScan::kFrame) return Status::OK();
    if (scan == FrameScan::kOversize) {
      return Status::InvalidArgument("frame exceeds max_frame_bytes (" +
                                     std::to_string(max_frame_) + ")");
    }
    buf_.erase(0, off_);
    off_ = 0;
    if (timeout_ms > 0) {
      // Bounds the wait for the next byte, not for the whole frame: what
      // the deadline guards against is a peer that stops sending.
      pollfd pfd{fd_, POLLIN, 0};
      int ready = 0;
      do {
        ready = poll(&pfd, 1, timeout_ms);
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) {
        return Status::IOError("receive timeout after " +
                               std::to_string(timeout_ms) + "ms");
      }
      if (ready < 0) {
        return Status::IOError(std::string("poll: ") + std::strerror(errno));
      }
    }
    char chunk[16 * 1024];
    const ssize_t r = read(fd_, chunk, sizeof(chunk));
    if (r > 0) {
      buf_.append(chunk, static_cast<size_t>(r));
    } else if (r == 0) {
      return Status::IOError("connection closed by peer");
    } else if (errno != EINTR) {
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
  }
}

// --- Decoding ------------------------------------------------------------

StatusOr<Request> DecodeRequest(const std::string& body) {
  WireReader r(body);
  Request req;
  const uint8_t op = r.ReadU8();
  switch (op) {
    case static_cast<uint8_t>(Opcode::kExecute):
      req.op = Opcode::kExecute;
      req.sql = r.ReadString();
      HERMES_RETURN_NOT_OK(r.Finish("EXECUTE"));
      return req;
    case static_cast<uint8_t>(Opcode::kPrepare):
      req.op = Opcode::kPrepare;
      req.stmt_id = r.ReadU32();
      req.sql = r.ReadString();
      HERMES_RETURN_NOT_OK(r.Finish("PREPARE"));
      return req;
    case static_cast<uint8_t>(Opcode::kBindExecute): {
      req.op = Opcode::kBindExecute;
      req.stmt_id = r.ReadU32();
      const uint16_t n = r.ReadU16();
      req.binds.reserve(n);
      for (uint16_t i = 0; i < n && !r.failed(); ++i) {
        req.binds.push_back(r.ReadValue());
      }
      HERMES_RETURN_NOT_OK(r.Finish("BIND+EXECUTE"));
      return req;
    }
    case static_cast<uint8_t>(Opcode::kFlush):
      req.op = Opcode::kFlush;
      HERMES_RETURN_NOT_OK(r.Finish("FLUSH"));
      return req;
    case static_cast<uint8_t>(Opcode::kPing):
      req.op = Opcode::kPing;
      HERMES_RETURN_NOT_OK(r.Finish("PING"));
      return req;
    case static_cast<uint8_t>(Opcode::kClosePrepared):
      req.op = Opcode::kClosePrepared;
      req.stmt_id = r.ReadU32();
      HERMES_RETURN_NOT_OK(r.Finish("CLOSE PREPARED"));
      return req;
    default:
      return Status::InvalidArgument("unknown request opcode " +
                                     std::to_string(op));
  }
}

StatusOr<Response> DecodeResponse(const std::string& body) {
  WireReader r(body);
  Response resp;
  const uint8_t op = r.ReadU8();
  switch (op) {
    case static_cast<uint8_t>(Opcode::kTable): {
      resp.op = Opcode::kTable;
      const uint16_t ncols = r.ReadU16();
      resp.table.columns.reserve(ncols);
      for (uint16_t c = 0; c < ncols && !r.failed(); ++c) {
        std::string name = r.ReadString();
        const uint8_t type = r.ReadU8();
        if (type > static_cast<uint8_t>(sql::ValueType::kString)) {
          return Status::InvalidArgument("bad column type in TABLE frame");
        }
        resp.table.columns.emplace_back(std::move(name),
                                        static_cast<sql::ValueType>(type));
      }
      const uint32_t nrows = r.ReadU32();
      // Bound preallocation by the bytes actually present: a row is at
      // least ncols tag bytes, so a lying nrows cannot balloon memory.
      if (ncols > 0 &&
          static_cast<uint64_t>(nrows) * ncols > r.remaining()) {
        return Status::InvalidArgument("truncated TABLE frame");
      }
      resp.table.rows.reserve(nrows);
      for (uint32_t i = 0; i < nrows && !r.failed(); ++i) {
        std::vector<sql::Value> row;
        row.reserve(ncols);
        for (uint16_t c = 0; c < ncols && !r.failed(); ++c) {
          row.push_back(r.ReadValue());
        }
        resp.table.rows.push_back(std::move(row));
      }
      HERMES_RETURN_NOT_OK(r.Finish("TABLE"));
      return resp;
    }
    case static_cast<uint8_t>(Opcode::kError): {
      resp.op = Opcode::kError;
      const uint8_t code = r.ReadU8();
      if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
        return Status::InvalidArgument("bad status code in ERROR frame");
      }
      resp.code = static_cast<StatusCode>(code);
      resp.message = r.ReadString();
      HERMES_RETURN_NOT_OK(r.Finish("ERROR"));
      return resp;
    }
    case static_cast<uint8_t>(Opcode::kPrepared):
      resp.op = Opcode::kPrepared;
      resp.stmt_id = r.ReadU32();
      resp.num_params = r.ReadU16();
      HERMES_RETURN_NOT_OK(r.Finish("PREPARED"));
      return resp;
    case static_cast<uint8_t>(Opcode::kPong):
      resp.op = Opcode::kPong;
      HERMES_RETURN_NOT_OK(r.Finish("PONG"));
      return resp;
    default:
      return Status::InvalidArgument("unknown response opcode " +
                                     std::to_string(op));
  }
}

}  // namespace hermes::net
