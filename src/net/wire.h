#ifndef HERMES_NET_WIRE_H_
#define HERMES_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "sql/value.h"

namespace hermes::net {

/// \brief The Hermes wire protocol: length-prefixed binary frames.
///
/// Every message — request or response — is one frame:
///
///     u32  length   little-endian; bytes that follow (opcode + payload)
///     u8   opcode
///     ...  payload  opcode-specific, little-endian fixed-width fields
///
/// `length` counts the opcode byte, so the smallest frame (PING) is
/// 5 bytes on the wire with length = 1. Strings are `u32 byte-count +
/// raw bytes` (no terminator). Values are tagged: `u8 value-type`
/// (`sql::ValueType` numeric value) followed by nothing (null), an i64
/// (int), an IEEE double (double), or a string (string).
///
/// Request opcodes:
///   kExecute      string sql
///   kPrepare      u32 stmt_id + string sql        (client picks the id)
///   kBindExecute  u32 stmt_id + u16 nbinds + nbinds tagged values,
///                 bound to $1..$nbinds in order
///   kFlush        (empty)                          -- drain async ingest
///   kPing         (empty)
///   kClosePrepared u32 stmt_id                     -- drop a prepared stmt
///
/// Response opcodes (one response per request, in request order —
/// pipelining-safe):
///   kTable     encoded sql::Table: u16 ncols, ncols × (string name +
///              u8 column type); u32 nrows, nrows × ncols tagged values
///   kError     u8 StatusCode + string message
///   kPrepared  u32 stmt_id + u16 num_params        (answers kPrepare)
///   kPong      (empty)                             (answers kPing and
///              kClosePrepared)
///
/// The protocol is strictly client-speaks-first request/response; the
/// server never pushes unsolicited frames.
enum class Opcode : uint8_t {
  // Requests.
  kExecute = 0x01,
  kPrepare = 0x02,
  kBindExecute = 0x03,
  kFlush = 0x04,
  kPing = 0x05,
  kClosePrepared = 0x06,
  // Responses.
  kTable = 0x81,
  kError = 0x82,
  kPrepared = 0x83,
  kPong = 0x84,
};

/// Frames larger than this are protocol errors: the peer is broken (or
/// malicious), and since the stream can no longer be framed reliably the
/// connection is closed after an error response. 16 MiB comfortably fits
/// every result a QUT / S2T statement produces today.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// One decoded request frame.
struct Request {
  Opcode op = Opcode::kPing;
  std::string sql;                ///< kExecute / kPrepare.
  uint32_t stmt_id = 0;           ///< kPrepare / kBindExecute / kClosePrepared.
  std::vector<sql::Value> binds;  ///< kBindExecute, $1.. in order.
};

/// One decoded response frame.
struct Response {
  Opcode op = Opcode::kPong;
  sql::Table table;        ///< kTable.
  StatusCode code = StatusCode::kOk;  ///< kError.
  std::string message;     ///< kError.
  uint32_t stmt_id = 0;    ///< kPrepared.
  uint16_t num_params = 0; ///< kPrepared.
};

// --- Encoding (appends one complete frame to `*dst`) ---------------------

void AppendExecuteFrame(const std::string& sql, std::string* dst);
void AppendPrepareFrame(uint32_t stmt_id, const std::string& sql,
                        std::string* dst);
void AppendBindExecuteFrame(uint32_t stmt_id,
                            const std::vector<sql::Value>& binds,
                            std::string* dst);
void AppendFlushFrame(std::string* dst);
void AppendPingFrame(std::string* dst);
void AppendClosePreparedFrame(uint32_t stmt_id, std::string* dst);

void AppendTableFrame(const sql::Table& table, std::string* dst);
void AppendErrorFrame(const Status& status, std::string* dst);
void AppendPreparedFrame(uint32_t stmt_id, uint16_t num_params,
                         std::string* dst);
void AppendPongFrame(std::string* dst);

// --- Framing -------------------------------------------------------------

/// Result of scanning a read buffer for one complete frame.
enum class FrameScan {
  kNeedMore,   ///< Partial frame; read more bytes.
  kFrame,      ///< One complete frame extracted.
  kOversize,   ///< Declared length exceeds `max_frame`: unrecoverable.
};

/// Scans `buf[offset..)` for one complete frame. On `kFrame`, sets
/// `*body` to the frame body (opcode + payload, length prefix stripped)
/// and advances `*offset` past the frame. On `kOversize` the declared
/// length itself is poison — the caller must stop framing this stream.
FrameScan ScanFrame(const std::string& buf, size_t* offset,
                    std::string* body, uint32_t max_frame = kMaxFrameBytes);

// --- Blocking socket I/O (one reader and one writer for both sides) ------

/// Writes all `size` bytes to the connected socket `fd`, resuming short
/// writes. A vanished peer is an IOError, never a SIGPIPE.
Status SendAll(int fd, const void* data, size_t size);

/// \brief Reads whole frames from a blocking socket: the frame reader of
/// both `Client::ReadResponse` and every server connection.
///
/// Bytes past a returned frame stay buffered for the next call, so a
/// pipelining peer's frames come out one at a time. Consumed bytes are
/// compacted before each read, so the buffer holds at most one partial
/// frame plus one read's worth.
class FrameReader {
 public:
  FrameReader(int fd, uint32_t max_frame) : fd_(fd), max_frame_(max_frame) {}

  /// Blocks for the next frame and sets `*body` to it (opcode + payload).
  /// With `timeout_ms > 0`, every wait for more bytes is bounded by a
  /// `poll` of that length. Returns InvalidArgument when the declared
  /// length breaks the cap (the stream can never be framed again, so stop
  /// reading it) and IOError on peer EOF, timeout or a failed read.
  Status Next(std::string* body, int timeout_ms);

 private:
  int fd_;
  uint32_t max_frame_;
  std::string buf_;
  size_t off_ = 0;  ///< Bytes of `buf_` before this offset are consumed.
};

// --- Decoding (frame body: opcode + payload, no length prefix) -----------

/// Decodes a request frame body. Unknown opcodes and truncated / trailing
/// payload bytes yield InvalidArgument — the connection survives (the
/// error is answered in-order like any statement error).
StatusOr<Request> DecodeRequest(const std::string& body);

/// Decodes a response frame body (client side).
StatusOr<Response> DecodeResponse(const std::string& body);

}  // namespace hermes::net

#endif  // HERMES_NET_WIRE_H_
