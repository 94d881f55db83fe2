#ifndef HERMES_SERVICE_SERVICE_CONFIG_H_
#define HERMES_SERVICE_SERVICE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "service/server.h"

namespace hermes::service {

/// \brief One validated configuration for the whole service stack:
/// shard count, the per-shard `service::Server` knobs, and the TCP
/// front end — replacing the previously scattered, unchecked trio of
/// `ServerOptions`, `net::NetServerOptions`, and ad-hoc daemon flag
/// parsing.
///
/// The network fields are plain scalars (not `net::NetServerOptions`)
/// so `service/` stays independent of `net/`; `net::MakeNetServerOptions`
/// converts. Per-shard directories derive deterministically: shard k of
/// an N > 1 deployment gets `<data_dir>/shard<k>` and
/// `<wal_dir>/shard<k>`, while a 1-shard deployment keeps the plain
/// paths — so existing unsharded WAL dirs recover unchanged.
struct ServiceConfig {
  /// Number of single-writer `service::Server` shards the coordinator
  /// owns. 1 = the unsharded topology.
  size_t shards = 1;

  // ---- Per-shard server knobs (mirrors ServerOptions) ----
  size_t threads = 1;
  std::string data_dir = "hermes_service";
  size_t ingest_queue_capacity = 1024;
  sql::HermesSettingDefaults session_defaults;
  /// WAL/checkpoint root; empty disables durability on every shard.
  std::string wal_dir;

  // ---- TCP front end (plain scalars; see net::MakeNetServerOptions) ----
  std::string listen_addr = "127.0.0.1";
  uint16_t port = 0;
  int backlog = 128;
  int idle_timeout_ms = 0;
  /// 0 = the wire protocol's default frame cap.
  uint32_t max_frame_bytes = 0;

  /// Rejects invalid configurations up front: `shards < 1` (or absurdly
  /// large), out-of-domain session defaults, and nonsensical network
  /// knobs.
  Status Validate() const;

  /// Shard k's ReTraTree partition directory.
  std::string ShardDataDir(size_t shard) const;
  /// Shard k's WAL directory ("" when durability is off).
  std::string ShardWalDir(size_t shard) const;
  /// The `ServerOptions` shard k starts with.
  ServerOptions ShardServerOptions(size_t shard) const;
};

}  // namespace hermes::service

#endif  // HERMES_SERVICE_SERVICE_CONFIG_H_
