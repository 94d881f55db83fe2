#include "service/service_config.h"

namespace hermes::service {

namespace {

/// Shards beyond this are a configuration error, not a deployment: each
/// shard owns a worker thread, an exec context, and (durable) a WAL.
constexpr size_t kMaxShards = 256;

}  // namespace

Status ServiceConfig::Validate() const {
  if (shards < 1) {
    return Status::InvalidArgument("ServiceConfig.shards must be >= 1");
  }
  if (shards > kMaxShards) {
    return Status::InvalidArgument("ServiceConfig.shards must be <= " +
                                   std::to_string(kMaxShards));
  }
  if (data_dir.empty()) {
    return Status::InvalidArgument("ServiceConfig.data_dir must be non-empty");
  }
  if (backlog < 1) {
    return Status::InvalidArgument("ServiceConfig.backlog must be >= 1");
  }
  if (idle_timeout_ms < 0) {
    return Status::InvalidArgument(
        "ServiceConfig.idle_timeout_ms must be >= 0");
  }
  if (listen_addr.empty()) {
    return Status::InvalidArgument(
        "ServiceConfig.listen_addr must be non-empty");
  }
  // Every shard shares the same threads/queue/session-default knobs, so
  // validating shard 0's derived options covers them all.
  return ValidateServerOptions(ShardServerOptions(0));
}

std::string ServiceConfig::ShardDataDir(size_t shard) const {
  if (shards <= 1) return data_dir;
  return data_dir + "/shard" + std::to_string(shard);
}

std::string ServiceConfig::ShardWalDir(size_t shard) const {
  if (wal_dir.empty()) return "";
  if (shards <= 1) return wal_dir;
  return wal_dir + "/shard" + std::to_string(shard);
}

ServerOptions ServiceConfig::ShardServerOptions(size_t shard) const {
  ServerOptions opts;
  opts.threads = threads;
  opts.data_dir = ShardDataDir(shard);
  opts.ingest_queue_capacity = ingest_queue_capacity;
  opts.session_defaults = session_defaults;
  opts.wal_dir = ShardWalDir(shard);
  return opts;
}

}  // namespace hermes::service
