#ifndef HERMES_SHARD_PARTITIONER_H_
#define HERMES_SHARD_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <string>

namespace hermes::shard {

/// \brief Maps an object id to the shard that owns it.
///
/// The partition key is the *object* id (not trajectory or point):
/// every sub-trajectory of one moving object must land on one shard, so
/// that per-object point order — which the clustering pipeline depends
/// on — is a purely shard-local property. The mapping must be a pure
/// function of (object id, shard count): routing is deterministic and
/// stateless, so a coordinator restarted over the same shard directories
/// agrees with where their rows already live.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// The owning shard for `object_id`, in `[0, num_shards)`.
  /// `num_shards` is always >= 1.
  virtual size_t ShardOf(uint64_t object_id, size_t num_shards) const = 0;

  /// Stable identifier for logs and stats.
  virtual std::string name() const = 0;
};

/// The default: FNV-1a over the object id's little-endian bytes, modulo
/// the shard count. Mixing through FNV (rather than `id % n`) keeps
/// striding id sequences — datagen emits 0..N-1 — from aliasing with
/// the shard count.
std::unique_ptr<Partitioner> MakeHashPartitioner();

}  // namespace hermes::shard

#endif  // HERMES_SHARD_PARTITIONER_H_
