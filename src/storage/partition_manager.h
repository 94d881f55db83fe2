#ifndef HERMES_STORAGE_PARTITION_MANAGER_H_
#define HERMES_STORAGE_PARTITION_MANAGER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "storage/heap_file.h"

namespace hermes::storage {

/// \brief Named on-disk partitions backing the ReTraTree data level.
///
/// Each partition is one heap file in the manager's directory — the
/// "pg3D-Rtree-k" member partitions and the outlier partitions of Fig. 2.
/// Dropping a partition deletes its file (how ReTraTree reclaims space
/// after re-clustering an outlier buffer).
///
/// Concurrency contract: the manager's own catalog (open handles, create,
/// drop, list) is mutex-guarded, so concurrent ingest tasks may open and
/// drop *different* partitions freely — the batch apply fan-out relies on
/// this. No file I/O runs under that mutex: `GetOrCreate` opens (and may
/// create) a file, and `Drop` flushes and deletes one, with the
/// partition's catalog entry marked busy, so only a `GetOrCreate` or
/// `Drop` of that same partition waits for it; `Exists` (which counts a
/// busy entry as existing), `List` and `FlushAll` touch the filesystem
/// after releasing the mutex too. The returned `HeapFile*` handles are
/// NOT thread-safe: callers must ensure each partition is used by at
/// most one task at a time
/// (ReTraTree guarantees it by giving every apply task disjoint
/// sub-chunks, whose partitions are disjoint by construction), and must
/// not race a handle's use — `FlushAll` uses every open handle — against
/// `Drop` of the same partition.
class PartitionManager {
 public:
  /// Creates a manager rooted at `dir` (created if absent).
  static StatusOr<std::unique_ptr<PartitionManager>> Open(
      Env* env, const std::string& dir);

  /// Opens (creating if needed) the named partition.
  StatusOr<HeapFile*> GetOrCreate(const std::string& name);

  /// True when the partition exists (open or on disk).
  bool Exists(const std::string& name) const;

  /// Closes and deletes the named partition.
  Status Drop(const std::string& name);

  /// Names of all partitions (open handles plus on-disk files), sorted.
  std::vector<std::string> List() const;

  /// Flushes every open partition.
  Status FlushAll();

  /// Visits every open partition handle under the catalog lock, in
  /// deterministic (name-sorted) order. Used to aggregate per-partition
  /// I/O and lock counters into tree-level observability stats; the
  /// visitor must not call back into the manager.
  void ForEachOpen(
      const std::function<void(const std::string&, HeapFile*)>& fn) const;

  const std::string& dir() const { return dir_; }

 private:
  PartitionManager(Env* env, std::string dir);

  std::string FileName(const std::string& name) const;

  /// A catalog entry. `busy` while a `GetOrCreate` opens the file or a
  /// `Drop` closes and deletes it (`file` is null then); callers naming
  /// the partition wait on `settled_` until it clears.
  struct Entry {
    std::unique_ptr<HeapFile> file;
    bool busy = false;
  };

  /// Blocks until `name` has no busy entry; returns its settled entry,
  /// or `open_.end()` when there is none.
  std::unordered_map<std::string, Entry>::iterator Settled(
      common::MutexLock* lock, const std::string& name) REQUIRES(mu_);

  Env* env_;
  std::string dir_;
  /// Guards `open_` against concurrent GetOrCreate/Drop from apply tasks.
  mutable common::Mutex mu_;
  /// Signalled whenever an entry stops being busy.
  std::condition_variable settled_;
  std::unordered_map<std::string, Entry> open_ GUARDED_BY(mu_);
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_PARTITION_MANAGER_H_
