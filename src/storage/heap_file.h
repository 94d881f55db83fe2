#ifndef HERMES_STORAGE_HEAP_FILE_H_
#define HERMES_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "storage/lock_stats.h"
#include "storage/pager.h"

namespace hermes::storage {

/// \brief Address of a record in a heap file: (page, slot).
struct RecordId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPage; }
  bool operator==(const RecordId& o) const {
    return page == o.page && slot == o.slot;
  }
  /// Packs into one integer (for index datums).
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordId Unpack(uint64_t v) {
    RecordId rid;
    rid.page = static_cast<PageId>(v >> 16);
    rid.slot = static_cast<uint16_t>(v & 0xFFFF);
    return rid;
  }
};

/// \brief Slotted-page heap file: the on-disk representation of a ReTraTree
/// partition (member sub-trajectories of one representative, or the outlier
/// partition of a sub-chunk).
///
/// Layout: page 0 is the meta page (record counts, tail pointer); data
/// pages, from page 1, use a classic slotted layout (slot directory grows
/// from the page end, record bytes from the header). Records are immutable
/// once written; `Delete` installs a tombstone. Space is reclaimed by
/// dropping the whole partition, matching the engine's usage.
///
/// The meta page never takes a buffer-pool frame: the handle keeps its
/// fields in members, and only `Flush` writes its image. So a file closed
/// without `Flush` does not reopen with its records: it reads as empty,
/// or as corrupt once an eviction has written a data page. A flushed file
/// reopens with the same tail and counts.
///
/// Thread safety: record operations take an internal reader/writer lock —
/// `Read`/`Scan` shared, `Append`/`Delete` exclusive — so one handle may be
/// shared by concurrent readers without serializing them (the pager guards
/// its own buffer pool internally). Lock traffic is counted in
/// `lock_stats()`. Writers still need external coordination against
/// `PartitionManager::Drop`.
class HeapFile {
 public:
  /// Opens or creates a heap file backed by `fname` under `env`.
  static StatusOr<std::unique_ptr<HeapFile>> Open(Env* env,
                                                  const std::string& fname,
                                                  size_t cache_pages = 64);

  /// Appends a record (size must fit a page payload; ~8 KiB).
  StatusOr<RecordId> Append(const std::string& record);

  /// Reads a record; NotFound for tombstones and invalid ids.
  StatusOr<std::string> Read(const RecordId& rid) const;

  /// Tombstones a record. Idempotent.
  Status Delete(const RecordId& rid);

  /// Visits all live records in storage order. The callback returns false
  /// to stop the scan early.
  Status Scan(
      const std::function<bool(const RecordId&, const std::string&)>& fn)
      const;

  /// Number of live (non-deleted) records.
  uint64_t live_records() const {
    return live_records_.load(std::memory_order_relaxed);
  }
  /// Total appended records including tombstoned ones.
  uint64_t total_records() const {
    return total_records_.load(std::memory_order_relaxed);
  }

  /// Writes the meta page and every dirty data page, then syncs.
  Status Flush();

  /// Point-in-time counter snapshots (by value: they mutate concurrently).
  PagerStats io_stats() const;
  LockStats lock_stats() const { return lock_counters_.Snapshot(); }

 private:
  explicit HeapFile(std::unique_ptr<Pager> pager);

  Status LoadMeta() REQUIRES(mu_);
  /// Writes the meta page image from the members, past the pool.
  Status SaveMeta() REQUIRES(mu_);

  /// Reader/writer lock over record operations (see class comment).
  mutable common::SharedMutex mu_;
  mutable LockStatsCounters lock_counters_;
  /// Never reassigned after construction; the pager locks internally, so
  /// `io_stats()` reads it without `mu_`.
  std::unique_ptr<Pager> pager_;
  /// Last data page (append target).
  PageId tail_page_ GUARDED_BY(mu_) = kInvalidPage;
  std::atomic<uint64_t> live_records_{0};
  std::atomic<uint64_t> total_records_{0};
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_HEAP_FILE_H_
