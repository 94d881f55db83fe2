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

/// \brief Slotted-page heap file: the on-disk representation of a ReTraTree
/// partition (member sub-trajectories of one representative, or the outlier
/// partition of a sub-chunk).
///
/// Layout: page 0 is the meta page (magic, tail pointer, record count);
/// data pages, from page 1, use a classic slotted layout (slot directory
/// grows from the page end, record bytes from the header). The file is
/// append-only: records are never read by address, changed or deleted one
/// at a time. Space is reclaimed by deleting the whole partition, which its
/// owner does (`ReTraTree` re-clustering an outlier buffer).
///
/// The meta page never takes a buffer-pool frame: the handle keeps its
/// fields in members, and only `Flush` writes its image. So a file closed
/// without `Flush` does not reopen with its records: it reads as empty,
/// or as corrupt once an eviction has written a data page. A flushed file
/// reopens with the same tail and count.
///
/// Thread safety: record operations take an internal reader/writer lock —
/// `Scan` shared, `Append` and `Flush` exclusive — so one handle may be
/// shared by concurrent readers without serializing them (the pager guards
/// its own buffer pool internally). Lock traffic is counted in
/// `lock_stats()`. Closing or deleting the file is the owner's business.
class HeapFile {
 public:
  /// Opens or creates a heap file backed by `fname` under `env`.
  static StatusOr<std::unique_ptr<HeapFile>> Open(Env* env,
                                                  const std::string& fname,
                                                  size_t cache_pages = 64);

  /// Appends a record (size must fit a page payload; ~8 KiB).
  Status Append(const std::string& record);

  /// Visits every record in append order. The callback returns false to
  /// stop the scan early.
  Status Scan(const std::function<bool(const std::string&)>& fn) const;

  /// Number of records appended.
  uint64_t records() const { return records_.load(std::memory_order_relaxed); }

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
  std::atomic<uint64_t> records_{0};
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_HEAP_FILE_H_
