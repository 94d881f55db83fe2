#ifndef HERMES_STORAGE_PAGER_H_
#define HERMES_STORAGE_PAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "storage/env.h"

namespace hermes::storage {

/// Fixed page size of the engine (PostgreSQL-compatible 8 KiB).
inline constexpr size_t kPageSize = 8192;

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0xFFFFFFFFu;

/// \brief A pinned in-memory page frame.
struct Page {
  PageId id = kInvalidPage;
  std::array<char, kPageSize> data{};
  bool dirty = false;
  int pins = 0;
};

/// \brief I/O counters exposed for the benchmark harness.
struct PagerStats {
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t evictions = 0;
};

/// \brief Page allocator + LRU buffer pool over one file.
///
/// Pages are allocated append-only (the engine frees space by dropping whole
/// partition files, matching the ReTraTree storage discipline). Page reads
/// pin frames; callers must `Unpin` when done. Dirty pages are written back
/// on eviction and on `Flush`.
///
/// Concurrency: the pool metadata (frames, LRU, pins, stats) mutates even
/// on pure reads, so every entry point locks an internal mutex — which is
/// what lets the owning `HeapFile`/`Gist` take only a *shared* lock on
/// their read paths. Page *payloads* are not guarded here: the owner's
/// reader/writer lock keeps readers of `Page::data` from racing writers.
class Pager {
 public:
  /// Opens `fname` under `env`. `cache_pages` bounds the buffer pool.
  static StatusOr<std::unique_ptr<Pager>> Open(Env* env,
                                               const std::string& fname,
                                               size_t cache_pages = 256);

  /// Flushes best-effort: a failure is logged at `Error`, not raised
  /// (call `Flush` first to see its `Status`).
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Allocates a zeroed page at the end of the file; returns it pinned.
  StatusOr<Page*> Allocate();

  /// Fetches a page, reading from disk on a cache miss; returns it pinned.
  StatusOr<Page*> Fetch(PageId id);

  /// Releases a pin. Marks the page dirty when `dirty` is true.
  void Unpin(Page* page, bool dirty);

  /// Writes back all dirty pages and syncs the file.
  Status Flush();

  /// Number of pages in the file (allocated so far). Lock-free: readers
  /// use it for bounds checks without entering the pool mutex.
  PageId num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }

  /// Point-in-time counter snapshot (by value: the counters mutate under
  /// the pool mutex, so a reference would race).
  PagerStats stats() const {
    common::MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() {
    common::MutexLock lock(&mu_);
    stats_ = PagerStats{};
  }

 private:
  Pager(Env* env, std::unique_ptr<RandomRWFile> file, size_t cache_pages);

  Status EvictIfNeeded() REQUIRES(mu_);
  Status WriteBack(Page* page) REQUIRES(mu_);

  Env* env_;
  std::unique_ptr<RandomRWFile> file_;
  size_t cache_capacity_;
  std::atomic<PageId> num_pages_{0};

  /// Guards frames_/page_table_/lru_/pins/stats_ (see class comment).
  mutable common::Mutex mu_;

  std::unordered_map<PageId, std::unique_ptr<Page>> frames_ GUARDED_BY(mu_);
  /// O(1) id -> frame fast path for the hot read paths (index descents);
  /// entries are nullptr for non-resident pages.
  std::vector<Page*> page_table_ GUARDED_BY(mu_);
  /// Approximate recency order (refreshed on miss, not on every hit — a
  /// FIFO/LRU hybrid that keeps cache hits branch-cheap).
  std::list<PageId> lru_ GUARDED_BY(mu_);
  std::unordered_map<PageId, std::list<PageId>::iterator> lru_pos_
      GUARDED_BY(mu_);

  PagerStats stats_ GUARDED_BY(mu_);
};

/// \brief RAII pin guard.
class PinnedPage {
 public:
  PinnedPage(Pager* pager, Page* page) : pager_(pager), page_(page) {}
  ~PinnedPage() {
    if (page_ != nullptr) pager_->Unpin(page_, dirty_);
  }
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;
  PinnedPage(PinnedPage&& o) noexcept
      : pager_(o.pager_), page_(o.page_), dirty_(o.dirty_) {
    o.page_ = nullptr;
  }

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  void MarkDirty() { dirty_ = true; }

 private:
  Pager* pager_;
  Page* page_;
  bool dirty_ = false;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_PAGER_H_
