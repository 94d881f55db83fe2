#ifndef HERMES_GIST_GIST_H_
#define HERMES_GIST_GIST_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "gist/gist_page.h"
#include "storage/env.h"
#include "storage/lock_stats.h"
#include "storage/pager.h"

namespace hermes::gist {

/// \brief The GiST extensibility interface (Hellerstein, Naughton & Pfeffer,
/// VLDB 1995): six methods that specialize the generic balanced tree into a
/// concrete access method. `pg3D-Rtree` is one operator class over this
/// interface; nothing R-tree-specific lives in `Gist` itself.
///
/// Keys are opaque fixed-size byte strings (`KeySize()` bytes). Queries are
/// opaque too — `Consistent` alone interprets them.
class GistOpClass {
 public:
  virtual ~GistOpClass() = default;

  /// Size in bytes of every key.
  virtual size_t KeySize() const = 0;

  /// May the subtree/leaf under `key` contain matches for `query`?
  virtual bool Consistent(const void* key, const void* query,
                          bool is_leaf) const = 0;

  /// Replaces `dst` with the union of `dst` and `src`.
  virtual void UnionInPlace(void* dst, const void* src) const = 0;

  /// Cost of inserting `incoming` under `existing` (lower is better).
  virtual double Penalty(const void* existing, const void* incoming) const = 0;

  /// Splits `keys` (>= 2) into two groups; `to_right[i]` selects the side.
  /// Both groups must be non-empty.
  virtual void PickSplit(const std::vector<const void*>& keys,
                         std::vector<bool>* to_right) const = 0;

  /// Exact key equality (used by Delete); default is bytewise comparison.
  virtual bool Same(const void* a, const void* b) const;

  /// Does `parent` cover `child`? Used only by `Validate`.
  virtual bool Covers(const void* parent, const void* child) const = 0;
};

/// \brief Search/maintenance counters for the benchmark harness.
struct GistStats {
  uint64_t nodes_visited = 0;
  uint64_t leaf_hits = 0;
  uint64_t splits = 0;
};

/// \brief Disk-based Generalized Search Tree.
///
/// Page 0 is the meta page (magic, root id, height, entry count); all other
/// pages are nodes. The tree grows at the root on split (standard GiST).
/// Deletion removes leaf entries and tightens ancestor keys but does not
/// merge underfull nodes (PostgreSQL's GiST makes the same trade-off;
/// space is reclaimed by dropping the index file).
///
/// Thread safety: tree operations take an internal reader/writer lock —
/// `Search`/`Validate`/`ReadNode` shared, mutations exclusive — so one
/// handle may be shared by concurrent readers without serializing them
/// (the pager guards its own LRU state internally; the shared lock here
/// only keeps readers of page payloads from racing writers). Lock traffic
/// is counted in `lock_stats()` so the hot/cold tier split can assert the
/// probe path stays lock-free.
class Gist {
 public:
  /// Opens or creates a GiST at `fname`. The op class must outlive the tree
  /// and match the one the file was created with.
  static StatusOr<std::unique_ptr<Gist>> Open(storage::Env* env,
                                              const std::string& fname,
                                              const GistOpClass* opclass,
                                              size_t cache_pages = 256);

  /// Inserts (key, datum).
  Status Insert(const void* key, uint64_t datum);

  /// Removes one entry with an identical key and datum; NotFound otherwise.
  Status Delete(const void* key, uint64_t datum);

  /// Visits every entry consistent with `query`. The callback gets the leaf
  /// key bytes and datum; returning false stops the search.
  Status Search(const void* query,
                const std::function<bool(const void*, uint64_t)>& fn) const;

  /// \brief Bottom-up bulk load into an EMPTY tree. `entries` must already
  /// be in the desired leaf order (e.g. STR order); `fill_factor` in (0, 1]
  /// controls node utilization.
  Status BulkLoad(const std::vector<std::pair<std::string, uint64_t>>& entries,
                  double fill_factor = 0.9);

  /// Checks structural invariants (parent keys cover children, height
  /// consistent, entry count matches).
  Status Validate() const;

  /// Structure accessors take the reader lock: they are called from
  /// outside the tree (benches, the R-tree kNN seed) where a concurrent
  /// root split must not be observed half-applied.
  uint64_t num_entries() const {
    common::ReaderMutexLock lock(&mu_);
    return num_entries_;
  }
  uint32_t height() const {
    common::ReaderMutexLock lock(&mu_);
    return height_;
  }
  storage::PageId root() const {
    common::ReaderMutexLock lock(&mu_);
    return root_;
  }
  bool empty() const {
    common::ReaderMutexLock lock(&mu_);
    return root_ == storage::kInvalidPage;
  }

  /// Point-in-time counter snapshots (by value: the search counters are
  /// bumped under the *shared* lock, so a reference would race).
  GistStats stats() const {
    GistStats s;
    s.nodes_visited = nodes_visited_.load(std::memory_order_relaxed);
    s.leaf_hits = leaf_hits_.load(std::memory_order_relaxed);
    s.splits = splits_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    nodes_visited_.store(0, std::memory_order_relaxed);
    leaf_hits_.store(0, std::memory_order_relaxed);
    splits_.store(0, std::memory_order_relaxed);
  }
  storage::PagerStats io_stats() const { return pager_->stats(); }
  storage::LockStats lock_stats() const { return lock_counters_.Snapshot(); }

  Status Flush();

  /// \brief Decoded node snapshot for advanced read paths (e.g. the R-tree
  /// best-first kNN) that need raw access to internal entries.
  struct NodeSnapshot {
    bool is_leaf = false;
    std::vector<std::string> keys;
    std::vector<uint64_t> datums;
  };
  StatusOr<NodeSnapshot> ReadNode(storage::PageId id) const;

 private:
  Gist(std::unique_ptr<storage::Pager> pager, const GistOpClass* opclass);

  Status LoadMeta() REQUIRES(mu_);
  Status SaveMeta() REQUIRES(mu_);
  StatusOr<storage::PageId> NewNode(bool leaf) REQUIRES(mu_);

  /// Result of a recursive insert into a subtree.
  struct InsertResult {
    std::string subtree_union;    // Tightened union key of the subtree.
    bool split = false;
    std::string right_union;      // Valid when split.
    storage::PageId right_page = storage::kInvalidPage;
  };
  StatusOr<InsertResult> InsertRecursive(storage::PageId node_id,
                                         const void* key, uint64_t datum)
      REQUIRES(mu_);

  /// Splits the full node `view` plus the pending entry into two nodes.
  StatusOr<InsertResult> SplitNode(GistNodeView* view, const void* key,
                                   uint64_t datum) REQUIRES(mu_);

  /// Returns true when found+removed; refreshed union in `new_union`.
  StatusOr<bool> DeleteRecursive(storage::PageId node_id, const void* key,
                                 uint64_t datum, std::string* new_union)
      REQUIRES(mu_);

  Status ValidateRecursive(storage::PageId node_id, uint32_t depth,
                           const std::string* expected_cover,
                           uint64_t* entries_seen) const REQUIRES_SHARED(mu_);

  std::string ComputeUnion(const GistNodeView& view) const;

  /// Reader/writer lock over public tree operations (see class comment).
  mutable common::SharedMutex mu_;
  mutable storage::LockStatsCounters lock_counters_;
  /// Never reassigned after construction; the pager locks internally, so
  /// `io_stats()` reads it without `mu_`.
  std::unique_ptr<storage::Pager> pager_;
  const GistOpClass* opclass_;
  size_t key_size_;

  storage::PageId root_ GUARDED_BY(mu_) = storage::kInvalidPage;
  uint32_t height_ GUARDED_BY(mu_) = 0;  // 0 = empty; 1 = root is a leaf.
  uint64_t num_entries_ GUARDED_BY(mu_) = 0;

  /// Search counters run under the shared lock, hence atomic.
  mutable std::atomic<uint64_t> nodes_visited_{0};
  mutable std::atomic<uint64_t> leaf_hits_{0};
  mutable std::atomic<uint64_t> splits_{0};
};

}  // namespace hermes::gist

#endif  // HERMES_GIST_GIST_H_
