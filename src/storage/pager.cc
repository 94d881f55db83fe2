#include "storage/pager.h"

#include "common/logging.h"

namespace hermes::storage {

StatusOr<std::unique_ptr<Pager>> Pager::Open(Env* env,
                                             const std::string& fname,
                                             size_t cache_pages) {
  if (cache_pages < 4) cache_pages = 4;
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RandomRWFile> file,
                          env->NewRWFile(fname));
  auto pager =
      std::unique_ptr<Pager>(new Pager(env, std::move(file), cache_pages));
  HERMES_ASSIGN_OR_RETURN(uint64_t size, pager->file_->Size());
  if (size % kPageSize != 0) {
    return Status::Corruption(fname + ": size not page-aligned");
  }
  pager->num_pages_ = static_cast<PageId>(size / kPageSize);
  return pager;
}

Pager::Pager(Env* env, std::unique_ptr<RandomRWFile> file, size_t cache_pages)
    : env_(env), file_(std::move(file)), cache_capacity_(cache_pages) {
  (void)env_;
}

Pager::~Pager() {
  // Best effort: every pager-backed file is a cache-tree partition or a
  // throwaway index, so a write the env refuses loses nothing that
  // cannot be rebuilt. Callers that need the outcome call `Flush`.
  Status st = Flush();
  if (!st.ok()) {
    HERMES_LOG(Error) << "pager flush on close failed: " << st.ToString();
  }
}

StatusOr<Page*> Pager::Allocate() {
  common::MutexLock lock(&mu_);
  HERMES_RETURN_NOT_OK(EvictIfNeeded());
  const PageId id = num_pages_.fetch_add(1, std::memory_order_acq_rel);
  auto page = std::make_unique<Page>();
  page->id = id;
  page->dirty = true;  // New pages must reach disk even if untouched.
  page->pins = 1;
  Page* raw = page.get();
  frames_[id] = std::move(page);
  if (page_table_.size() <= id) page_table_.resize(id + 1, nullptr);
  page_table_[id] = raw;
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
  return raw;
}

StatusOr<Page*> Pager::Fetch(PageId id) {
  common::MutexLock lock(&mu_);
  // Hot path: resident page, no recency bookkeeping.
  if (id < page_table_.size() && page_table_[id] != nullptr) {
    ++stats_.cache_hits;
    Page* page = page_table_[id];
    ++page->pins;
    return page;
  }
  if (id >= num_pages_.load(std::memory_order_relaxed)) {
    return Status::OutOfRange(
        "page " + std::to_string(id) + " of " +
        std::to_string(num_pages_.load(std::memory_order_relaxed)));
  }
  ++stats_.cache_misses;
  HERMES_RETURN_NOT_OK(EvictIfNeeded());
  auto page = std::make_unique<Page>();
  page->id = id;
  page->pins = 1;
  HERMES_RETURN_NOT_OK(file_->ReadAt(static_cast<uint64_t>(id) * kPageSize,
                                     kPageSize, page->data.data()));
  ++stats_.physical_reads;
  Page* raw = page.get();
  frames_[id] = std::move(page);
  if (page_table_.size() <= id) page_table_.resize(id + 1, nullptr);
  page_table_[id] = raw;
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
  return raw;
}

void Pager::Unpin(Page* page, bool dirty) {
  common::MutexLock lock(&mu_);
  HERMES_CHECK(page != nullptr && page->pins > 0) << "unbalanced Unpin";
  if (dirty) page->dirty = true;
  --page->pins;
}

Status Pager::EvictIfNeeded() {
  while (frames_.size() >= cache_capacity_) {
    // Scan from the LRU tail for an unpinned victim.
    PageId victim = kInvalidPage;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (frames_[*it]->pins == 0) {
        victim = *it;
        break;
      }
    }
    if (victim == kInvalidPage) {
      // Everything pinned: allow temporary overflow rather than failing.
      return Status::OK();
    }
    Page* page = frames_[victim].get();
    if (page->dirty) {
      HERMES_RETURN_NOT_OK(WriteBack(page));
    }
    lru_.erase(lru_pos_[victim]);
    lru_pos_.erase(victim);
    page_table_[victim] = nullptr;
    frames_.erase(victim);
    ++stats_.evictions;
  }
  return Status::OK();
}

Status Pager::WriteBack(Page* page) {
  HERMES_RETURN_NOT_OK(file_->WriteAt(
      static_cast<uint64_t>(page->id) * kPageSize, kPageSize,
      page->data.data()));
  ++stats_.physical_writes;
  page->dirty = false;
  return Status::OK();
}

Status Pager::Flush() {
  common::MutexLock lock(&mu_);
  // HERMES-LINT-ALLOW(unordered-iteration): every dirty page is written
  // to its own file position; write order cannot affect the bytes.
  for (auto& [id, page] : frames_) {
    if (page->dirty) {
      HERMES_RETURN_NOT_OK(WriteBack(page.get()));
    }
  }
  return file_->Sync();
}

}  // namespace hermes::storage
