#include "storage/heap_file.h"

#include <array>
#include <cstring>

#include "common/coding.h"
#include "common/logging.h"

namespace hermes::storage {

namespace {

// Meta page (page 0) layout.
constexpr uint32_t kHeapMagic = 0x48455246u;  // "HERF"
constexpr size_t kMetaMagicOff = 0;
constexpr size_t kMetaTailOff = 4;
constexpr size_t kMetaLiveOff = 8;
constexpr size_t kMetaTotalOff = 16;

// Data page layout: [nslots u16][free_start u16][payload ...][slots ...].
// Slot i lives at kPageSize - 4*(i+1): {off u16, len u16}; len 0xFFFF is a
// tombstone marker stored alongside the original length in off? No — a
// tombstone is encoded as len == 0xFFFF (original bytes stay in place).
constexpr size_t kDataHeaderSize = 4;
constexpr size_t kSlotSize = 4;
constexpr uint16_t kTombstoneLen = 0xFFFF;

uint16_t ReadU16(const char* p) { return GetFixed16(p); }
void WriteU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }

uint16_t PageNumSlots(const Page& page) { return ReadU16(page.data.data()); }
void SetPageNumSlots(Page* page, uint16_t n) {
  WriteU16(page->data.data(), n);
}
uint16_t PageFreeStart(const Page& page) {
  return ReadU16(page.data.data() + 2);
}
void SetPageFreeStart(Page* page, uint16_t v) {
  WriteU16(page->data.data() + 2, v);
}

size_t SlotOffset(uint16_t slot) { return kPageSize - kSlotSize * (slot + 1); }

size_t PageFreeSpace(const Page& page) {
  const uint16_t nslots = PageNumSlots(page);
  const size_t slot_area = kSlotSize * (nslots + 1);  // +1 for the new slot.
  const size_t free_start = PageFreeStart(page);
  if (free_start + slot_area >= kPageSize) return 0;
  return kPageSize - slot_area - free_start;
}

}  // namespace

HeapFile::HeapFile(std::unique_ptr<Pager> pager) : pager_(std::move(pager)) {}

StatusOr<std::unique_ptr<HeapFile>> HeapFile::Open(Env* env,
                                                   const std::string& fname,
                                                   size_t cache_pages) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                          Pager::Open(env, fname, cache_pages));
  auto hf = std::unique_ptr<HeapFile>(new HeapFile(std::move(pager)));
  // The handle is not shared yet, but LoadMeta writes guarded state, so
  // take the (uncontended) writer lock for the analysis.
  common::WriterMutexLock lock(&hf->mu_);
  if (hf->pager_->num_pages() == 0) {
    // Fresh file: page 0 is the meta page, mirrored in members and
    // written only by `Flush`, so it takes no frame.
    hf->pager_->Reserve();
  } else {
    HERMES_RETURN_NOT_OK(hf->LoadMeta());
  }
  return hf;
}

Status HeapFile::LoadMeta() {
  HERMES_ASSIGN_OR_RETURN(Page * meta, pager_->Fetch(0));
  PinnedPage pin(pager_.get(), meta);
  uint32_t magic;
  std::memcpy(&magic, meta->data.data() + kMetaMagicOff, 4);
  if (magic != kHeapMagic) return Status::Corruption("bad heap file magic");
  uint32_t tail;
  std::memcpy(&tail, meta->data.data() + kMetaTailOff, 4);
  tail_page_ = tail;
  live_records_ = GetFixed64(meta->data.data() + kMetaLiveOff);
  total_records_ = GetFixed64(meta->data.data() + kMetaTotalOff);
  return Status::OK();
}

Status HeapFile::SaveMeta() {
  std::array<char, kPageSize> meta{};
  std::memcpy(meta.data() + kMetaMagicOff, &kHeapMagic, 4);
  std::memcpy(meta.data() + kMetaTailOff, &tail_page_, 4);
  const uint64_t live = live_records_.load(std::memory_order_relaxed);
  const uint64_t total = total_records_.load(std::memory_order_relaxed);
  std::memcpy(meta.data() + kMetaLiveOff, &live, 8);
  std::memcpy(meta.data() + kMetaTotalOff, &total, 8);
  return pager_->WritePage(0, meta.data());
}

StatusOr<RecordId> HeapFile::Append(const std::string& record) {
  CountedExclusiveLock lock(mu_, &lock_counters_);
  const size_t need = record.size();
  if (need + kDataHeaderSize + kSlotSize > kPageSize) {
    return Status::InvalidArgument("record too large for a page");
  }

  Page* page = nullptr;
  bool fresh = false;
  if (tail_page_ != kInvalidPage) {
    HERMES_ASSIGN_OR_RETURN(page, pager_->Fetch(tail_page_));
    if (PageFreeSpace(*page) < need) {
      pager_->Unpin(page, false);
      page = nullptr;
    }
  }
  if (page == nullptr) {
    HERMES_ASSIGN_OR_RETURN(page, pager_->Allocate());
    fresh = true;
  }
  PinnedPage pin(pager_.get(), page);
  if (fresh) {
    std::memset(page->data.data(), 0, kPageSize);
    SetPageNumSlots(page, 0);
    SetPageFreeStart(page, kDataHeaderSize);
    tail_page_ = page->id;
  }

  const uint16_t slot = PageNumSlots(*page);
  const uint16_t off = PageFreeStart(*page);
  std::memcpy(page->data.data() + off, record.data(), need);
  char* slot_ptr = page->data.data() + SlotOffset(slot);
  WriteU16(slot_ptr, off);
  WriteU16(slot_ptr + 2, static_cast<uint16_t>(need));
  SetPageNumSlots(page, slot + 1);
  SetPageFreeStart(page, static_cast<uint16_t>(off + need));
  pin.MarkDirty();

  ++live_records_;
  ++total_records_;
  return RecordId{page->id, slot};
}

StatusOr<std::string> HeapFile::Read(const RecordId& rid) const {
  CountedSharedLock lock(mu_, &lock_counters_);
  if (!rid.valid() || rid.page == 0 || rid.page >= pager_->num_pages()) {
    return Status::NotFound("invalid record id");
  }
  HERMES_ASSIGN_OR_RETURN(Page * page, pager_->Fetch(rid.page));
  PinnedPage pin(pager_.get(), page);
  if (rid.slot >= PageNumSlots(*page)) {
    return Status::NotFound("no such slot");
  }
  const char* slot_ptr = page->data.data() + SlotOffset(rid.slot);
  const uint16_t off = ReadU16(slot_ptr);
  const uint16_t len = ReadU16(slot_ptr + 2);
  if (len == kTombstoneLen) return Status::NotFound("record deleted");
  return std::string(page->data.data() + off, len);
}

Status HeapFile::Delete(const RecordId& rid) {
  CountedExclusiveLock lock(mu_, &lock_counters_);
  if (!rid.valid() || rid.page == 0 || rid.page >= pager_->num_pages()) {
    return Status::NotFound("invalid record id");
  }
  HERMES_ASSIGN_OR_RETURN(Page * page, pager_->Fetch(rid.page));
  PinnedPage pin(pager_.get(), page);
  if (rid.slot >= PageNumSlots(*page)) {
    return Status::NotFound("no such slot");
  }
  char* slot_ptr = page->data.data() + SlotOffset(rid.slot);
  const uint16_t len = ReadU16(slot_ptr + 2);
  if (len == kTombstoneLen) return Status::OK();  // Idempotent.
  WriteU16(slot_ptr + 2, kTombstoneLen);
  pin.MarkDirty();
  HERMES_CHECK(live_records_ > 0);
  --live_records_;
  return Status::OK();
}

Status HeapFile::Scan(
    const std::function<bool(const RecordId&, const std::string&)>& fn) const {
  CountedSharedLock lock(mu_, &lock_counters_);
  for (PageId pid = 1; pid < pager_->num_pages(); ++pid) {
    HERMES_ASSIGN_OR_RETURN(Page * page, pager_->Fetch(pid));
    PinnedPage pin(pager_.get(), page);
    const uint16_t nslots = PageNumSlots(*page);
    for (uint16_t s = 0; s < nslots; ++s) {
      const char* slot_ptr = page->data.data() + SlotOffset(s);
      const uint16_t off = ReadU16(slot_ptr);
      const uint16_t len = ReadU16(slot_ptr + 2);
      if (len == kTombstoneLen) continue;
      std::string rec(page->data.data() + off, len);
      if (!fn(RecordId{pid, s}, rec)) return Status::OK();
    }
  }
  return Status::OK();
}

Status HeapFile::Flush() {
  CountedExclusiveLock lock(mu_, &lock_counters_);
  HERMES_RETURN_NOT_OK(SaveMeta());
  return pager_->Flush();
}

PagerStats HeapFile::io_stats() const { return pager_->stats(); }

}  // namespace hermes::storage
