#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/env.h"
#include "storage/heap_file.h"
#include "storage/pager.h"
#include "storage/partition_manager.h"

namespace hermes::storage {
namespace {

std::string TempDir() {
  auto dir = std::filesystem::temp_directory_path() / "hermes_storage_test";
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Env (parameterized over Posix and Mem implementations)
// ---------------------------------------------------------------------------

struct EnvCase {
  const char* name;
  bool posix;
};

class EnvTest : public ::testing::TestWithParam<EnvCase> {
 protected:
  void SetUp() override {
    if (GetParam().posix) {
      env_ = Env::Posix();
      prefix_ = TempDir() + "/";
    } else {
      owned_ = Env::NewMemEnv();
      env_ = owned_.get();
      prefix_ = "mem/";
      ASSERT_TRUE(env_->CreateDirs("mem").ok());
    }
  }
  std::unique_ptr<Env> owned_;
  Env* env_ = nullptr;
  std::string prefix_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  const std::string fname = prefix_ + "roundtrip.bin";
  auto file = env_->NewRWFile(fname);
  ASSERT_TRUE(file.ok());
  const std::string payload = "hello hermes";
  ASSERT_TRUE((*file)->WriteAt(0, payload.size(), payload.data()).ok());
  std::string back(payload.size(), '\0');
  ASSERT_TRUE((*file)->ReadAt(0, payload.size(), back.data()).ok());
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(env_->DeleteFile(fname).ok());
}

TEST_P(EnvTest, WriteAtOffsetExtends) {
  const std::string fname = prefix_ + "extend.bin";
  auto file = env_->NewRWFile(fname);
  ASSERT_TRUE(file.ok());
  const char byte = 'x';
  ASSERT_TRUE((*file)->WriteAt(100, 1, &byte).ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 101u);
  ASSERT_TRUE(env_->DeleteFile(fname).ok());
}

TEST_P(EnvTest, ShortReadIsError) {
  const std::string fname = prefix_ + "short.bin";
  auto file = env_->NewRWFile(fname);
  ASSERT_TRUE(file.ok());
  char buf[16];
  EXPECT_TRUE((*file)->ReadAt(0, 16, buf).IsIOError());
  ASSERT_TRUE(env_->DeleteFile(fname).ok());
}

TEST_P(EnvTest, FileExistsAndDelete) {
  const std::string fname = prefix_ + "exists.bin";
  EXPECT_FALSE(env_->FileExists(fname));
  auto file = env_->NewRWFile(fname);
  ASSERT_TRUE(file.ok());
  const char b = 1;
  ASSERT_TRUE((*file)->WriteAt(0, 1, &b).ok());
  EXPECT_TRUE(env_->FileExists(fname));
  ASSERT_TRUE(env_->DeleteFile(fname).ok());
  EXPECT_FALSE(env_->FileExists(fname));
}

TEST_P(EnvTest, PersistenceAcrossReopen) {
  const std::string fname = prefix_ + "persist.bin";
  {
    auto file = env_->NewRWFile(fname);
    ASSERT_TRUE(file.ok());
    const std::string data = "durable";
    ASSERT_TRUE((*file)->WriteAt(0, data.size(), data.data()).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  {
    auto file = env_->NewRWFile(fname);
    ASSERT_TRUE(file.ok());
    std::string back(7, '\0');
    ASSERT_TRUE((*file)->ReadAt(0, 7, back.data()).ok());
    EXPECT_EQ(back, "durable");
  }
  ASSERT_TRUE(env_->DeleteFile(fname).ok());
}

INSTANTIATE_TEST_SUITE_P(Envs, EnvTest,
                         ::testing::Values(EnvCase{"posix", true},
                                           EnvCase{"mem", false}),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

// ---------------------------------------------------------------------------
// Pager
// ---------------------------------------------------------------------------

class PagerTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = Env::NewMemEnv(); }
  std::unique_ptr<Env> env_;
};

TEST_F(PagerTest, AllocateAssignsSequentialIds) {
  auto pager = Pager::Open(env_.get(), "p.db", 16);
  ASSERT_TRUE(pager.ok());
  for (PageId expect = 0; expect < 5; ++expect) {
    auto page = (*pager)->Allocate();
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->id, expect);
    (*pager)->Unpin(*page, false);
  }
  EXPECT_EQ((*pager)->num_pages(), 5u);
}

TEST_F(PagerTest, DataSurvivesEvictionAndReread) {
  auto pager = Pager::Open(env_.get(), "evict.db", 4);
  ASSERT_TRUE(pager.ok());
  // Write a recognizable byte into 16 pages (cache only holds 4).
  for (int i = 0; i < 16; ++i) {
    auto page = (*pager)->Allocate();
    ASSERT_TRUE(page.ok());
    (*page)->data[0] = static_cast<char>(i);
    (*pager)->Unpin(*page, true);
  }
  for (int i = 0; i < 16; ++i) {
    auto page = (*pager)->Fetch(i);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->data[0], static_cast<char>(i));
    (*pager)->Unpin(*page, false);
  }
  EXPECT_GT((*pager)->stats().evictions, 0u);
  EXPECT_GT((*pager)->stats().physical_writes, 0u);
}

TEST_F(PagerTest, FetchOutOfRangeFails) {
  auto pager = Pager::Open(env_.get(), "oor.db", 8);
  ASSERT_TRUE(pager.ok());
  EXPECT_TRUE((*pager)->Fetch(3).status().IsOutOfRange());
}

TEST_F(PagerTest, CacheHitsAreCounted) {
  auto pager = Pager::Open(env_.get(), "hits.db", 8);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Allocate();
  ASSERT_TRUE(page.ok());
  (*pager)->Unpin(*page, true);
  for (int i = 0; i < 5; ++i) {
    auto again = (*pager)->Fetch(0);
    ASSERT_TRUE(again.ok());
    (*pager)->Unpin(*again, false);
  }
  EXPECT_EQ((*pager)->stats().cache_hits, 5u);
  EXPECT_EQ((*pager)->stats().cache_misses, 0u);
}

TEST_F(PagerTest, PersistsAcrossReopen) {
  {
    auto pager = Pager::Open(env_.get(), "persist.db", 8);
    ASSERT_TRUE(pager.ok());
    auto page = (*pager)->Allocate();
    ASSERT_TRUE(page.ok());
    (*page)->data[100] = 'Z';
    (*pager)->Unpin(*page, true);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  {
    auto pager = Pager::Open(env_.get(), "persist.db", 8);
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->num_pages(), 1u);
    auto page = (*pager)->Fetch(0);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->data[100], 'Z');
    (*pager)->Unpin(*page, false);
  }
}

/// Size of `fname` under `env` (opening it creates an empty file).
uint64_t FileSize(Env* env, const std::string& fname) {
  auto file = env->NewRWFile(fname);
  EXPECT_TRUE(file.ok());
  return file.ok() ? (*file)->Size().ValueOr(0) : 0;
}

/// The first `n` bytes of `fname`.
std::string FilePrefix(Env* env, const std::string& fname, size_t n) {
  auto file = env->NewRWFile(fname);
  EXPECT_TRUE(file.ok());
  std::string bytes(n, '\0');
  if (file.ok()) {
    EXPECT_TRUE((*file)->ReadAt(0, n, bytes.data()).ok());
  }
  return bytes;
}

TEST_F(PagerTest, ClosingWithoutFlushWritesNothing) {
  {
    auto pager = Pager::Open(env_.get(), "discard.db", 8);
    ASSERT_TRUE(pager.ok());
    for (int i = 0; i < 3; ++i) {
      auto page = (*pager)->Allocate();
      ASSERT_TRUE(page.ok());
      (*page)->data[0] = 'D';
      (*pager)->Unpin(*page, true);
    }
    EXPECT_EQ((*pager)->stats().resident_pages, 3u);
  }
  EXPECT_EQ(FileSize(env_.get(), "discard.db"), 0u);
}

TEST_F(PagerTest, ReservedPagesTakeNoFrame) {
  auto pager = Pager::Open(env_.get(), "reserve.db", 8);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->Reserve(), 0u);
  EXPECT_EQ((*pager)->num_pages(), 1u);
  EXPECT_EQ((*pager)->stats().resident_pages, 0u);
  auto page = (*pager)->Allocate();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->id, 1u);
  (*pager)->Unpin(*page, true);
  EXPECT_EQ((*pager)->stats().resident_pages, 1u);

  std::string image(kPageSize, 'R');
  ASSERT_TRUE((*pager)->WritePage(0, image.data()).ok());
  EXPECT_EQ((*pager)->stats().resident_pages, 1u);
  EXPECT_EQ(FileSize(env_.get(), "reserve.db"), kPageSize);
  ASSERT_TRUE((*pager)->Flush().ok());
  EXPECT_EQ(FileSize(env_.get(), "reserve.db"), 2 * kPageSize);
  EXPECT_EQ(FilePrefix(env_.get(), "reserve.db", kPageSize), image);
  // A resident copy follows the page written past the pool.
  auto reread = (*pager)->Fetch(0);
  ASSERT_TRUE(reread.ok());
  (*pager)->Unpin(*reread, false);
  image.assign(kPageSize, 'S');
  ASSERT_TRUE((*pager)->WritePage(0, image.data()).ok());
  reread = (*pager)->Fetch(0);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(std::string((*reread)->data.data(), kPageSize), image);
  (*pager)->Unpin(*reread, false);
}

TEST_F(PagerTest, PinnedPagesAreNotEvicted) {
  auto pager = Pager::Open(env_.get(), "pins.db", 4);
  ASSERT_TRUE(pager.ok());
  auto pinned = (*pager)->Allocate();
  ASSERT_TRUE(pinned.ok());
  (*pinned)->data[0] = 'P';
  // Exceed the cache while the first page stays pinned.
  for (int i = 0; i < 10; ++i) {
    auto page = (*pager)->Allocate();
    ASSERT_TRUE(page.ok());
    (*pager)->Unpin(*page, true);
  }
  EXPECT_EQ((*pinned)->data[0], 'P');  // Still resident and intact.
  (*pager)->Unpin(*pinned, true);
}

// ---------------------------------------------------------------------------
// HeapFile
// ---------------------------------------------------------------------------

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = Env::NewMemEnv(); }
  std::unique_ptr<Env> env_;
};

TEST_F(HeapFileTest, AppendAndRead) {
  auto hf = HeapFile::Open(env_.get(), "a.heap");
  ASSERT_TRUE(hf.ok());
  auto rid = (*hf)->Append("record-one");
  ASSERT_TRUE(rid.ok());
  auto back = (*hf)->Read(*rid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "record-one");
  EXPECT_EQ((*hf)->live_records(), 1u);
}

TEST_F(HeapFileTest, ManyRecordsSpanPages) {
  auto hf = HeapFile::Open(env_.get(), "many.heap");
  ASSERT_TRUE(hf.ok());
  const std::string payload(1000, 'x');
  std::vector<RecordId> rids;
  for (int i = 0; i < 100; ++i) {
    auto rid = (*hf)->Append(payload + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ((*hf)->live_records(), 100u);
  // Must have spilled beyond one data page (8 records/page at ~1KB).
  EXPECT_GT(rids.back().page, 1u);
  for (int i = 0; i < 100; ++i) {
    auto rec = (*hf)->Read(rids[i]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, payload + std::to_string(i));
  }
}

TEST_F(HeapFileTest, RejectsOversizedRecord) {
  auto hf = HeapFile::Open(env_.get(), "big.heap");
  ASSERT_TRUE(hf.ok());
  EXPECT_TRUE((*hf)->Append(std::string(kPageSize, 'x')).status()
                  .IsInvalidArgument());
}

TEST_F(HeapFileTest, DeleteTombstonesRecord) {
  auto hf = HeapFile::Open(env_.get(), "del.heap");
  ASSERT_TRUE(hf.ok());
  auto rid1 = (*hf)->Append("keep");
  auto rid2 = (*hf)->Append("remove");
  ASSERT_TRUE(rid1.ok());
  ASSERT_TRUE(rid2.ok());
  ASSERT_TRUE((*hf)->Delete(*rid2).ok());
  EXPECT_TRUE((*hf)->Read(*rid2).status().IsNotFound());
  EXPECT_TRUE((*hf)->Read(*rid1).ok());
  EXPECT_EQ((*hf)->live_records(), 1u);
  EXPECT_EQ((*hf)->total_records(), 2u);
  // Idempotent.
  EXPECT_TRUE((*hf)->Delete(*rid2).ok());
  EXPECT_EQ((*hf)->live_records(), 1u);
}

TEST_F(HeapFileTest, ScanVisitsLiveRecordsInOrder) {
  auto hf = HeapFile::Open(env_.get(), "scan.heap");
  ASSERT_TRUE(hf.ok());
  std::vector<RecordId> rids;
  for (int i = 0; i < 10; ++i) {
    auto rid = (*hf)->Append("rec" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE((*hf)->Delete(rids[3]).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE((*hf)
                  ->Scan([&](const RecordId&, const std::string& rec) {
                    seen.push_back(rec);
                    return true;
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 9u);
  EXPECT_EQ(seen[0], "rec0");
  EXPECT_EQ(seen[3], "rec4");  // rec3 tombstoned.
}

TEST_F(HeapFileTest, ScanEarlyStop) {
  auto hf = HeapFile::Open(env_.get(), "stop.heap");
  ASSERT_TRUE(hf.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*hf)->Append("r").ok());
  int count = 0;
  ASSERT_TRUE((*hf)
                  ->Scan([&](const RecordId&, const std::string&) {
                    return ++count < 3;
                  })
                  .ok());
  EXPECT_EQ(count, 3);
}

TEST_F(HeapFileTest, PersistsAcrossReopen) {
  RecordId rid;
  {
    auto hf = HeapFile::Open(env_.get(), "dur.heap");
    ASSERT_TRUE(hf.ok());
    auto r = (*hf)->Append("durable-record");
    ASSERT_TRUE(r.ok());
    rid = *r;
    ASSERT_TRUE((*hf)->Flush().ok());
  }
  {
    auto hf = HeapFile::Open(env_.get(), "dur.heap");
    ASSERT_TRUE(hf.ok());
    EXPECT_EQ((*hf)->live_records(), 1u);
    auto rec = (*hf)->Read(rid);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, "durable-record");
  }
}

TEST_F(HeapFileTest, MetaPageTakesNoFrameAndOnlyFlushWritesIt) {
  {
    auto hf = HeapFile::Open(env_.get(), "unflushed.heap");
    ASSERT_TRUE(hf.ok());
    EXPECT_EQ((*hf)->io_stats().resident_pages, 0u);
    ASSERT_TRUE((*hf)->Append("gone").ok());
    EXPECT_EQ((*hf)->io_stats().resident_pages, 1u);  // The data page.
  }
  // Closed without Flush: nothing was written, so it reopens empty.
  EXPECT_EQ(FileSize(env_.get(), "unflushed.heap"), 0u);
  {
    auto hf = HeapFile::Open(env_.get(), "unflushed.heap");
    ASSERT_TRUE(hf.ok());
    EXPECT_EQ((*hf)->total_records(), 0u);
  }
  // Evictions wrote data pages but never page 0: no magic, no reopen.
  {
    auto hf = HeapFile::Open(env_.get(), "evicted.heap", /*cache_pages=*/4);
    ASSERT_TRUE(hf.ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE((*hf)->Append(std::string(5000, 'e')).ok());
    }
    EXPECT_EQ((*hf)->io_stats().resident_pages, 4u);
  }
  EXPECT_GT(FileSize(env_.get(), "evicted.heap"), 0u);
  EXPECT_TRUE(
      HeapFile::Open(env_.get(), "evicted.heap").status().IsCorruption());

  auto hf = HeapFile::Open(env_.get(), "empty.heap");
  ASSERT_TRUE(hf.ok());
  ASSERT_TRUE((*hf)->Flush().ok());
  EXPECT_EQ((*hf)->io_stats().resident_pages, 0u);
  EXPECT_EQ(FileSize(env_.get(), "empty.heap"), kPageSize);
}

// The meta page a flush writes is byte-for-byte the one every write used
// to keep in the pool: magic "HERF", tail page, live and total counts,
// then zeros.
TEST_F(HeapFileTest, FlushedMetaPageMatchesGoldenBytes) {
  {
    auto hf = HeapFile::Open(env_.get(), "golden.heap");
    ASSERT_TRUE(hf.ok());
    auto first = (*hf)->Append(std::string(3000, 'a'));
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->page, 1u);
    ASSERT_TRUE((*hf)->Append(std::string(3000, 'b')).ok());
    auto third = (*hf)->Append(std::string(3000, 'c'));  // Page 1 is full.
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(third->page, 2u);
    ASSERT_TRUE((*hf)->Delete(*first).ok());
    EXPECT_EQ((*hf)->io_stats().resident_pages, 2u);
    ASSERT_TRUE((*hf)->Flush().ok());
    EXPECT_EQ((*hf)->io_stats().resident_pages, 2u);
  }
  EXPECT_EQ(FileSize(env_.get(), "golden.heap"), 3 * kPageSize);
  std::string want(kPageSize, '\0');
  const char golden[24] = {
      0x46, 0x52, 0x45, 0x48,                          // magic
      0x02, 0x00, 0x00, 0x00,                          // tail page
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // live
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // total
  };
  want.replace(0, sizeof(golden), golden, sizeof(golden));
  EXPECT_EQ(FilePrefix(env_.get(), "golden.heap", kPageSize), want);

  auto hf = HeapFile::Open(env_.get(), "golden.heap");
  ASSERT_TRUE(hf.ok());
  EXPECT_EQ((*hf)->live_records(), 2u);
  EXPECT_EQ((*hf)->total_records(), 3u);
  auto tail = (*hf)->Append("tail");  // Lands on the restored tail page.
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->page, 2u);
  EXPECT_EQ(tail->slot, 1u);
  auto rec = (*hf)->Read(RecordId{1, 1});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, std::string(3000, 'b'));
  EXPECT_TRUE((*hf)->Read(RecordId{1, 0}).status().IsNotFound());
}

TEST_F(HeapFileTest, ReadInvalidRecordIds) {
  auto hf = HeapFile::Open(env_.get(), "inv.heap");
  ASSERT_TRUE(hf.ok());
  ASSERT_TRUE((*hf)->Append("x").ok());
  EXPECT_TRUE((*hf)->Read(RecordId{99, 0}).status().IsNotFound());
  EXPECT_TRUE((*hf)->Read(RecordId{1, 42}).status().IsNotFound());
  EXPECT_TRUE((*hf)->Read(RecordId{}).status().IsNotFound());
}

TEST_F(HeapFileTest, RecordIdPackUnpack) {
  RecordId rid{12345, 678};
  const RecordId back = RecordId::Unpack(rid.Pack());
  EXPECT_EQ(back, rid);
}

TEST_F(HeapFileTest, EmptyRecordSupported) {
  auto hf = HeapFile::Open(env_.get(), "empty.heap");
  ASSERT_TRUE(hf.ok());
  auto rid = (*hf)->Append("");
  ASSERT_TRUE(rid.ok());
  auto rec = (*hf)->Read(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->empty());
}

// ---------------------------------------------------------------------------
// Failure injection: I/O errors must propagate as Status, never crash.
// ---------------------------------------------------------------------------

/// Env wrapper that starts failing writes after a budget is exhausted.
class FaultyEnv : public Env {
 public:
  explicit FaultyEnv(Env* base) : base_(base) {}

  /// Writes remaining before every subsequent write fails.
  void set_write_budget(int n) { budget_ = n; }

  class FaultyFile : public RandomRWFile {
   public:
    FaultyFile(std::unique_ptr<RandomRWFile> base, FaultyEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status ReadAt(uint64_t off, size_t n, char* buf) const override {
      return base_->ReadAt(off, n, buf);
    }
    Status WriteAt(uint64_t off, size_t n, const char* buf) override {
      if (env_->budget_ >= 0 && env_->budget_-- <= 0) {
        return Status::IOError("injected write failure");
      }
      return base_->WriteAt(off, n, buf);
    }
    StatusOr<uint64_t> Size() const override { return base_->Size(); }
    Status Sync() override { return base_->Sync(); }

   private:
    std::unique_ptr<RandomRWFile> base_;
    FaultyEnv* env_;
  };

  StatusOr<std::unique_ptr<RandomRWFile>> NewRWFile(
      const std::string& fname) override {
    HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RandomRWFile> base,
                            base_->NewRWFile(fname));
    return std::unique_ptr<RandomRWFile>(
        new FaultyFile(std::move(base), this));
  }
  bool FileExists(const std::string& f) const override {
    return base_->FileExists(f);
  }
  Status DeleteFile(const std::string& f) override {
    return base_->DeleteFile(f);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirs(const std::string& d) override {
    return base_->CreateDirs(d);
  }
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& d) const override {
    return base_->ListDir(d);
  }

 private:
  Env* base_;
  int budget_ = -1;  // -1 = unlimited.
};

TEST(FaultInjectionTest, HeapFileAppendSurfacesWriteErrors) {
  auto mem = Env::NewMemEnv();
  FaultyEnv faulty(mem.get());
  auto hf = HeapFile::Open(&faulty, "faulty.heap", /*cache_pages=*/4);
  ASSERT_TRUE(hf.ok());
  // Small cache forces evictions (and thus writes) while appending.
  faulty.set_write_budget(6);
  Status last = Status::OK();
  int appended = 0;
  for (int i = 0; i < 200 && last.ok(); ++i) {
    last = (*hf)->Append(std::string(2000, 'x')).ok()
               ? Status::OK()
               : Status::IOError("append failed");
    if (last.ok()) ++appended;
  }
  EXPECT_FALSE(last.ok());  // The injected failure surfaced as an error.
  EXPECT_GT(appended, 0);   // Some records made it before the fault.
}

TEST(FaultInjectionTest, FlushReportsFailure) {
  auto mem = Env::NewMemEnv();
  FaultyEnv faulty(mem.get());
  auto pager = Pager::Open(&faulty, "faulty.db", 8);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Allocate();
  ASSERT_TRUE(page.ok());
  (*pager)->Unpin(*page, true);
  faulty.set_write_budget(0);
  EXPECT_TRUE((*pager)->Flush().IsIOError());
  // Once writes work again the same dirty page flushes.
  faulty.set_write_budget(-1);
  ASSERT_TRUE((*pager)->Flush().ok());
}

TEST(FaultInjectionTest, ReadErrorsPropagateThroughFetch) {
  auto mem = Env::NewMemEnv();
  // Create a valid single-page file, then truncate it behind the pager's
  // back by writing a fresh shorter file.
  {
    auto pager = Pager::Open(mem.get(), "trunc.db", 4);
    ASSERT_TRUE(pager.ok());
    auto p0 = (*pager)->Allocate();
    ASSERT_TRUE(p0.ok());
    (*pager)->Unpin(*p0, true);
    auto p1 = (*pager)->Allocate();
    ASSERT_TRUE(p1.ok());
    (*pager)->Unpin(*p1, true);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  // Out-of-range fetch is refused cleanly.
  auto pager = Pager::Open(mem.get(), "trunc.db", 4);
  ASSERT_TRUE(pager.ok());
  EXPECT_TRUE((*pager)->Fetch(99).status().IsOutOfRange());
}

// ---------------------------------------------------------------------------
// PartitionManager
// ---------------------------------------------------------------------------

class PartitionTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = Env::NewMemEnv(); }
  std::unique_ptr<Env> env_;
};

TEST_F(PartitionTest, GetOrCreateIsStable) {
  auto pm = PartitionManager::Open(env_.get(), "parts");
  ASSERT_TRUE(pm.ok());
  auto a = (*pm)->GetOrCreate("alpha");
  ASSERT_TRUE(a.ok());
  auto b = (*pm)->GetOrCreate("alpha");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // Same handle.
}

TEST_F(PartitionTest, ExistsAndList) {
  auto pm = PartitionManager::Open(env_.get(), "parts2");
  ASSERT_TRUE(pm.ok());
  ASSERT_TRUE((*pm)->GetOrCreate("zeta").ok());
  ASSERT_TRUE((*pm)->GetOrCreate("alpha").ok());
  EXPECT_TRUE((*pm)->Exists("zeta"));
  EXPECT_FALSE((*pm)->Exists("missing"));
  const auto names = (*pm)->List();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");  // Sorted.
  EXPECT_EQ(names[1], "zeta");
}

TEST_F(PartitionTest, DropRemovesData) {
  auto pm = PartitionManager::Open(env_.get(), "parts3");
  ASSERT_TRUE(pm.ok());
  auto hf = (*pm)->GetOrCreate("victim");
  ASSERT_TRUE(hf.ok());
  ASSERT_TRUE((*hf)->Append("doomed").ok());
  ASSERT_TRUE((*pm)->Drop("victim").ok());
  EXPECT_FALSE((*pm)->Exists("victim"));
  // Recreating starts fresh.
  auto again = (*pm)->GetOrCreate("victim");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->live_records(), 0u);
}

TEST_F(PartitionTest, DropMissingFails) {
  auto pm = PartitionManager::Open(env_.get(), "parts4");
  ASSERT_TRUE(pm.ok());
  EXPECT_TRUE((*pm)->Drop("ghost").IsNotFound());
}

TEST_F(PartitionTest, DataPersistsViaEnv) {
  {
    auto pm = PartitionManager::Open(env_.get(), "parts5");
    ASSERT_TRUE(pm.ok());
    auto hf = (*pm)->GetOrCreate("keep");
    ASSERT_TRUE(hf.ok());
    ASSERT_TRUE((*hf)->Append("persisted").ok());
    ASSERT_TRUE((*pm)->FlushAll().ok());
  }
  {
    auto pm = PartitionManager::Open(env_.get(), "parts5");
    ASSERT_TRUE(pm.ok());
    EXPECT_TRUE((*pm)->Exists("keep"));
    auto hf = (*pm)->GetOrCreate("keep");
    ASSERT_TRUE(hf.ok());
    EXPECT_EQ((*hf)->live_records(), 1u);
  }
}

/// An Env over a MemEnv whose creation of one named file waits until
/// `Release`, so a test can hold a partition open mid-creation.
class ParkingEnv : public Env {
 public:
  explicit ParkingEnv(std::string park) : park_(std::move(park)) {}

  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  StatusOr<std::unique_ptr<RandomRWFile>> NewRWFile(
      const std::string& fname) override {
    if (fname == park_) {
      std::unique_lock<std::mutex> lock(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return base_->NewRWFile(fname);
  }
  bool FileExists(const std::string& f) const override {
    return base_->FileExists(f);
  }
  Status DeleteFile(const std::string& f) override {
    return base_->DeleteFile(f);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirs(const std::string& d) override {
    return base_->CreateDirs(d);
  }
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& d) const override {
    return base_->ListDir(d);
  }

 private:
  const std::unique_ptr<Env> base_ = Env::NewMemEnv();
  const std::string park_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

// A partition file being created holds up only callers naming that
// partition: other partitions open, probe, list and drop meanwhile, and a
// second GetOrCreate of the parked name gets the same handle once the
// creation finishes.
TEST(PartitionConcurrencyTest, ASlowCreationBlocksOnlyItsOwnPartition) {
  ParkingEnv env("parts/slow.part");
  auto pm = PartitionManager::Open(&env, "parts");
  ASSERT_TRUE(pm.ok());
  PartitionManager* manager = pm->get();
  ASSERT_TRUE(manager->GetOrCreate("old").ok());
  auto slow = std::async(std::launch::async,
                         [&] { return manager->GetOrCreate("slow"); });
  ASSERT_TRUE(env.WaitParked());
  auto same = std::async(std::launch::async,
                         [&] { return manager->GetOrCreate("slow"); });
  auto others = std::async(std::launch::async, [&] {
    Status st = manager->GetOrCreate("fast").status();
    if (st.ok() && !manager->Exists("old")) st = Status::Corruption("old");
    if (st.ok() && manager->List().size() != 2) st = Status::Corruption("list");
    if (st.ok()) st = manager->Drop("old");
    return st;
  });
  const bool others_done = others.wait_for(std::chrono::seconds(20)) ==
                           std::future_status::ready;
  const bool same_done_early = same.wait_for(std::chrono::milliseconds(
                                   100)) == std::future_status::ready;
  env.Release();
  EXPECT_TRUE(others_done) << "a creation of another partition blocked "
                              "the catalog";
  EXPECT_TRUE(others.get().ok());
  EXPECT_FALSE(same_done_early);
  auto first = slow.get();
  auto second = same.get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(manager->List(), (std::vector<std::string>{"fast", "slow"}));
}

// Tasks open, append to, probe and drop partitions concurrently — each its
// own, plus one they all share — while another lists and visits the
// catalog. Run under TSan, this is the catalog's data-race gate.
TEST(PartitionConcurrencyTest, ConcurrentGetOrCreateDropAndExists) {
  auto env = Env::NewMemEnv();
  auto pm = PartitionManager::Open(env.get(), "parts");
  ASSERT_TRUE(pm.ok());
  PartitionManager* manager = pm->get();
  constexpr int kTasks = 4;
  constexpr int kRounds = 40;
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) {
      (void)manager->List();
      (void)manager->Exists("shared");
      manager->ForEachOpen([](const std::string&, HeapFile* hf) {
        (void)hf->live_records();
      });
    }
  });
  std::vector<HeapFile*> shared(kTasks, nullptr);
  std::vector<std::future<Status>> tasks;
  for (int k = 0; k < kTasks; ++k) {
    tasks.push_back(std::async(std::launch::async, [&, k]() -> Status {
      HERMES_ASSIGN_OR_RETURN(shared[k], manager->GetOrCreate("shared"));
      for (int r = 0; r < kRounds; ++r) {
        const std::string name =
            "t" + std::to_string(k) + "_" + std::to_string(r % 3);
        HERMES_ASSIGN_OR_RETURN(HeapFile * hf, manager->GetOrCreate(name));
        HERMES_RETURN_NOT_OK(hf->Append("row").status());
        if (!manager->Exists(name)) return Status::Corruption(name);
        if (r % 2 == 1) HERMES_RETURN_NOT_OK(manager->Drop(name));
        if (r % 2 == 1 && manager->Exists(name)) {
          return Status::Corruption("dropped " + name + " still exists");
        }
      }
      return Status::OK();
    }));
  }
  for (auto& task : tasks) {
    const Status st = task.get();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  done.store(true);
  observer.join();
  for (int k = 1; k < kTasks; ++k) EXPECT_EQ(shared[k], shared[0]);
  EXPECT_TRUE(manager->FlushAll().ok());
}

}  // namespace
}  // namespace hermes::storage
