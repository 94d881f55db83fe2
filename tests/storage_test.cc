#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/heap_file.h"
#include "storage/pager.h"

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

/// Every record of `hf`, in scan (append) order.
std::vector<std::string> ScanAll(const HeapFile& hf) {
  std::vector<std::string> out;
  EXPECT_TRUE(hf.Scan([&](const std::string& rec) {
                  out.push_back(rec);
                  return true;
                })
                  .ok());
  return out;
}

TEST_F(HeapFileTest, AppendAndRead) {
  auto hf = HeapFile::Open(env_.get(), "a.heap");
  ASSERT_TRUE(hf.ok());
  ASSERT_TRUE((*hf)->Append("record-one").ok());
  EXPECT_EQ(ScanAll(**hf), std::vector<std::string>{"record-one"});
  EXPECT_EQ((*hf)->records(), 1u);
}

TEST_F(HeapFileTest, ManyRecordsSpanPages) {
  auto hf = HeapFile::Open(env_.get(), "many.heap");
  ASSERT_TRUE(hf.ok());
  const std::string payload(1000, 'x');
  std::vector<std::string> want;
  for (int i = 0; i < 100; ++i) {
    want.push_back(payload + std::to_string(i));
    ASSERT_TRUE((*hf)->Append(want.back()).ok());
  }
  EXPECT_EQ((*hf)->records(), 100u);
  // Must have spilled beyond one data page (8 records/page at ~1KB).
  EXPECT_GT((*hf)->io_stats().resident_pages, 1u);
  EXPECT_EQ(ScanAll(**hf), want);
}

TEST_F(HeapFileTest, RejectsOversizedRecord) {
  auto hf = HeapFile::Open(env_.get(), "big.heap");
  ASSERT_TRUE(hf.ok());
  EXPECT_TRUE((*hf)->Append(std::string(kPageSize, 'x')).IsInvalidArgument());
}

TEST_F(HeapFileTest, ScanVisitsRecordsInOrder) {
  auto hf = HeapFile::Open(env_.get(), "scan.heap");
  ASSERT_TRUE(hf.ok());
  std::vector<std::string> want;
  for (int i = 0; i < 10; ++i) {
    want.push_back("rec" + std::to_string(i));
    ASSERT_TRUE((*hf)->Append(want.back()).ok());
  }
  EXPECT_EQ(ScanAll(**hf), want);
}

TEST_F(HeapFileTest, ScanEarlyStop) {
  auto hf = HeapFile::Open(env_.get(), "stop.heap");
  ASSERT_TRUE(hf.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*hf)->Append("r").ok());
  int count = 0;
  ASSERT_TRUE(
      (*hf)->Scan([&](const std::string&) { return ++count < 3; }).ok());
  EXPECT_EQ(count, 3);
}

TEST_F(HeapFileTest, PersistsAcrossReopen) {
  {
    auto hf = HeapFile::Open(env_.get(), "dur.heap");
    ASSERT_TRUE(hf.ok());
    ASSERT_TRUE((*hf)->Append("durable-record").ok());
    ASSERT_TRUE((*hf)->Flush().ok());
  }
  {
    auto hf = HeapFile::Open(env_.get(), "dur.heap");
    ASSERT_TRUE(hf.ok());
    EXPECT_EQ((*hf)->records(), 1u);
    EXPECT_EQ(ScanAll(**hf), std::vector<std::string>{"durable-record"});
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
    EXPECT_EQ((*hf)->records(), 0u);
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
// to keep in the pool: magic "HERF", tail page, the record count in both
// count fields, then zeros.
TEST_F(HeapFileTest, FlushedMetaPageMatchesGoldenBytes) {
  {
    auto hf = HeapFile::Open(env_.get(), "golden.heap");
    ASSERT_TRUE(hf.ok());
    ASSERT_TRUE((*hf)->Append(std::string(3000, 'a')).ok());
    ASSERT_TRUE((*hf)->Append(std::string(3000, 'b')).ok());
    ASSERT_TRUE((*hf)->Append(std::string(3000, 'c')).ok());  // Page 1 full.
    EXPECT_EQ((*hf)->io_stats().resident_pages, 2u);
    ASSERT_TRUE((*hf)->Flush().ok());
    EXPECT_EQ((*hf)->io_stats().resident_pages, 2u);
  }
  EXPECT_EQ(FileSize(env_.get(), "golden.heap"), 3 * kPageSize);
  std::string want(kPageSize, '\0');
  const char golden[24] = {
      0x46, 0x52, 0x45, 0x48,                          // magic
      0x02, 0x00, 0x00, 0x00,                          // tail page
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // records
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // records again
  };
  want.replace(0, sizeof(golden), golden, sizeof(golden));
  EXPECT_EQ(FilePrefix(env_.get(), "golden.heap", kPageSize), want);

  auto hf = HeapFile::Open(env_.get(), "golden.heap");
  ASSERT_TRUE(hf.ok());
  EXPECT_EQ((*hf)->records(), 3u);
  // Lands on the restored tail page: the file grows by no page.
  ASSERT_TRUE((*hf)->Append("tail").ok());
  ASSERT_TRUE((*hf)->Flush().ok());
  EXPECT_EQ(FileSize(env_.get(), "golden.heap"), 3 * kPageSize);
  EXPECT_EQ(ScanAll(**hf),
            (std::vector<std::string>{std::string(3000, 'a'),
                                      std::string(3000, 'b'),
                                      std::string(3000, 'c'), "tail"}));
}

TEST_F(HeapFileTest, EmptyRecordSupported) {
  auto hf = HeapFile::Open(env_.get(), "empty.heap");
  ASSERT_TRUE(hf.ok());
  ASSERT_TRUE((*hf)->Append("").ok());
  EXPECT_EQ(ScanAll(**hf), std::vector<std::string>{""});
}

// One handle shared by scanners and counter readers while a writer appends,
// through a four-frame pool that evicts under them: every scan sees a
// prefix of the appended records. The tree's QUT readers share a partition
// file this way under a sub-chunk's shared lock while the stats sum its
// counters; run under TSan, this is the heap file's data-race gate.
TEST_F(HeapFileTest, ScansAndCountersBesideAnAppender) {
  auto hf = HeapFile::Open(env_.get(), "shared.heap", /*cache_pages=*/4);
  ASSERT_TRUE(hf.ok());
  HeapFile* file = hf->get();
  auto record = [](int i) { return std::string(500, 'a' + i % 26); };
  std::atomic<bool> done{false};
  auto reader = [&]() -> bool {
    bool prefix = true;
    do {
      int i = 0;
      const Status st = file->Scan([&](const std::string& rec) {
        prefix = prefix && rec == record(i++);
        return true;
      });
      prefix = prefix && st.ok() && i <= 400;
      (void)file->io_stats();
      (void)file->lock_stats();
      (void)file->records();
    } while (!done.load());
    return prefix;
  };
  std::future<bool> first = std::async(std::launch::async, reader);
  std::future<bool> second = std::async(std::launch::async, reader);
  int appended = 0;
  while (appended < 400 && file->Append(record(appended)).ok()) ++appended;
  done.store(true);
  EXPECT_TRUE(first.get());
  EXPECT_TRUE(second.get());
  EXPECT_EQ(appended, 400);
  EXPECT_EQ(file->records(), 400u);
  EXPECT_GT(file->io_stats().evictions, 0u);
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
    last = (*hf)->Append(std::string(2000, 'x'));
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

}  // namespace
}  // namespace hermes::storage
