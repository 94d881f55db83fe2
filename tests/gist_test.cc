#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "gist/gist.h"
#include "gist/gist_page.h"
#include "rtree/rtree_opclass.h"
#include "storage/env.h"

namespace hermes::gist {
namespace {

using rtree::DecodeKey;
using rtree::EncodeKey;
using rtree::QueryMode;
using rtree::RTreeOpClass;
using rtree::RTreeQuery;

geom::Mbb3D RandomBox(Rng* rng, double extent, double size) {
  const double x = rng->Uniform(0, extent);
  const double y = rng->Uniform(0, extent);
  const double t = rng->Uniform(0, extent);
  return geom::Mbb3D(x, y, t, x + rng->Uniform(0.1, size),
                     y + rng->Uniform(0.1, size),
                     t + rng->Uniform(0.1, size));
}

class GistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = storage::Env::NewMemEnv();
    auto tree = Gist::Open(env_.get(), "test.gist", RTreeOpClass::Instance());
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
  }

  std::vector<uint64_t> Search(const geom::Mbb3D& box) {
    RTreeQuery q{box, QueryMode::kIntersects};
    std::vector<uint64_t> out;
    EXPECT_TRUE(tree_
                    ->Search(&q,
                             [&](const void*, uint64_t d) {
                               out.push_back(d);
                               return true;
                             })
                    .ok());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<storage::Env> env_;
  std::unique_ptr<Gist> tree_;
};

TEST_F(GistTest, EmptyTreeSearchesCleanly) {
  EXPECT_TRUE(tree_->empty());
  EXPECT_EQ(tree_->num_entries(), 0u);
  EXPECT_TRUE(Search(geom::Mbb3D(0, 0, 0, 1, 1, 1)).empty());
  EXPECT_TRUE(tree_->Validate().ok());
}

TEST_F(GistTest, SingleInsertAndExactSearch) {
  const geom::Mbb3D box(1, 1, 1, 2, 2, 2);
  const std::string key = EncodeKey(box);
  ASSERT_TRUE(tree_->Insert(key.data(), 42).ok());
  EXPECT_EQ(tree_->num_entries(), 1u);
  EXPECT_EQ(tree_->height(), 1u);
  const auto hits = Search(box);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
  EXPECT_TRUE(Search(geom::Mbb3D(5, 5, 5, 6, 6, 6)).empty());
}

TEST_F(GistTest, ManyInsertsMatchBruteForce) {
  Rng rng(2024);
  std::vector<geom::Mbb3D> boxes;
  for (uint64_t i = 0; i < 800; ++i) {
    const geom::Mbb3D box = RandomBox(&rng, 1000.0, 60.0);
    boxes.push_back(box);
    const std::string key = EncodeKey(box);
    ASSERT_TRUE(tree_->Insert(key.data(), i).ok());
  }
  EXPECT_EQ(tree_->num_entries(), 800u);
  EXPECT_GE(tree_->height(), 2u);  // Must have split.
  ASSERT_TRUE(tree_->Validate().ok());

  for (int q = 0; q < 25; ++q) {
    const geom::Mbb3D query = RandomBox(&rng, 1000.0, 200.0);
    std::vector<uint64_t> expected;
    for (uint64_t i = 0; i < boxes.size(); ++i) {
      if (boxes[i].Intersects(query)) expected.push_back(i);
    }
    EXPECT_EQ(Search(query), expected) << "query " << query.ToString();
  }
}

TEST_F(GistTest, SearchEarlyTermination) {
  Rng rng(7);
  for (uint64_t i = 0; i < 200; ++i) {
    const std::string key = EncodeKey(RandomBox(&rng, 100.0, 50.0));
    ASSERT_TRUE(tree_->Insert(key.data(), i).ok());
  }
  RTreeQuery q{geom::Mbb3D(0, 0, 0, 200, 200, 200), QueryMode::kIntersects};
  int visits = 0;
  ASSERT_TRUE(tree_
                  ->Search(&q,
                           [&](const void*, uint64_t) {
                             return ++visits < 5;
                           })
                  .ok());
  EXPECT_EQ(visits, 5);
}

TEST_F(GistTest, DeleteRemovesExactEntry) {
  Rng rng(99);
  std::vector<geom::Mbb3D> boxes;
  for (uint64_t i = 0; i < 300; ++i) {
    boxes.push_back(RandomBox(&rng, 500.0, 40.0));
    const std::string key = EncodeKey(boxes.back());
    ASSERT_TRUE(tree_->Insert(key.data(), i).ok());
  }
  // Delete every third entry.
  for (uint64_t i = 0; i < 300; i += 3) {
    const std::string key = EncodeKey(boxes[i]);
    ASSERT_TRUE(tree_->Delete(key.data(), i).ok()) << i;
  }
  EXPECT_EQ(tree_->num_entries(), 200u);
  // Deleted entries no longer found; others still are.
  const auto all = Search(geom::Mbb3D(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9));
  EXPECT_EQ(all.size(), 200u);
  for (uint64_t d : all) EXPECT_NE(d % 3, 0u);
}

TEST_F(GistTest, DeleteMissingEntryFails) {
  const std::string key = EncodeKey(geom::Mbb3D(0, 0, 0, 1, 1, 1));
  EXPECT_TRUE(tree_->Delete(key.data(), 1).IsNotFound());
  ASSERT_TRUE(tree_->Insert(key.data(), 1).ok());
  EXPECT_TRUE(tree_->Delete(key.data(), 2).IsNotFound());  // Wrong datum.
  const std::string other = EncodeKey(geom::Mbb3D(5, 5, 5, 6, 6, 6));
  EXPECT_TRUE(tree_->Delete(other.data(), 1).IsNotFound());  // Wrong key.
}

TEST_F(GistTest, PersistsAcrossReopen) {
  Rng rng(3);
  std::vector<geom::Mbb3D> boxes;
  for (uint64_t i = 0; i < 150; ++i) {
    boxes.push_back(RandomBox(&rng, 100.0, 10.0));
    const std::string key = EncodeKey(boxes.back());
    ASSERT_TRUE(tree_->Insert(key.data(), i).ok());
  }
  ASSERT_TRUE(tree_->Flush().ok());
  tree_.reset();

  auto reopened =
      Gist::Open(env_.get(), "test.gist", RTreeOpClass::Instance());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_entries(), 150u);
  ASSERT_TRUE((*reopened)->Validate().ok());
  RTreeQuery q{boxes[0], QueryMode::kIntersects};
  bool found = false;
  ASSERT_TRUE((*reopened)
                  ->Search(&q,
                           [&](const void*, uint64_t d) {
                             found |= (d == 0);
                             return true;
                           })
                  .ok());
  EXPECT_TRUE(found);
}

/// Size and first page of `fname` under `env`.
std::pair<uint64_t, std::string> SizeAndMetaPage(storage::Env* env,
                                                 const std::string& fname) {
  auto file = env->NewRWFile(fname);
  EXPECT_TRUE(file.ok());
  if (!file.ok()) return {0, ""};
  const uint64_t size = (*file)->Size().ValueOr(0);
  std::string meta(storage::kPageSize, '\0');
  if (size >= storage::kPageSize) {
    EXPECT_TRUE((*file)->ReadAt(0, meta.size(), meta.data()).ok());
  }
  return {size, meta};
}

TEST_F(GistTest, MetaPageTakesNoFrameAndOnlyFlushWritesIt) {
  EXPECT_EQ(tree_->io_stats().resident_pages, 0u);
  const std::string key = EncodeKey(geom::Mbb3D(0, 0, 0, 1, 1, 1));
  ASSERT_TRUE(tree_->Insert(key.data(), 7).ok());
  EXPECT_EQ(tree_->io_stats().resident_pages, 1u);  // The root leaf.
  tree_.reset();
  // Closed without Flush: nothing was written, so it reopens empty.
  EXPECT_EQ(SizeAndMetaPage(env_.get(), "test.gist").first, 0u);
  auto reopened =
      Gist::Open(env_.get(), "test.gist", RTreeOpClass::Instance());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->empty());
}

// The meta page a flush writes is byte-for-byte the one every insert used
// to keep in the pool: magic "GIST", root, height, padding, entry count,
// then zeros. 150 inserts split the root leaf (146 entries fit) once.
TEST_F(GistTest, FlushedMetaPageMatchesGoldenBytes) {
  Rng rng(5);
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 150; ++i) {
    keys.push_back(EncodeKey(RandomBox(&rng, 100.0, 10.0)));
    ASSERT_TRUE(tree_->Insert(keys.back().data(), i).ok());
  }
  ASSERT_TRUE(tree_->Delete(keys[0].data(), 0).ok());
  EXPECT_EQ(tree_->io_stats().resident_pages, 3u);
  ASSERT_TRUE(tree_->Flush().ok());
  EXPECT_EQ(tree_->io_stats().resident_pages, 3u);
  tree_.reset();

  const auto [size, meta] = SizeAndMetaPage(env_.get(), "test.gist");
  EXPECT_EQ(size, 4 * storage::kPageSize);
  std::string want(storage::kPageSize, '\0');
  const char golden[24] = {
      0x54, 0x53, 0x49, 0x47,                          // magic
      0x03, 0x00, 0x00, 0x00,                          // root page
      0x02, 0x00, 0x00, 0x00,                          // height
      0x00, 0x00, 0x00, 0x00,                          // padding
      static_cast<char>(0x95), 0x00, 0x00, 0x00,       // entries (149)
      0x00, 0x00, 0x00, 0x00,
  };
  want.replace(0, sizeof(golden), golden, sizeof(golden));
  EXPECT_EQ(meta, want);

  auto reopened =
      Gist::Open(env_.get(), "test.gist", RTreeOpClass::Instance());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->root(), 3u);
  EXPECT_EQ((*reopened)->height(), 2u);
  EXPECT_EQ((*reopened)->num_entries(), 149u);
  EXPECT_TRUE((*reopened)->Validate().ok());
}

TEST_F(GistTest, BulkLoadMatchesInserts) {
  Rng rng(11);
  std::vector<std::pair<std::string, uint64_t>> entries;
  std::vector<geom::Mbb3D> boxes;
  for (uint64_t i = 0; i < 500; ++i) {
    boxes.push_back(RandomBox(&rng, 400.0, 30.0));
    entries.emplace_back(EncodeKey(boxes.back()), i);
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  EXPECT_EQ(tree_->num_entries(), 500u);
  ASSERT_TRUE(tree_->Validate().ok());

  const geom::Mbb3D query(100, 100, 100, 250, 250, 250);
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < boxes.size(); ++i) {
    if (boxes[i].Intersects(query)) expected.push_back(i);
  }
  EXPECT_EQ(Search(query), expected);
}

TEST_F(GistTest, BulkLoadRequiresEmptyTree) {
  const std::string key = EncodeKey(geom::Mbb3D(0, 0, 0, 1, 1, 1));
  ASSERT_TRUE(tree_->Insert(key.data(), 1).ok());
  EXPECT_TRUE(tree_->BulkLoad({{key, 2}}).IsInvalidArgument());
}

TEST_F(GistTest, BulkLoadValidatesKeySizeAndFillFactor) {
  EXPECT_TRUE(tree_->BulkLoad({{"short", 1}}).IsInvalidArgument());
  const std::string key = EncodeKey(geom::Mbb3D(0, 0, 0, 1, 1, 1));
  EXPECT_TRUE(tree_->BulkLoad({{key, 1}}, 0.0).IsInvalidArgument());
  EXPECT_TRUE(tree_->BulkLoad({{key, 1}}, 1.5).IsInvalidArgument());
}

TEST_F(GistTest, StatsTrackNodeVisits) {
  Rng rng(5);
  for (uint64_t i = 0; i < 400; ++i) {
    const std::string key = EncodeKey(RandomBox(&rng, 1000.0, 20.0));
    ASSERT_TRUE(tree_->Insert(key.data(), i).ok());
  }
  tree_->ResetStats();
  // A tiny query should visit far fewer nodes than the tree holds.
  Search(geom::Mbb3D(0, 0, 0, 10, 10, 10));
  const uint64_t small_visits = tree_->stats().nodes_visited;
  tree_->ResetStats();
  Search(geom::Mbb3D(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9));
  const uint64_t full_visits = tree_->stats().nodes_visited;
  EXPECT_LT(small_visits, full_visits);
}

TEST_F(GistTest, ReadNodeExposesStructure) {
  Rng rng(13);
  for (uint64_t i = 0; i < 300; ++i) {
    const std::string key = EncodeKey(RandomBox(&rng, 100.0, 10.0));
    ASSERT_TRUE(tree_->Insert(key.data(), i).ok());
  }
  auto root = tree_->ReadNode(tree_->root());
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(root->is_leaf);
  EXPECT_GE(root->keys.size(), 2u);
  // Every child of the root must be covered by its entry key.
  for (size_t i = 0; i < root->keys.size(); ++i) {
    auto child = tree_->ReadNode(
        static_cast<storage::PageId>(root->datums[i]));
    ASSERT_TRUE(child.ok());
    const geom::Mbb3D parent_key = DecodeKey(root->keys[i].data());
    for (const auto& ck : child->keys) {
      EXPECT_TRUE(parent_key.Contains(DecodeKey(ck.data())));
    }
  }
}

// ---------------------------------------------------------------------------
// Genericity: a second operator class (1-D closed intervals) runs on the
// same unmodified Gist — the GiST extensibility contract in action.
// ---------------------------------------------------------------------------

class IntervalOpClass : public GistOpClass {
 public:
  struct Interval {
    double lo;
    double hi;
  };

  static std::string Encode(double lo, double hi) {
    std::string key(sizeof(Interval), '\0');
    Interval iv{lo, hi};
    std::memcpy(key.data(), &iv, sizeof(iv));
    return key;
  }
  static Interval Decode(const void* key) {
    Interval iv;
    std::memcpy(&iv, key, sizeof(iv));
    return iv;
  }

  size_t KeySize() const override { return sizeof(Interval); }

  bool Consistent(const void* key, const void* query, bool) const override {
    const Interval k = Decode(key);
    const Interval q = *static_cast<const Interval*>(query);
    return k.lo <= q.hi && q.lo <= k.hi;
  }
  void UnionInPlace(void* dst, const void* src) const override {
    Interval d = Decode(dst);
    const Interval s = Decode(src);
    d.lo = std::min(d.lo, s.lo);
    d.hi = std::max(d.hi, s.hi);
    std::memcpy(dst, &d, sizeof(d));
  }
  double Penalty(const void* existing, const void* incoming) const override {
    const Interval e = Decode(existing);
    const Interval in = Decode(incoming);
    const double grown =
        std::max(e.hi, in.hi) - std::min(e.lo, in.lo) - (e.hi - e.lo);
    return grown;
  }
  void PickSplit(const std::vector<const void*>& keys,
                 std::vector<bool>* to_right) const override {
    // Split around the median midpoint.
    std::vector<std::pair<double, size_t>> mids;
    for (size_t i = 0; i < keys.size(); ++i) {
      const Interval iv = Decode(keys[i]);
      mids.emplace_back((iv.lo + iv.hi) / 2, i);
    }
    std::sort(mids.begin(), mids.end());
    to_right->assign(keys.size(), false);
    for (size_t r = mids.size() / 2; r < mids.size(); ++r) {
      (*to_right)[mids[r].second] = true;
    }
  }
  bool Covers(const void* parent, const void* child) const override {
    const Interval p = Decode(parent);
    const Interval c = Decode(child);
    return p.lo <= c.lo && c.hi <= p.hi;
  }
};

TEST(GistGenericityTest, IntervalOpClassWorksUnmodified) {
  auto env = storage::Env::NewMemEnv();
  IntervalOpClass opclass;
  auto tree = Gist::Open(env.get(), "intervals.gist", &opclass);
  ASSERT_TRUE(tree.ok());

  Rng rng(55);
  std::vector<IntervalOpClass::Interval> intervals;
  for (uint64_t i = 0; i < 700; ++i) {
    const double lo = rng.Uniform(0, 1000);
    const double hi = lo + rng.Uniform(0.1, 30);
    intervals.push_back({lo, hi});
    const std::string key = IntervalOpClass::Encode(lo, hi);
    ASSERT_TRUE((*tree)->Insert(key.data(), i).ok());
  }
  ASSERT_TRUE((*tree)->Validate().ok());
  EXPECT_GE((*tree)->height(), 2u);

  // Stabbing-style queries vs brute force.
  for (int q = 0; q < 20; ++q) {
    IntervalOpClass::Interval query{rng.Uniform(0, 1000), 0};
    query.hi = query.lo + rng.Uniform(1, 60);
    std::vector<uint64_t> expected;
    for (uint64_t i = 0; i < intervals.size(); ++i) {
      if (intervals[i].lo <= query.hi && query.lo <= intervals[i].hi) {
        expected.push_back(i);
      }
    }
    std::vector<uint64_t> got;
    ASSERT_TRUE((*tree)
                    ->Search(&query,
                             [&](const void*, uint64_t d) {
                               got.push_back(d);
                               return true;
                             })
                    .ok());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(GistGenericityTest, IntervalDeleteAndBulkLoad) {
  auto env = storage::Env::NewMemEnv();
  IntervalOpClass opclass;
  auto tree = Gist::Open(env.get(), "iv2.gist", &opclass);
  ASSERT_TRUE(tree.ok());
  std::vector<std::pair<std::string, uint64_t>> entries;
  for (uint64_t i = 0; i < 300; ++i) {
    entries.emplace_back(IntervalOpClass::Encode(i * 2.0, i * 2.0 + 1.0), i);
  }
  ASSERT_TRUE((*tree)->BulkLoad(entries).ok());
  ASSERT_TRUE((*tree)->Validate().ok());
  // Delete the even entries.
  for (uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE((*tree)->Delete(entries[i].first.data(), i).ok());
  }
  EXPECT_EQ((*tree)->num_entries(), 150u);
  IntervalOpClass::Interval all{-1e9, 1e9};
  size_t count = 0;
  ASSERT_TRUE((*tree)
                  ->Search(&all,
                           [&](const void*, uint64_t d) {
                             EXPECT_EQ(d % 2, 1u);
                             ++count;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(count, 150u);
}

// GistNodeView unit checks.
TEST(GistNodeViewTest, CapacityForRTreeKeys) {
  storage::Page page;
  GistNodeView view(&page, 48);
  // (8192 - 8) / 56 = 146.
  EXPECT_EQ(view.Capacity(), 146u);
}

TEST(GistNodeViewTest, AppendRemoveRoundTrip) {
  storage::Page page;
  GistNodeView view(&page, 8);
  view.Init(true);
  EXPECT_TRUE(view.is_leaf());
  const char k1[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const char k2[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  view.Append(k1, 100);
  view.Append(k2, 200);
  EXPECT_EQ(view.num_entries(), 2u);
  EXPECT_EQ(view.DatumAt(0), 100u);
  EXPECT_EQ(view.DatumAt(1), 200u);
  view.Remove(0);
  EXPECT_EQ(view.num_entries(), 1u);
  EXPECT_EQ(view.DatumAt(0), 200u);
  EXPECT_EQ(view.KeyAt(0)[0], 9);
}

// Opclass unit checks.
TEST(RTreeOpClassTest, KeyCodecRoundTrip) {
  const geom::Mbb3D box(-1.5, 2.5, 3.5, 4.5, 5.5, 6.5);
  EXPECT_EQ(DecodeKey(EncodeKey(box).data()), box);
}

TEST(RTreeOpClassTest, PenaltyPrefersNoEnlargement) {
  const RTreeOpClass* op = RTreeOpClass::Instance();
  const std::string big = EncodeKey(geom::Mbb3D(0, 0, 0, 10, 10, 10));
  const std::string far_box = EncodeKey(geom::Mbb3D(100, 100, 100, 101, 101, 101));
  const std::string inside = EncodeKey(geom::Mbb3D(1, 1, 1, 2, 2, 2));
  EXPECT_LT(op->Penalty(big.data(), inside.data()),
            op->Penalty(big.data(), far_box.data()));
}

TEST(RTreeOpClassTest, UnionInPlaceGrows) {
  const RTreeOpClass* op = RTreeOpClass::Instance();
  std::string a = EncodeKey(geom::Mbb3D(0, 0, 0, 1, 1, 1));
  const std::string b = EncodeKey(geom::Mbb3D(5, 5, 5, 6, 6, 6));
  op->UnionInPlace(a.data(), b.data());
  const geom::Mbb3D u = DecodeKey(a.data());
  EXPECT_DOUBLE_EQ(u.max_x, 6.0);
  EXPECT_DOUBLE_EQ(u.min_x, 0.0);
}

TEST(RTreeOpClassTest, PickSplitSeparatesTwoClouds) {
  const RTreeOpClass* op = RTreeOpClass::Instance();
  std::vector<std::string> keys;
  // Two well-separated clouds of 10 boxes each.
  for (int i = 0; i < 10; ++i) {
    keys.push_back(EncodeKey(
        geom::Mbb3D(i, i, i, i + 1.0, i + 1.0, i + 1.0)));
  }
  for (int i = 0; i < 10; ++i) {
    keys.push_back(EncodeKey(geom::Mbb3D(1000 + i, 1000 + i, 1000 + i,
                                         1001.0 + i, 1001.0 + i,
                                         1001.0 + i)));
  }
  std::vector<const void*> ptrs;
  for (const auto& k : keys) ptrs.push_back(k.data());
  std::vector<bool> to_right;
  op->PickSplit(ptrs, &to_right);
  // All of cloud 1 on one side, all of cloud 2 on the other.
  for (int i = 1; i < 10; ++i) EXPECT_EQ(to_right[i], to_right[0]);
  for (int i = 11; i < 20; ++i) EXPECT_EQ(to_right[i], to_right[10]);
  EXPECT_NE(to_right[0], to_right[10]);
}

TEST(RTreeOpClassTest, ConsistentModes) {
  const RTreeOpClass* op = RTreeOpClass::Instance();
  const std::string key = EncodeKey(geom::Mbb3D(2, 2, 2, 4, 4, 4));
  RTreeQuery intersect{geom::Mbb3D(3, 3, 3, 10, 10, 10),
                       QueryMode::kIntersects};
  RTreeQuery contained{geom::Mbb3D(0, 0, 0, 10, 10, 10),
                       QueryMode::kContainedBy};
  RTreeQuery contains{geom::Mbb3D(2.5, 2.5, 2.5, 3, 3, 3),
                      QueryMode::kContains};
  EXPECT_TRUE(op->Consistent(key.data(), &intersect, true));
  EXPECT_TRUE(op->Consistent(key.data(), &contained, true));
  EXPECT_TRUE(op->Consistent(key.data(), &contains, true));
  RTreeQuery not_contained{geom::Mbb3D(0, 0, 0, 3, 3, 3),
                           QueryMode::kContainedBy};
  EXPECT_FALSE(op->Consistent(key.data(), &not_contained, true));
}

}  // namespace
}  // namespace hermes::gist
