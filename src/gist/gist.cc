#include "gist/gist.h"

#include <array>
#include <cstring>

#include "common/logging.h"

namespace hermes::gist {

namespace {
constexpr uint32_t kGistMagic = 0x47495354u;  // "GIST"
// Meta page layout: [magic u32][root u32][height u32][pad u32][entries u64].
constexpr size_t kMetaMagicOff = 0;
constexpr size_t kMetaRootOff = 4;
constexpr size_t kMetaHeightOff = 8;
constexpr size_t kMetaEntriesOff = 16;
}  // namespace

bool GistOpClass::Same(const void* a, const void* b) const {
  return std::memcmp(a, b, KeySize()) == 0;
}

Gist::Gist(std::unique_ptr<storage::Pager> pager, const GistOpClass* opclass)
    : pager_(std::move(pager)),
      opclass_(opclass),
      key_size_(opclass->KeySize()) {}

StatusOr<std::unique_ptr<Gist>> Gist::Open(storage::Env* env,
                                           const std::string& fname,
                                           const GistOpClass* opclass,
                                           size_t cache_pages) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<storage::Pager> pager,
                          storage::Pager::Open(env, fname, cache_pages));
  auto tree = std::unique_ptr<Gist>(new Gist(std::move(pager), opclass));
  // The handle is not shared yet, but LoadMeta writes guarded state, so
  // take the (uncontended) writer lock for the analysis.
  common::WriterMutexLock lock(&tree->mu_);
  if (tree->pager_->num_pages() == 0) {
    // Fresh file: page 0 is the meta page, mirrored in members and
    // written only by `Flush`, so it takes no frame.
    tree->pager_->Reserve();
  } else {
    HERMES_RETURN_NOT_OK(tree->LoadMeta());
  }
  return tree;
}

Status Gist::LoadMeta() {
  HERMES_ASSIGN_OR_RETURN(storage::Page * meta, pager_->Fetch(0));
  storage::PinnedPage pin(pager_.get(), meta);
  uint32_t magic;
  std::memcpy(&magic, meta->data.data() + kMetaMagicOff, 4);
  if (magic != kGistMagic) return Status::Corruption("bad GiST magic");
  std::memcpy(&root_, meta->data.data() + kMetaRootOff, 4);
  std::memcpy(&height_, meta->data.data() + kMetaHeightOff, 4);
  std::memcpy(&num_entries_, meta->data.data() + kMetaEntriesOff, 8);
  return Status::OK();
}

Status Gist::SaveMeta() {
  std::array<char, storage::kPageSize> meta{};
  std::memcpy(meta.data() + kMetaMagicOff, &kGistMagic, 4);
  std::memcpy(meta.data() + kMetaRootOff, &root_, 4);
  std::memcpy(meta.data() + kMetaHeightOff, &height_, 4);
  std::memcpy(meta.data() + kMetaEntriesOff, &num_entries_, 8);
  return pager_->WritePage(0, meta.data());
}

StatusOr<storage::PageId> Gist::NewNode(bool leaf) {
  HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Allocate());
  storage::PinnedPage pin(pager_.get(), page);
  GistNodeView view(page, key_size_);
  view.Init(leaf);
  pin.MarkDirty();
  return page->id;
}

std::string Gist::ComputeUnion(const GistNodeView& view) const {
  HERMES_CHECK(view.num_entries() > 0) << "union of empty node";
  std::string u(view.KeyAt(0), key_size_);
  for (size_t i = 1; i < view.num_entries(); ++i) {
    opclass_->UnionInPlace(u.data(), view.KeyAt(i));
  }
  return u;
}

Status Gist::Insert(const void* key, uint64_t datum) {
  storage::CountedExclusiveLock lock(mu_, &lock_counters_);
  if (root_ == storage::kInvalidPage) {
    HERMES_ASSIGN_OR_RETURN(root_, NewNode(/*leaf=*/true));
    height_ = 1;
  }
  HERMES_ASSIGN_OR_RETURN(InsertResult res, InsertRecursive(root_, key, datum));
  if (res.split) {
    // Root split: grow the tree upward.
    HERMES_ASSIGN_OR_RETURN(storage::PageId new_root,
                            NewNode(/*leaf=*/false));
    HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Fetch(new_root));
    storage::PinnedPage pin(pager_.get(), page);
    GistNodeView view(page, key_size_);
    view.Append(res.subtree_union.data(), root_);
    view.Append(res.right_union.data(), res.right_page);
    pin.MarkDirty();
    root_ = new_root;
    ++height_;
  }
  ++num_entries_;
  return Status::OK();
}

StatusOr<Gist::InsertResult> Gist::InsertRecursive(storage::PageId node_id,
                                                   const void* key,
                                                   uint64_t datum) {
  HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Fetch(node_id));
  storage::PinnedPage pin(pager_.get(), page);
  GistNodeView view(page, key_size_);

  if (view.is_leaf()) {
    if (view.num_entries() < view.Capacity()) {
      view.Append(key, datum);
      pin.MarkDirty();
      InsertResult res;
      res.subtree_union = ComputeUnion(view);
      return res;
    }
    auto res = SplitNode(&view, key, datum);
    if (res.ok()) pin.MarkDirty();
    return res;
  }

  // Choose the subtree with minimal penalty (ties: first).
  size_t best = 0;
  double best_penalty = opclass_->Penalty(view.KeyAt(0), key);
  for (size_t i = 1; i < view.num_entries(); ++i) {
    const double p = opclass_->Penalty(view.KeyAt(i), key);
    if (p < best_penalty) {
      best_penalty = p;
      best = i;
    }
  }
  const storage::PageId child =
      static_cast<storage::PageId>(view.DatumAt(best));
  HERMES_ASSIGN_OR_RETURN(InsertResult child_res,
                          InsertRecursive(child, key, datum));

  // AdjustKeys: tighten the chosen entry to the child's new union.
  view.SetKeyAt(best, child_res.subtree_union.data());
  pin.MarkDirty();

  if (!child_res.split) {
    InsertResult res;
    res.subtree_union = ComputeUnion(view);
    return res;
  }

  // Install the new right sibling produced by the child split.
  if (view.num_entries() < view.Capacity()) {
    view.Append(child_res.right_union.data(), child_res.right_page);
    InsertResult res;
    res.subtree_union = ComputeUnion(view);
    return res;
  }
  return SplitNode(&view, child_res.right_union.data(), child_res.right_page);
}

StatusOr<Gist::InsertResult> Gist::SplitNode(GistNodeView* view,
                                             const void* key, uint64_t datum) {
  splits_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = view->num_entries();
  // Gather all keys (existing + pending) for PickSplit.
  std::vector<std::string> keys;
  std::vector<uint64_t> datums;
  keys.reserve(n + 1);
  datums.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) {
    keys.emplace_back(view->KeyAt(i), key_size_);
    datums.push_back(view->DatumAt(i));
  }
  keys.emplace_back(static_cast<const char*>(key), key_size_);
  datums.push_back(datum);

  std::vector<const void*> key_ptrs;
  key_ptrs.reserve(keys.size());
  for (const auto& k : keys) key_ptrs.push_back(k.data());
  std::vector<bool> to_right;
  opclass_->PickSplit(key_ptrs, &to_right);
  HERMES_CHECK(to_right.size() == keys.size()) << "PickSplit size mismatch";

  // Both sides must be non-empty; fall back to a half split otherwise.
  size_t right_count = 0;
  for (bool b : to_right) right_count += b ? 1 : 0;
  if (right_count == 0 || right_count == keys.size()) {
    for (size_t i = 0; i < to_right.size(); ++i) to_right[i] = i >= keys.size() / 2;
  }

  const bool leaf = view->is_leaf();
  HERMES_ASSIGN_OR_RETURN(storage::PageId right_id, NewNode(leaf));
  HERMES_ASSIGN_OR_RETURN(storage::Page * right_page, pager_->Fetch(right_id));
  storage::PinnedPage right_pin(pager_.get(), right_page);
  GistNodeView right(right_page, key_size_);
  right.Init(leaf);

  view->Init(leaf);  // Rebuild the left node in place.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (to_right[i]) {
      right.Append(keys[i].data(), datums[i]);
    } else {
      view->Append(keys[i].data(), datums[i]);
    }
  }
  right_pin.MarkDirty();

  InsertResult res;
  res.subtree_union = ComputeUnion(*view);
  res.split = true;
  res.right_union = ComputeUnion(right);
  res.right_page = right_id;
  return res;
}

Status Gist::Search(
    const void* query,
    const std::function<bool(const void*, uint64_t)>& fn) const {
  storage::CountedSharedLock lock(mu_, &lock_counters_);
  if (root_ == storage::kInvalidPage) return Status::OK();
  // Iterative DFS with an explicit stack: this is the hottest read path
  // (every voting range query descends here).
  storage::PageId stack_buf[64];
  size_t depth = 0;
  stack_buf[depth++] = root_;
  std::vector<storage::PageId> overflow;  // Beyond the inline stack.

  while (depth > 0 || !overflow.empty()) {
    storage::PageId node_id;
    if (!overflow.empty()) {
      node_id = overflow.back();
      overflow.pop_back();
    } else {
      node_id = stack_buf[--depth];
    }
    HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Fetch(node_id));
    storage::PinnedPage pin(pager_.get(), page);
    GistNodeView view(page, key_size_);
    nodes_visited_.fetch_add(1, std::memory_order_relaxed);

    const bool leaf = view.is_leaf();
    const size_t n = view.num_entries();
    for (size_t i = 0; i < n; ++i) {
      if (!opclass_->Consistent(view.KeyAt(i), query, leaf)) continue;
      if (leaf) {
        leaf_hits_.fetch_add(1, std::memory_order_relaxed);
        if (!fn(view.KeyAt(i), view.DatumAt(i))) return Status::OK();
      } else {
        const auto child = static_cast<storage::PageId>(view.DatumAt(i));
        if (depth < 64) {
          stack_buf[depth++] = child;
        } else {
          overflow.push_back(child);
        }
      }
    }
  }
  return Status::OK();
}

Status Gist::Delete(const void* key, uint64_t datum) {
  storage::CountedExclusiveLock lock(mu_, &lock_counters_);
  if (root_ == storage::kInvalidPage) return Status::NotFound("empty tree");
  std::string new_union;
  HERMES_ASSIGN_OR_RETURN(bool found,
                          DeleteRecursive(root_, key, datum, &new_union));
  if (!found) return Status::NotFound("no matching entry");
  --num_entries_;
  return Status::OK();
}

StatusOr<bool> Gist::DeleteRecursive(storage::PageId node_id, const void* key,
                                     uint64_t datum, std::string* new_union) {
  HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Fetch(node_id));
  storage::PinnedPage pin(pager_.get(), page);
  GistNodeView view(page, key_size_);

  if (view.is_leaf()) {
    for (size_t i = 0; i < view.num_entries(); ++i) {
      if (view.DatumAt(i) == datum && opclass_->Same(view.KeyAt(i), key)) {
        view.Remove(i);
        pin.MarkDirty();
        if (view.num_entries() > 0) {
          *new_union = ComputeUnion(view);
        } else {
          new_union->clear();  // Empty node: parent keeps its stale key.
        }
        return true;
      }
    }
    return false;
  }

  for (size_t i = 0; i < view.num_entries(); ++i) {
    // Descend only into subtrees whose key covers the victim.
    if (!opclass_->Covers(view.KeyAt(i), key)) continue;
    std::string child_union;
    HERMES_ASSIGN_OR_RETURN(
        bool found, DeleteRecursive(static_cast<storage::PageId>(
                                        view.DatumAt(i)),
                                    key, datum, &child_union));
    if (found) {
      if (!child_union.empty()) {
        view.SetKeyAt(i, child_union.data());
        pin.MarkDirty();
        *new_union = ComputeUnion(view);
      } else {
        new_union->clear();
      }
      return true;
    }
  }
  return false;
}

Status Gist::BulkLoad(
    const std::vector<std::pair<std::string, uint64_t>>& entries,
    double fill_factor) {
  storage::CountedExclusiveLock lock(mu_, &lock_counters_);
  if (root_ != storage::kInvalidPage) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  if (entries.empty()) return Status::OK();
  if (fill_factor <= 0.0 || fill_factor > 1.0) {
    return Status::InvalidArgument("fill_factor must be in (0, 1]");
  }
  for (const auto& [k, d] : entries) {
    if (k.size() != key_size_) {
      return Status::InvalidArgument("key size mismatch in BulkLoad");
    }
  }

  // Pack the current level into nodes, collect (union, page) for the next.
  struct LevelEntry {
    std::string key;
    uint64_t datum;
  };
  std::vector<LevelEntry> level;
  level.reserve(entries.size());
  for (const auto& [k, d] : entries) level.push_back({k, d});

  bool leaf_level = true;
  uint32_t levels = 0;
  while (true) {
    GistNodeView probe(nullptr, key_size_);
    const size_t capacity =
        (storage::kPageSize - GistNodeView::kHeaderSize) / (key_size_ + 8);
    size_t per_node = static_cast<size_t>(capacity * fill_factor);
    if (per_node < 2) per_node = 2;
    (void)probe;

    std::vector<LevelEntry> next;
    for (size_t i = 0; i < level.size(); i += per_node) {
      const size_t end = std::min(i + per_node, level.size());
      HERMES_ASSIGN_OR_RETURN(storage::PageId node_id, NewNode(leaf_level));
      HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Fetch(node_id));
      storage::PinnedPage pin(pager_.get(), page);
      GistNodeView view(page, key_size_);
      std::string u(level[i].key);
      for (size_t j = i; j < end; ++j) {
        view.Append(level[j].key.data(), level[j].datum);
        if (j > i) opclass_->UnionInPlace(u.data(), level[j].key.data());
      }
      pin.MarkDirty();
      next.push_back({std::move(u), node_id});
    }
    ++levels;
    if (next.size() == 1) {
      root_ = static_cast<storage::PageId>(next[0].datum);
      break;
    }
    level = std::move(next);
    leaf_level = false;
  }
  height_ = levels;
  num_entries_ = entries.size();
  return Status::OK();
}

Status Gist::Validate() const {
  storage::CountedSharedLock lock(mu_, &lock_counters_);
  if (root_ == storage::kInvalidPage) {
    if (num_entries_ != 0) return Status::Corruption("entries in empty tree");
    return Status::OK();
  }
  uint64_t seen = 0;
  HERMES_RETURN_NOT_OK(ValidateRecursive(root_, 1, nullptr, &seen));
  if (seen != num_entries_) {
    return Status::Corruption("entry count mismatch: meta says " +
                              std::to_string(num_entries_) + ", found " +
                              std::to_string(seen));
  }
  return Status::OK();
}

Status Gist::ValidateRecursive(storage::PageId node_id, uint32_t depth,
                               const std::string* expected_cover,
                               uint64_t* entries_seen) const {
  HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Fetch(node_id));
  storage::PinnedPage pin(pager_.get(), page);
  GistNodeView view(page, key_size_);

  const bool leaf = view.is_leaf();
  if (leaf && depth != height_) {
    return Status::Corruption("leaf at depth " + std::to_string(depth) +
                              " height " + std::to_string(height_));
  }
  if (!leaf && depth >= height_) {
    return Status::Corruption("internal node below leaf level");
  }
  for (size_t i = 0; i < view.num_entries(); ++i) {
    if (expected_cover != nullptr &&
        !opclass_->Covers(expected_cover->data(), view.KeyAt(i))) {
      return Status::Corruption("parent key does not cover child entry");
    }
    if (leaf) {
      ++*entries_seen;
    } else {
      std::string cover(view.KeyAt(i), key_size_);
      HERMES_RETURN_NOT_OK(ValidateRecursive(
          static_cast<storage::PageId>(view.DatumAt(i)), depth + 1, &cover,
          entries_seen));
    }
  }
  return Status::OK();
}

StatusOr<Gist::NodeSnapshot> Gist::ReadNode(storage::PageId id) const {
  storage::CountedSharedLock lock(mu_, &lock_counters_);
  HERMES_ASSIGN_OR_RETURN(storage::Page * page, pager_->Fetch(id));
  storage::PinnedPage pin(pager_.get(), page);
  GistNodeView view(page, key_size_);
  NodeSnapshot snap;
  snap.is_leaf = view.is_leaf();
  for (size_t i = 0; i < view.num_entries(); ++i) {
    snap.keys.emplace_back(view.KeyAt(i), key_size_);
    snap.datums.push_back(view.DatumAt(i));
  }
  return snap;
}

Status Gist::Flush() {
  storage::CountedExclusiveLock lock(mu_, &lock_counters_);
  HERMES_RETURN_NOT_OK(SaveMeta());
  return pager_->Flush();
}

}  // namespace hermes::gist
