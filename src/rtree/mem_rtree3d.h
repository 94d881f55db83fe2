#ifndef HERMES_RTREE_MEM_RTREE3D_H_
#define HERMES_RTREE_MEM_RTREE3D_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "geom/mbb.h"
#include "rtree/rtree_opclass.h"
#include "traj/segment_arena.h"

namespace hermes::rtree {

/// \brief One fixed-fanout node of the in-memory pg3D R-tree. Nodes live
/// in fixed-capacity blocks bump-allocated by `MemRTree3D` (matras-style):
/// a block is never relocated after allocation, so readers traversing a
/// published tree never chase moved pointers.
struct MemRTreeNode {
  static constexpr size_t kFanout = 16;

  std::array<geom::Mbb3D, kFanout> bounds;
  /// Leaf: the caller's datum. Internal: the child node's ordinal.
  std::array<uint64_t, kFanout> child;
  uint16_t count = 0;
  bool is_leaf = true;
};

/// \brief Arena-backed in-memory pg3D R-tree — the hot tier in front of
/// the file-backed `Gist` (see docs/ARCHITECTURE.md "Hot/cold index
/// tiers").
///
/// Construction is bulk-load only: `BulkLoad` orders the items with the
/// same exec-aware `StrOrder` the on-disk STR path uses (datum tie-breaks
/// make the order a pure function of the item set), then packs nodes
/// bottom-up into bump-allocated blocks — so the node layout is
/// bit-identical at any thread count (`Fingerprint` locks this down in
/// tests). After `BulkLoad` returns the tree is immutable; `SearchInto`
/// is const, touches no mutable state, and takes no lock, so any number
/// of readers may probe one published tree concurrently.
///
/// `SearchInto` mirrors `RTreeOpClass::Consistent` exactly (closed boxes;
/// internal nodes prune on intersection except `kContains`, which needs
/// the subtree box to cover the query), so a hot probe and a Gist probe
/// over the same items return the same candidate set.
class MemRTree3D {
 public:
  /// Builds a tree over `items` (consumed). `ctx` parallelizes the STR
  /// sort phases; the resulting layout does not depend on it.
  static std::unique_ptr<MemRTree3D> BulkLoad(
      std::vector<std::pair<geom::Mbb3D, uint64_t>> items,
      double fill_factor = 0.9, exec::ExecContext* ctx = nullptr);

  /// Datums of all entries matching (`box`, `mode`), appended to `out`
  /// (cleared first). Lock-free; safe for concurrent readers.
  void SearchInto(const geom::Mbb3D& box, QueryMode mode,
                  std::vector<uint64_t>* out) const;

  size_t num_entries() const { return num_entries_; }
  uint32_t height() const { return height_; }
  size_t num_nodes() const { return num_nodes_; }
  /// Heap footprint of the node arena.
  size_t bytes() const;

  /// FNV-1a hash over the complete node layout (flags, counts, key bit
  /// patterns, datums/child ordinals, in node order) — equal fingerprints
  /// mean bit-identical trees, which is how the determinism tests assert
  /// thread-count independence of the bulk load.
  uint64_t Fingerprint() const;

  /// Structural invariants: parent boxes cover child unions, counts in
  /// range, entry total matches, all leaves at the same depth.
  Status Validate() const;

 private:
  static constexpr size_t kNodesPerBlockShift = 6;
  static constexpr size_t kNodesPerBlock = size_t{1} << kNodesPerBlockShift;
  static constexpr size_t kNodeMask = kNodesPerBlock - 1;
  using NodeBlock = std::array<MemRTreeNode, kNodesPerBlock>;

  MemRTree3D() = default;

  MemRTreeNode* AllocNode();
  const MemRTreeNode& NodeAt(size_t ordinal) const {
    return (*blocks_[ordinal >> kNodesPerBlockShift])[ordinal & kNodeMask];
  }

  std::vector<std::unique_ptr<NodeBlock>> blocks_;
  size_t num_nodes_ = 0;
  size_t num_entries_ = 0;
  size_t root_ = 0;
  uint32_t height_ = 0;  ///< 0 = empty, 1 = root is a leaf.
};

/// \brief Builds a segment-level hot index straight from a `SegmentArena`
/// epoch: items are gathered from the column blocks in row order (fanned
/// out over `ctx` into pre-sized slots, so the item list — and hence the
/// tree — is identical at any thread count), datums are
/// `PackSegmentRef(arena.RefOf(r))`.
std::unique_ptr<MemRTree3D> BuildMemSegmentIndex(
    const traj::SegmentArena& arena, double fill_factor = 0.9,
    exec::ExecContext* ctx = nullptr);

}  // namespace hermes::rtree

#endif  // HERMES_RTREE_MEM_RTREE3D_H_
