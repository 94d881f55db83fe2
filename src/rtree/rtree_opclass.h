#ifndef HERMES_RTREE_RTREE_OPCLASS_H_
#define HERMES_RTREE_RTREE_OPCLASS_H_

#include <string>

#include "geom/mbb.h"
#include "gist/gist.h"

namespace hermes::rtree {

/// Search predicates supported by the pg3D-Rtree operator class.
enum class QueryMode : uint8_t {
  kIntersects = 0,   ///< Leaf key intersects the query box.
  kContainedBy = 1,  ///< Leaf key lies inside the query box.
  kContains = 2,     ///< Leaf key contains the query box.
};

/// \brief On-the-wire query for `GistOpClass::Consistent`: a 3D box plus a
/// predicate byte.
struct RTreeQuery {
  geom::Mbb3D box;
  QueryMode mode = QueryMode::kIntersects;
};

/// Serializes an Mbb3D into the fixed 48-byte GiST key representation.
std::string EncodeKey(const geom::Mbb3D& box);
/// Writes the 48-byte key into `out` (no allocation).
void EncodeKeyTo(const geom::Mbb3D& box, char* out);
/// Reads a key back into an Mbb3D.
geom::Mbb3D DecodeKey(const void* key);

/// \brief The pg3D-Rtree operator class: Guttman's R-tree mapped onto the
/// six GiST extension points over 3D (x, y, t) boxes. Quadratic PickSplit,
/// volume-enlargement penalty with volume tie-break.
///
/// This mirrors the paper's "pg3D-Rtree ... implemented from scratch on top
/// of GiST", independent of any PostGIS-like geometry stack.
class RTreeOpClass : public gist::GistOpClass {
 public:
  size_t KeySize() const override { return 6 * sizeof(double); }

  bool Consistent(const void* key, const void* query,
                  bool is_leaf) const override;
  void UnionInPlace(void* dst, const void* src) const override;
  double Penalty(const void* existing, const void* incoming) const override;
  void PickSplit(const std::vector<const void*>& keys,
                 std::vector<bool>* to_right) const override;
  bool Covers(const void* parent, const void* child) const override;

  /// Process-wide instance (stateless).
  static const RTreeOpClass* Instance();
};

}  // namespace hermes::rtree

#endif  // HERMES_RTREE_RTREE_OPCLASS_H_
