#include "rtree/rtree_opclass.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace hermes::rtree {

std::string EncodeKey(const geom::Mbb3D& box) {
  std::string out(6 * sizeof(double), '\0');
  EncodeKeyTo(box, out.data());
  return out;
}

void EncodeKeyTo(const geom::Mbb3D& box, char* out) {
  double vals[6] = {box.min_x, box.min_y, box.min_t,
                    box.max_x, box.max_y, box.max_t};
  std::memcpy(out, vals, sizeof(vals));
}

geom::Mbb3D DecodeKey(const void* key) {
  double vals[6];
  std::memcpy(vals, key, sizeof(vals));
  return geom::Mbb3D(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]);
}

bool RTreeOpClass::Consistent(const void* key, const void* query,
                              bool is_leaf) const {
  const auto* q = static_cast<const RTreeQuery*>(query);
  const geom::Mbb3D box = DecodeKey(key);
  if (!is_leaf) {
    // Internal keys may only prune: every predicate needs intersection —
    // except kContains, which needs the subtree box to cover the query.
    if (q->mode == QueryMode::kContains) return box.Contains(q->box);
    return box.Intersects(q->box);
  }
  switch (q->mode) {
    case QueryMode::kIntersects:
      return box.Intersects(q->box);
    case QueryMode::kContainedBy:
      return q->box.Contains(box);
    case QueryMode::kContains:
      return box.Contains(q->box);
  }
  return false;
}

void RTreeOpClass::UnionInPlace(void* dst, const void* src) const {
  geom::Mbb3D a = DecodeKey(dst);
  a.Extend(DecodeKey(src));
  EncodeKeyTo(a, static_cast<char*>(dst));
}

double RTreeOpClass::Penalty(const void* existing, const void* incoming) const {
  const geom::Mbb3D e = DecodeKey(existing);
  const geom::Mbb3D in = DecodeKey(incoming);
  const double enlargement = e.UnionVolume(in) - e.Volume();
  // Tie-break on the resulting volume so equal enlargements prefer the
  // smaller box (Guttman's ChooseLeaf refinement).
  return enlargement * 1e6 + e.Volume() * 1e-6;
}

void RTreeOpClass::PickSplit(const std::vector<const void*>& keys,
                             std::vector<bool>* to_right) const {
  const size_t n = keys.size();
  to_right->assign(n, false);
  if (n < 2) return;

  std::vector<geom::Mbb3D> boxes;
  boxes.reserve(n);
  for (const void* k : keys) boxes.push_back(DecodeKey(k));

  // Quadratic PickSeeds: the pair wasting the most volume.
  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double waste =
          boxes[i].UnionVolume(boxes[j]) - boxes[i].Volume() -
          boxes[j].Volume();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  geom::Mbb3D left = boxes[seed_a];
  geom::Mbb3D right = boxes[seed_b];
  (*to_right)[seed_a] = false;
  (*to_right)[seed_b] = true;
  size_t left_count = 1, right_count = 1;
  const size_t min_fill = std::max<size_t>(1, n * 2 / 5);  // 40% min fill.

  std::vector<bool> assigned(n, false);
  assigned[seed_a] = assigned[seed_b] = true;

  for (size_t step = 2; step < n; ++step) {
    // If one side must take everything left to reach min fill, do so.
    const size_t remaining = n - step;
    if (left_count + remaining <= min_fill) {
      for (size_t i = 0; i < n; ++i) {
        if (!assigned[i]) {
          assigned[i] = true;
          (*to_right)[i] = false;
          ++left_count;
        }
      }
      break;
    }
    if (right_count + remaining <= min_fill) {
      for (size_t i = 0; i < n; ++i) {
        if (!assigned[i]) {
          assigned[i] = true;
          (*to_right)[i] = true;
          ++right_count;
        }
      }
      break;
    }

    // PickNext: the entry with the greatest preference for one side.
    size_t best = n;
    double best_diff = -1.0;
    double best_dl = 0.0, best_dr = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (assigned[i]) continue;
      const double dl = left.UnionVolume(boxes[i]) - left.Volume();
      const double dr = right.UnionVolume(boxes[i]) - right.Volume();
      const double diff = std::fabs(dl - dr);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
        best_dl = dl;
        best_dr = dr;
      }
    }
    assigned[best] = true;
    bool go_right;
    if (best_dl < best_dr) {
      go_right = false;
    } else if (best_dr < best_dl) {
      go_right = true;
    } else {
      go_right = right.Volume() < left.Volume();
    }
    (*to_right)[best] = go_right;
    if (go_right) {
      right.Extend(boxes[best]);
      ++right_count;
    } else {
      left.Extend(boxes[best]);
      ++left_count;
    }
  }
}

bool RTreeOpClass::Covers(const void* parent, const void* child) const {
  return DecodeKey(parent).Contains(DecodeKey(child));
}

const RTreeOpClass* RTreeOpClass::Instance() {
  static const RTreeOpClass* instance = new RTreeOpClass();
  return instance;
}

}  // namespace hermes::rtree
