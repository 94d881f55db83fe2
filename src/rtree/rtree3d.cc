#include "rtree/rtree3d.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "exec/parallel_for.h"
#include "exec/parallel_sort.h"

namespace hermes::rtree {

StatusOr<std::unique_ptr<RTree3D>> RTree3D::Open(storage::Env* env,
                                                 const std::string& fname,
                                                 size_t cache_pages) {
  HERMES_ASSIGN_OR_RETURN(
      std::unique_ptr<gist::Gist> tree,
      gist::Gist::Open(env, fname, RTreeOpClass::Instance(), cache_pages));
  return std::unique_ptr<RTree3D>(new RTree3D(std::move(tree)));
}

Status RTree3D::Insert(const geom::Mbb3D& box, uint64_t datum) {
  char key[48];
  EncodeKeyTo(box, key);
  return gist_->Insert(key, datum);
}

Status RTree3D::Remove(const geom::Mbb3D& box, uint64_t datum) {
  char key[48];
  EncodeKeyTo(box, key);
  return gist_->Delete(key, datum);
}

StatusOr<std::vector<uint64_t>> RTree3D::Search(const geom::Mbb3D& box,
                                                QueryMode mode) const {
  std::vector<uint64_t> out;
  HERMES_RETURN_NOT_OK(SearchInto(box, mode, &out));
  return out;
}

Status RTree3D::SearchInto(const geom::Mbb3D& box, QueryMode mode,
                           std::vector<uint64_t>* out) const {
  out->clear();
  RTreeQuery query{box, mode};
  return gist_->Search(&query, [out](const void*, uint64_t d) {
    out->push_back(d);
    return true;
  });
}

StatusOr<std::vector<RTreeHit>> RTree3D::SearchHits(const geom::Mbb3D& box,
                                                    QueryMode mode) const {
  std::vector<RTreeHit> out;
  RTreeQuery query{box, mode};
  HERMES_RETURN_NOT_OK(
      gist_->Search(&query, [&](const void* key, uint64_t d) {
        out.push_back({DecodeKey(key), d});
        return true;
      }));
  return out;
}

namespace {
/// Squared MINDIST from a (scaled) point to a (scaled) box.
double MinDistSq(const geom::Point3D& p, const geom::Mbb3D& b,
                 double time_scale) {
  auto axis = [](double v, double lo, double hi) {
    if (v < lo) return lo - v;
    if (v > hi) return v - hi;
    return 0.0;
  };
  const double dx = axis(p.x, b.min_x, b.max_x);
  const double dy = axis(p.y, b.min_y, b.max_y);
  const double dt = axis(p.t, b.min_t, b.max_t) * time_scale;
  return dx * dx + dy * dy + dt * dt;
}
}  // namespace

StatusOr<std::vector<RTreeHit>> RTree3D::Knn(const geom::Point3D& p, size_t k,
                                             double time_scale) const {
  std::vector<RTreeHit> out;
  if (k == 0 || gist_->empty()) return out;

  struct QueueItem {
    double dist;
    bool is_entry;  // True: a leaf entry; false: a node to expand.
    storage::PageId page;
    RTreeHit hit;
  };
  auto cmp = [](const QueueItem& a, const QueueItem& b) {
    return a.dist > b.dist;
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> pq(cmp);
  pq.push({0.0, false, gist_->root(), {}});

  while (!pq.empty() && out.size() < k) {
    QueueItem item = pq.top();
    pq.pop();
    if (item.is_entry) {
      out.push_back(item.hit);
      continue;
    }
    HERMES_ASSIGN_OR_RETURN(gist::Gist::NodeSnapshot node,
                            gist_->ReadNode(item.page));
    for (size_t i = 0; i < node.keys.size(); ++i) {
      const geom::Mbb3D box = DecodeKey(node.keys[i].data());
      const double d = MinDistSq(p, box, time_scale);
      if (node.is_leaf) {
        pq.push({d, true, 0, {box, node.datums[i]}});
      } else {
        pq.push({d, false,
                 static_cast<storage::PageId>(node.datums[i]),
                 {}});
      }
    }
  }
  return out;
}

Status RTree3D::BulkLoad(
    const std::vector<std::pair<geom::Mbb3D, uint64_t>>& items,
    double fill_factor) {
  std::vector<std::pair<std::string, uint64_t>> encoded;
  encoded.reserve(items.size());
  for (const auto& [box, datum] : items) {
    encoded.emplace_back(EncodeKey(box), datum);
  }
  return gist_->BulkLoad(encoded, fill_factor);
}

std::vector<std::pair<geom::Mbb3D, uint64_t>> StrOrder(
    std::vector<std::pair<geom::Mbb3D, uint64_t>> items, size_t leaf_capacity,
    exec::ExecContext* ctx) {
  if (items.size() <= leaf_capacity || leaf_capacity == 0) return items;
  const double n = static_cast<double>(items.size());
  const double leaves = std::ceil(n / static_cast<double>(leaf_capacity));
  // Tile counts: split x into s slabs, each slab into s2 runs of y, sorted
  // by t within — the 3D STR generalization.
  const size_t s1 = static_cast<size_t>(std::ceil(std::cbrt(leaves)));
  const size_t s2 = s1;

  // The phases sort compact records on a key precomputed from each box's
  // center, then permute the items once. Comparisons tie-break on the
  // datum so the order (and hence the tree layout) is a pure function of
  // the item set, independent of the sort algorithm and thread count.
  struct Keyed {
    double key;
    uint64_t datum;
    size_t index;
  };
  auto by_key = [](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.datum < b.datum;
  };
  constexpr size_t kGrain = 4096;
  std::vector<geom::Point3D> centers(items.size());
  std::vector<Keyed> recs(items.size());
  exec::ParallelFor(ctx, items.size(), kGrain,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (size_t i = begin; i < end; ++i) {
      centers[i] = items[i].first.Center();
      recs[i] = {centers[i].x, items[i].second, i};
    }
  });
  exec::ParallelSort(ctx, recs.begin(), recs.end(), by_key);
  const size_t slab =
      (recs.size() + s1 - 1) / s1;  // Items per x-slab (ceil).
  const size_t num_slabs = (recs.size() + slab - 1) / slab;
  // Slabs are disjoint ranges; sorting them is embarrassingly parallel.
  exec::ParallelFor(ctx, num_slabs, /*grain=*/1,
                    [&](size_t sbegin, size_t send, size_t /*chunk*/) {
    for (size_t s = sbegin; s < send; ++s) {
      const size_t i = s * slab;
      const size_t end = std::min(i + slab, recs.size());
      for (size_t r = i; r < end; ++r) recs[r].key = centers[recs[r].index].y;
      std::sort(recs.begin() + i, recs.begin() + end, by_key);
      for (size_t r = i; r < end; ++r) recs[r].key = centers[recs[r].index].t;
      const size_t run = (end - i + s2 - 1) / s2;
      for (size_t j = i; j < end; j += run) {
        const size_t rend = std::min(j + run, end);
        std::sort(recs.begin() + j, recs.begin() + rend, by_key);
      }
    }
  });
  std::vector<std::pair<geom::Mbb3D, uint64_t>> ordered(items.size());
  exec::ParallelFor(ctx, recs.size(), kGrain,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (size_t r = begin; r < end; ++r) ordered[r] = items[recs[r].index];
  });
  return ordered;
}

}  // namespace hermes::rtree
