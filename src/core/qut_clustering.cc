#include "core/qut_clustering.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "traj/distance.h"

namespace hermes::core {

namespace {
int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Union-find over cluster pieces for stitching.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// One cluster piece gathered from a sub-chunk before stitching.
struct Piece {
  int64_t sub_chunk = 0;
  /// The stored representative of a fully covered sub-chunk, read in
  /// place; null when `trimmed` holds the boundary-trimmed one.
  const traj::SubTrajectory* stored = nullptr;
  traj::SubTrajectory trimmed;
  traj::SubTrajectoryRefs members;
  MemberSpan span;  ///< Of `members`.

  const traj::SubTrajectory& representative() const {
    return stored != nullptr ? *stored : trimmed;
  }
};
}  // namespace

size_t QuTResult::TotalMembers() const {
  size_t n = 0;
  for (const auto& c : clusters) n += c.members.size();
  return n;
}

Status CheckQutWindow(double wi, double we) {
  if (wi < we) return Status::OK();
  return Status::InvalidArgument(std::isnan(wi) || std::isnan(we)
                                     ? "non-numeric window bound"
                                     : "empty window");
}

StatusOr<QuTResult> QuTClustering::Query(double wi, double we,
                                         const QuTParams& params) const {
  HERMES_RETURN_NOT_OK(CheckQutWindow(wi, we));
  const int64_t t_start = NowUs();

  const ReTraTreeParams& tp = tree_->params();
  const double stitch_d =
      params.stitch_distance > 0.0 ? params.stitch_distance : tp.d_assign;
  const double stitch_gap = params.stitch_time_gap >= 0.0
                                ? params.stitch_time_gap
                                : tp.delta * 0.01;

  QuTResult result;
  std::vector<Piece> pieces;
  // Window-trimmed members and outliers; a deque, so the result's lists
  // can point at them while more are added.
  std::shared_ptr<std::deque<traj::SubTrajectory>> trimmed_store;
  auto keep = [&](traj::SubTrajectory st) -> const traj::SubTrajectory& {
    if (trimmed_store == nullptr) {
      trimmed_store = std::make_shared<std::deque<traj::SubTrajectory>>();
      result.storage.push_back(trimmed_store);
    }
    trimmed_store->push_back(std::move(st));
    return trimmed_store->back();
  };

  // Held until the answer is built: inside W, every batch is in it
  // wholly or not at all.
  const SubChunkView view = tree_->SubChunksIn(wi, we);
  if (tree_->failed()) {
    return Status::Unavailable(
        "the QUT tree failed part-way through a catch-up; the next QUT "
        "rebuilds it");
  }
  for (const SubChunk* sc : view) {
    sc->mu.AssertReaderHeld();  // By `view`.
    ++result.stats.sub_chunks_visited;
    const bool full = sc->start >= wi && sc->end <= we;
    if (full) {
      ++result.stats.sub_chunks_full;
    } else {
      ++result.stats.sub_chunks_partial;
    }
    const double lo = std::max(wi, sc->start);
    const double hi = std::min(we, sc->end);

    for (const auto& entry : sc->representatives) {
      Piece piece;
      piece.sub_chunk = sc->global_index;
      if (full) {
        // The progressive fast path: stored clusters are the answer,
        // served in place from the storage the read shares.
        piece.stored = &entry->representative;
        HERMES_ASSIGN_OR_RETURN(PartitionRead read,
                                tree_->ReadMembers(*entry));
        result.stats.members_read += read.size();
        if (!read.empty()) result.storage.push_back(std::move(read.storage));
        piece.members = std::move(read.members);
        piece.span = read.span;
      } else {
        // Boundary sub-chunk: trim to W and re-validate membership.
        piece.trimmed = traj::TrimToWindow(entry->representative, lo, hi);
        if (piece.trimmed.points.size() < 2) continue;
        const geom::Mbb3D rep_box = piece.trimmed.Bounds();
        HERMES_ASSIGN_OR_RETURN(PartitionRead read,
                                tree_->ReadMembersInWindow(*entry, lo, hi));
        result.stats.members_read += read.size();
        for (const traj::SubTrajectory& m : read) {
          traj::SubTrajectory trimmed = traj::TrimToWindow(m, lo, hi);
          if (trimmed.points.size() < 2 ||
              trimmed.Duration() < params.min_member_duration) {
            continue;
          }
          ++result.stats.members_rechecked;
          bool integrated = false;
          const bool member = traj::ClusteringDistanceAtMost(
              trimmed.points, trimmed.Bounds(), piece.trimmed.points,
              rep_box, tp.min_overlap_ratio, tp.d_assign, &integrated);
          result.stats.exact_distances += integrated;
          if (member) {
            piece.span.Add(trimmed);
            piece.members.push_back(keep(std::move(trimmed)));
          } else {
            ++result.stats.members_reassigned;
            result.outliers.push_back(keep(std::move(trimmed)));
          }
        }
      }
      if (!piece.members.empty()) pieces.push_back(std::move(piece));
    }

    // Outliers of this sub-chunk, trimmed to the window.
    HERMES_ASSIGN_OR_RETURN(PartitionRead outs, tree_->ReadOutliers(*sc));
    bool shared = false;
    for (const traj::SubTrajectory& o : outs) {
      if (full) {
        if (o.points.size() < 2) continue;
        result.outliers.push_back(o);
        shared = true;
      } else {
        traj::SubTrajectory trimmed = traj::TrimToWindow(o, lo, hi);
        if (trimmed.points.size() < 2) continue;
        result.outliers.push_back(keep(std::move(trimmed)));
      }
    }
    if (shared) result.storage.push_back(std::move(outs.storage));
  }

  // Each piece's representative ends, read once into a compact array.
  struct Ends {
    double start, end;
    geom::Point2D first, last;
  };
  std::vector<Ends> ends;
  ends.reserve(pieces.size());
  for (const Piece& piece : pieces) {
    const traj::Trajectory& rep = piece.representative().points;
    ends.push_back(
        {rep.StartTime(), rep.EndTime(), rep.front().xy(), rep.back().xy()});
  }
  // Stitch cluster pieces of consecutive sub-chunks whose representatives
  // are continuous at the shared boundary. Pieces arrive grouped by
  // sub-chunk in ascending order, so the only partners of sub-chunk s's
  // run are those in the run right after it, when that run is s + 1.
  // Visiting (i, j) in ascending order over those two runs unites the
  // same pairs, in the same order, as scanning all pairs — which keeps
  // the union-find roots, and with them the cluster order, unchanged.
  DisjointSet ds(pieces.size());
  for (size_t run = 0; run < pieces.size();) {
    const int64_t s = pieces[run].sub_chunk;
    size_t next = run;
    while (next < pieces.size() && pieces[next].sub_chunk == s) ++next;
    size_t next_end = next;
    while (next_end < pieces.size() && pieces[next_end].sub_chunk == s + 1) {
      ++next_end;
    }
    for (size_t i = run; i < next; ++i) {
      for (size_t j = next; j < next_end; ++j) {
        // i must end where j starts (adjacent sub-chunks).
        const double tgap = std::fabs(ends[j].start - ends[i].end);
        if (tgap > stitch_gap + 1e-9) continue;
        const double sgap = geom::Distance(ends[i].last, ends[j].first);
        if (sgap > stitch_d) continue;
        ds.Union(i, j);
        ++result.stats.stitches;
      }
    }
    run = next;
  }

  // One cluster per root, in ascending root order, each filled in piece
  // order.
  std::vector<size_t> cluster_of(pieces.size());
  size_t roots = 0;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (ds.Find(i) == i) cluster_of[i] = roots++;
  }
  result.clusters.resize(roots);
  std::vector<MemberSpan> member_spans(roots);
  for (size_t i = 0; i < pieces.size(); ++i) {
    Piece& piece = pieces[i];
    const size_t ci = cluster_of[ds.Find(i)];
    QuTCluster& c = result.clusters[ci];
    member_spans[ci].Add(piece.span);
    if (piece.stored != nullptr) {
      c.representatives.push_back(*piece.stored);
    } else {
      c.representatives.push_back(std::move(piece.trimmed));
    }
    if (c.members.empty()) {
      c.members = std::move(piece.members);
    } else {
      c.members.Append(piece.members);
    }
  }
  for (size_t ci = 0; ci < roots; ++ci) {
    QuTCluster& c = result.clusters[ci];
    std::sort(c.representatives.begin(), c.representatives.end(),
              [](const traj::SubTrajectory& a, const traj::SubTrajectory& b) {
                return a.StartTime() < b.StartTime();
              });
    MemberSpan span;
    for (const auto& r : c.representatives) span.Add(r);
    span.Add(member_spans[ci]);  // The members', folded per piece.
    c.start_time = span.start;
    c.end_time = span.end;
  }
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const QuTCluster& a, const QuTCluster& b) {
              return a.start_time < b.start_time;
            });

  result.stats.elapsed_us = NowUs() - t_start;
  return result;
}

}  // namespace hermes::core
