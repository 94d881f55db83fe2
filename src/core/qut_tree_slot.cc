#include "core/qut_tree_slot.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

namespace hermes::core {

void DeleteTreeFiles(storage::Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    (void)env->DeleteFile(dir + "/" + name);
  }
}

namespace {

/// Records the tree work between two stats snapshots into `archive`.
void ArchiveTreeWork(const ReTraTreeStats& before, const ReTraTreeStats& after,
                     exec::ExecStats* archive) {
  S2TTimings s2t = after.s2t_timings;
  s2t -= before.s2t_timings;
  s2t.ExportTo(archive);
  archive->RecordPhaseUs("ingest_split",
                         after.ingest_split_us - before.ingest_split_us);
  archive->RecordPhaseUs("ingest_apply",
                         after.ingest_apply_us - before.ingest_apply_us);
}

/// Rejects `(tau, delta, t, d, gamma)` outside the tree's domains before
/// any tree is built: `tau`, `delta` and `d` finite and > 0, `t` finite
/// and >= 0, `gamma` finite and in [0, 2^32) (a fractional `gamma` is
/// truncated by `MakeQutTreeParams`).
Status CheckTreeParams(const std::vector<double>& p) {
  if (p.size() != 5) {
    return Status::InvalidArgument(
        "QUT tree params must be (tau, delta, t, d, gamma), got " +
        std::to_string(p.size()) + " value(s)");
  }
  auto reject = [](const char* name, const char* domain, double v) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", v);
    return Status::InvalidArgument(std::string("QUT ") + name + " must be " +
                                   domain + ", got " + got);
  };
  auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!positive(p[0])) return reject("tau", "finite and > 0", p[0]);
  if (!positive(p[1])) return reject("delta", "finite and > 0", p[1]);
  if (!(std::isfinite(p[2]) && p[2] >= 0.0)) {
    return reject("t", "finite and >= 0", p[2]);
  }
  if (!positive(p[3])) return reject("d", "finite and > 0", p[3]);
  if (!(p[4] >= 0.0 && p[4] < 4294967296.0)) {
    return reject("gamma", "finite and in [0, 2^32)", p[4]);
  }
  return Status::OK();
}

}  // namespace

ReTraTreeParams MakeQutTreeParams(const std::vector<double>& tree_params) {
  ReTraTreeParams params;
  params.tau = tree_params[0];
  params.delta = tree_params[1];
  params.t_align = tree_params[2];
  params.d_assign = tree_params[3];
  params.gamma = static_cast<size_t>(tree_params[4]);
  params.s2t.SetSigma(params.d_assign).SetEpsilon(params.d_assign);
  return params;
}

QutTreeSlot::QutTreeSlot(storage::Env* env, std::string dir_prefix)
    : env_(env), dir_prefix_(std::move(dir_prefix)) {}

QutTreeSlot::~QutTreeSlot() { Drop(); }

StatusOr<QuTResult> QutTreeSlot::Query(const std::vector<double>& tree_params,
                                       const traj::TrajectoryStore& store,
                                       exec::ExecContext* exec,
                                       size_t hot_budget, double wi, double we,
                                       exec::ExecStats* archive,
                                       QutTreeWork* work) {
  if (work != nullptr) *work = QutTreeWork::kNone;
  HERMES_RETURN_NOT_OK(CheckQutWindow(wi, we));
  {
    common::ReaderMutexLock rlock(&mu_);
    if (FreshLocked(tree_params, store.NumTrajectories()) &&
        tree_->hot_index_budget() == hot_budget) {
      StatusOr<QuTResult> result = QuTClustering(tree_.get()).Query(wi, we);
      // A catch-up that failed on this window's sub-chunks left the tree
      // failed; the refresh below rebuilds it.
      if (result.ok() || !tree_->failed()) return result;
    }
  }
  // Answered before the lock goes, or readers with different parameters
  // could rebuild the tree under each other forever.
  common::WriterMutexLock wlock(&mu_);
  HERMES_ASSIGN_OR_RETURN(
      QutTreeWork done,
      RefreshLocked(tree_params, store, exec, hot_budget, archive));
  if (work != nullptr) *work = done;
  return QuTClustering(tree_.get()).Query(wi, we);
}

bool QutTreeSlot::Fresh(const std::vector<double>& tree_params,
                        size_t num_trajectories) const {
  common::ReaderMutexLock rlock(&mu_);
  return FreshLocked(tree_params, num_trajectories);
}

bool QutTreeSlot::FreshLocked(const std::vector<double>& tree_params,
                              size_t num_trajectories) const {
  return tree_ != nullptr && !tree_->failed() && params_ == tree_params &&
         consumed_.load(std::memory_order_acquire) >= num_trajectories;
}

StatusOr<QutTreeWork> QutTreeSlot::Refresh(
    const std::vector<double>& tree_params, const traj::TrajectoryStore& store,
    exec::ExecContext* exec, size_t hot_budget, exec::ExecStats* archive) {
  common::WriterMutexLock wlock(&mu_);
  return RefreshLocked(tree_params, store, exec, hot_budget, archive);
}

StatusOr<QutTreeWork> QutTreeSlot::RefreshLocked(
    const std::vector<double>& tree_params, const traj::TrajectoryStore& store,
    exec::ExecContext* exec, size_t hot_budget, exec::ExecStats* archive) {
  HERMES_RETURN_NOT_OK(CheckTreeParams(tree_params));
  bool rebuilt = false;
  if (tree_ == nullptr || params_ != tree_params || tree_->failed()) {
    DropLocked();
    dir_ = dir_prefix_ + std::to_string(seq_++);
    // A crashed process may have left files under this name.
    DeleteTreeFiles(env_, dir_);
    // Opened without a context: each insert names its own, so a session
    // may change its parallelism without retiring the tree.
    auto tree =
        ReTraTree::Open(env_, dir_, MakeQutTreeParams(tree_params), nullptr);
    if (!tree.ok()) {
      DropLocked();
      return tree.status();
    }
    tree_ = std::move(tree).value();
    params_ = tree_params;
    rebuilt = true;
  }
  StatusOr<QutTreeWork> work = QutTreeWork::kNone;
  {
    // Uncontended: catch-ups hold mu_ shared, which this exclusive hold
    // keeps out.
    common::MutexLock catchup(&catchup_mu_);
    work = CatchUpLocked(store, exec, archive);
  }
  if (!work.ok()) {
    DropLocked();
    return work.status();
  }
  // Applied on every refresh, not just at build time, so lowering the
  // budget (to 0: cold only) takes effect on a live tree.
  tree_->SetHotIndexBudget(hot_budget);
  return rebuilt ? QutTreeWork::kRebuilt : *work;
}

StatusOr<QutTreeWork> QutTreeSlot::CatchUp(const traj::TrajectoryStore& store,
                                           exec::ExecContext* exec,
                                           exec::ExecStats* archive) {
  uint64_t generation = 0;
  Status failure;
  {
    // Shared: QUTs keep answering from the tree, each waiting only for
    // the sub-chunks its window shares with the batch.
    common::ReaderMutexLock rlock(&mu_);
    common::MutexLock catchup(&catchup_mu_);
    StatusOr<QutTreeWork> work = CatchUpLocked(store, exec, archive);
    if (work.ok()) return work;
    failure = work.status();
    generation = seq_;
  }
  // Any failure drops the tree, unless a QUT already replaced it.
  common::WriterMutexLock wlock(&mu_);
  if (tree_ != nullptr && seq_ == generation) DropLocked();
  return failure;
}

StatusOr<QutTreeWork> QutTreeSlot::CatchUpLocked(
    const traj::TrajectoryStore& store, exec::ExecContext* exec,
    exec::ExecStats* archive) {
  const size_t n = store.NumTrajectories();
  const size_t consumed = consumed_.load(std::memory_order_relaxed);
  if (tree_ == nullptr || consumed >= n) return QutTreeWork::kNone;
  const ReTraTreeStats before = tree_->stats();
  // A one-sample trajectory forms no segment, so the tree leaves it out
  // (the tree rejects it); each run between such points goes in as one
  // batch, which equals the sequential loop over the rest.
  for (size_t first = consumed; first < n;) {
    size_t end = first;
    while (end < n && store.Get(end).size() >= 2) ++end;
    if (end > first) {
      HERMES_RETURN_NOT_OK(tree_->InsertBatch(store, exec, first, end - first));
    }
    first = end + 1;
  }
  consumed_.store(n, std::memory_order_release);
  if (exec == nullptr && archive != nullptr) {
    ArchiveTreeWork(before, tree_->stats(), archive);
  }
  return QutTreeWork::kCaughtUp;
}

void QutTreeSlot::Drop() {
  common::WriterMutexLock wlock(&mu_);
  DropLocked();
}

void QutTreeSlot::DropLocked() {
  // Close every partition before its file goes.
  tree_.reset();
  if (!dir_.empty()) DeleteTreeFiles(env_, dir_);
  dir_.clear();
  params_.clear();
  consumed_.store(0, std::memory_order_relaxed);
}

HotTierStats QutTreeSlot::hot_stats() const {
  common::ReaderMutexLock rlock(&mu_);
  if (tree_ == nullptr) return HotTierStats{};
  HotTierStats s = tree_->hot_stats();
  s.cold_resident_bytes =
      tree_->cold_io_stats().resident_pages * storage::kPageSize;
  return s;
}

ReTraTree* QutTreeSlot::tree() const {
  common::ReaderMutexLock rlock(&mu_);
  return tree_.get();
}

}  // namespace hermes::core
