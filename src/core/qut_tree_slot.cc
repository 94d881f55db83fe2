#include "core/qut_tree_slot.h"

#include <utility>

namespace hermes::core {

namespace {

/// Deletes every file directly under `dir` (a tree keeps its catalog,
/// partitions and indexes flat in its directory). Best effort: a file
/// that will not go only leaks space.
void DeleteTreeFiles(storage::Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    (void)env->DeleteFile(dir + "/" + name);
  }
}

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

bool QutTreeSlot::Fresh(const std::vector<double>& tree_params,
                        size_t num_trajectories) const {
  return tree_ != nullptr && params_ == tree_params &&
         consumed_ == num_trajectories;
}

StatusOr<QutTreeWork> QutTreeSlot::Refresh(
    const std::vector<double>& tree_params, const traj::TrajectoryStore& store,
    exec::ExecContext* exec, size_t hot_budget, exec::ExecStats* archive) {
  if (tree_params.size() != 5) {
    return Status::InvalidArgument(
        "QUT tree params must be (tau, delta, t, d, gamma), got " +
        std::to_string(tree_params.size()) + " value(s)");
  }
  bool rebuilt = false;
  if (tree_ == nullptr || params_ != tree_params) {
    Drop();
    dir_ = dir_prefix_ + std::to_string(seq_++);
    // A crashed process may have left files under this name.
    DeleteTreeFiles(env_, dir_);
    // Opened without a context: each insert names its own, so a session
    // may change its parallelism without retiring the tree.
    auto tree =
        ReTraTree::Open(env_, dir_, MakeQutTreeParams(tree_params), nullptr);
    if (!tree.ok()) {
      Drop();
      return tree.status();
    }
    tree_ = std::move(tree).value();
    params_ = tree_params;
    rebuilt = true;
  }
  HERMES_ASSIGN_OR_RETURN(QutTreeWork work, CatchUp(store, exec, archive));
  // Applied on every refresh, not just at build time, so lowering the
  // budget (to 0: cold only) takes effect on a live tree.
  tree_->SetHotIndexBudget(hot_budget);
  return rebuilt ? QutTreeWork::kRebuilt : work;
}

StatusOr<QutTreeWork> QutTreeSlot::CatchUp(const traj::TrajectoryStore& store,
                                           exec::ExecContext* exec,
                                           exec::ExecStats* archive) {
  const size_t n = store.NumTrajectories();
  if (tree_ == nullptr || consumed_ >= n) return QutTreeWork::kNone;
  const ReTraTreeStats before = tree_->stats();
  // A one-sample trajectory forms no segment, so the tree leaves it out
  // (the tree rejects it); each run between such points goes in as one
  // batch, which equals the sequential loop over the rest.
  for (size_t first = consumed_; first < n;) {
    size_t end = first;
    while (end < n && store.Get(end).size() >= 2) ++end;
    if (end > first) {
      Status st = tree_->InsertBatch(store, exec, first, end - first);
      if (!st.ok()) {
        Drop();
        return st;
      }
    }
    first = end + 1;
  }
  consumed_ = n;
  if (exec == nullptr && archive != nullptr) {
    ArchiveTreeWork(before, tree_->stats(), archive);
  }
  return QutTreeWork::kCaughtUp;
}

void QutTreeSlot::Drop() {
  // Close every partition and index before their files go.
  tree_.reset();
  if (!dir_.empty()) DeleteTreeFiles(env_, dir_);
  dir_.clear();
  params_.clear();
  consumed_ = 0;
}

}  // namespace hermes::core
