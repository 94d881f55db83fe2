#include "storage/partition_manager.h"

#include <algorithm>
#include <set>

namespace hermes::storage {

namespace {
constexpr char kSuffix[] = ".part";
}

PartitionManager::PartitionManager(Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

StatusOr<std::unique_ptr<PartitionManager>> PartitionManager::Open(
    Env* env, const std::string& dir) {
  HERMES_RETURN_NOT_OK(env->CreateDirs(dir));
  return std::unique_ptr<PartitionManager>(new PartitionManager(env, dir));
}

std::string PartitionManager::FileName(const std::string& name) const {
  return dir_ + "/" + name + kSuffix;
}

std::unordered_map<std::string, PartitionManager::Entry>::iterator
PartitionManager::Settled(common::MutexLock* lock, const std::string& name) {
  auto it = open_.find(name);
  while (it != open_.end() && it->second.busy) {
    lock->Wait(settled_);
    it = open_.find(name);
  }
  return it;
}

StatusOr<HeapFile*> PartitionManager::GetOrCreate(const std::string& name) {
  {
    common::MutexLock lock(&mu_);
    auto it = Settled(&lock, name);
    if (it != open_.end()) return it->second.file.get();
    open_[name].busy = true;
  }
  StatusOr<std::unique_ptr<HeapFile>> hf = HeapFile::Open(env_, FileName(name));
  common::MutexLock lock(&mu_);
  settled_.notify_all();
  if (!hf.ok()) {
    open_.erase(name);
    return hf.status();
  }
  Entry& entry = open_[name];
  entry.file = std::move(hf).value();
  entry.busy = false;
  return entry.file.get();
}

bool PartitionManager::Exists(const std::string& name) const {
  {
    common::MutexLock lock(&mu_);
    if (open_.count(name) > 0) return true;
  }
  return env_->FileExists(FileName(name));
}

Status PartitionManager::Drop(const std::string& name) {
  std::unique_ptr<HeapFile> closing;
  {
    common::MutexLock lock(&mu_);
    auto it = Settled(&lock, name);
    if (it == open_.end()) it = open_.emplace(name, Entry{}).first;
    closing = std::move(it->second.file);
    it->second.busy = true;
  }
  Status st;
  if (closing != nullptr) {
    closing.reset();  // Discards its pages unwritten; the file goes next.
    st = env_->DeleteFile(FileName(name));
  } else if (!env_->FileExists(FileName(name))) {
    st = Status::NotFound("no partition " + name);
  } else {
    st = env_->DeleteFile(FileName(name));
  }
  common::MutexLock lock(&mu_);
  open_.erase(name);
  settled_.notify_all();
  return st;
}

std::vector<std::string> PartitionManager::List() const {
  std::set<std::string> names;
  {
    common::MutexLock lock(&mu_);
    // HERMES-LINT-ALLOW(unordered-iteration): names land in a std::set,
    // which sorts them regardless of visit order. A busy entry is listed
    // by what is on disk.
    for (const auto& [name, entry] : open_) {
      if (!entry.busy) names.insert(name);
    }
  }
  auto on_disk = env_->ListDir(dir_);
  if (on_disk.ok()) {
    for (const auto& fname : *on_disk) {
      const size_t suffix_len = sizeof(kSuffix) - 1;
      if (fname.size() > suffix_len &&
          fname.compare(fname.size() - suffix_len, suffix_len, kSuffix) == 0) {
        names.insert(fname.substr(0, fname.size() - suffix_len));
      }
    }
  }
  return std::vector<std::string>(names.begin(), names.end());
}

void PartitionManager::ForEachOpen(
    const std::function<void(const std::string&, HeapFile*)>& fn) const {
  common::MutexLock lock(&mu_);
  std::vector<std::pair<std::string, HeapFile*>> handles;
  handles.reserve(open_.size());
  // HERMES-LINT-ALLOW(unordered-iteration): the collected handles are
  // sorted by name below before the visitor sees them.
  for (const auto& [name, entry] : open_) {
    if (!entry.busy) handles.emplace_back(name, entry.file.get());
  }
  std::sort(handles.begin(), handles.end());
  for (const auto& [name, hf] : handles) fn(name, hf);
}

Status PartitionManager::FlushAll() {
  std::vector<HeapFile*> handles;
  {
    common::MutexLock lock(&mu_);
    // HERMES-LINT-ALLOW(unordered-iteration): each partition flushes to
    // its own file; flush order cannot affect any file's contents.
    for (const auto& [name, entry] : open_) {
      if (!entry.busy) handles.push_back(entry.file.get());
    }
  }
  for (HeapFile* hf : handles) HERMES_RETURN_NOT_OK(hf->Flush());
  return Status::OK();
}

}  // namespace hermes::storage
