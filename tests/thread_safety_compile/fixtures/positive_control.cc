// Positive control for the thread-safety compile gate: a correctly
// locked class. This translation unit must compile under EVERY
// configuration — GCC (annotations are no-ops) and Clang with
// `-Wthread-safety -Werror` (the analysis finds nothing to flag). If it
// stops compiling, the gate itself is broken and the negative fixtures
// prove nothing.
#include <cstddef>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/retratree.h"

namespace {

class Guarded {
 public:
  void Set(int v) {
    hermes::common::MutexLock lock(&mu_);
    value_ = v;
  }

  int Get() const {
    hermes::common::MutexLock lock(&mu_);
    return value_;
  }

  void AddLocked(int v) REQUIRES(mu_) { value_ += v; }

  void Add(int v) {
    hermes::common::MutexLock lock(&mu_);
    AddLocked(v);
  }

 private:
  mutable hermes::common::Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

class SharedGuarded {
 public:
  void Set(int v) {
    hermes::common::WriterMutexLock lock(&mu_);
    value_ = v;
  }

  int Get() const {
    hermes::common::ReaderMutexLock lock(&mu_);
    return value_;
  }

 private:
  mutable hermes::common::SharedMutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

// The locked twin of unlocked_sub_chunk_read.cc.
size_t CountRepresentatives(const hermes::core::SubChunk& sc) {
  hermes::common::ReaderMutexLock lock(&sc.mu);
  return sc.representatives.size();
}

}  // namespace

int main() {
  Guarded g;
  g.Set(1);
  g.Add(2);
  SharedGuarded s;
  s.Set(3);
  hermes::core::SubChunk sc;
  return g.Get() + s.Get() == 6 && CountRepresentatives(sc) == 0 ? 0 : 1;
}
