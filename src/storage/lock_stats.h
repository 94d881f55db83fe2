#ifndef HERMES_STORAGE_LOCK_STATS_H_
#define HERMES_STORAGE_LOCK_STATS_H_

#include <atomic>
#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hermes::storage {

/// \brief Point-in-time lock-contention counters for one reader/writer
/// lock. "Contended" counts acquisitions that could not be satisfied by a
/// try-lock and had to block — the before/after signal for the hot/cold
/// tier work (a warm hot-tier QUT probe must leave these flat).
struct LockStats {
  uint64_t shared_acquisitions = 0;
  uint64_t shared_contended = 0;
  uint64_t exclusive_acquisitions = 0;
  uint64_t exclusive_contended = 0;
};

/// \brief Atomic backing for `LockStats`, bumped on the (possibly shared)
/// lock paths themselves, so counting never needs a lock of its own.
struct LockStatsCounters {
  std::atomic<uint64_t> shared_acquisitions{0};
  std::atomic<uint64_t> shared_contended{0};
  std::atomic<uint64_t> exclusive_acquisitions{0};
  std::atomic<uint64_t> exclusive_contended{0};

  LockStats Snapshot() const {
    LockStats s;
    s.shared_acquisitions = shared_acquisitions.load(std::memory_order_relaxed);
    s.shared_contended = shared_contended.load(std::memory_order_relaxed);
    s.exclusive_acquisitions =
        exclusive_acquisitions.load(std::memory_order_relaxed);
    s.exclusive_contended =
        exclusive_contended.load(std::memory_order_relaxed);
    return s;
  }
};

/// \brief RAII shared guard over an annotated `SharedMutex`, counting the
/// acquisition and whether it had to block. A scoped capability: holding
/// one satisfies `REQUIRES_SHARED(mu)` for the guarded scope.
class SCOPED_CAPABILITY CountedSharedLock {
 public:
  CountedSharedLock(common::SharedMutex& mu, LockStatsCounters* counters)
      ACQUIRE_SHARED(mu)
      : mu_(mu) {
    counters->shared_acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (!mu_.try_lock_shared()) {
      counters->shared_contended.fetch_add(1, std::memory_order_relaxed);
      mu_.lock_shared();
    }
  }
  ~CountedSharedLock() RELEASE() { mu_.unlock_shared(); }

  CountedSharedLock(const CountedSharedLock&) = delete;
  CountedSharedLock& operator=(const CountedSharedLock&) = delete;

 private:
  common::SharedMutex& mu_;
};

/// \brief RAII exclusive guard over an annotated `SharedMutex`, counting
/// the acquisition and whether it blocked.
class SCOPED_CAPABILITY CountedExclusiveLock {
 public:
  CountedExclusiveLock(common::SharedMutex& mu, LockStatsCounters* counters)
      ACQUIRE(mu)
      : mu_(mu) {
    counters->exclusive_acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (!mu_.try_lock()) {
      counters->exclusive_contended.fetch_add(1, std::memory_order_relaxed);
      mu_.lock();
    }
  }
  ~CountedExclusiveLock() RELEASE() { mu_.unlock(); }

  CountedExclusiveLock(const CountedExclusiveLock&) = delete;
  CountedExclusiveLock& operator=(const CountedExclusiveLock&) = delete;

 private:
  common::SharedMutex& mu_;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_LOCK_STATS_H_
