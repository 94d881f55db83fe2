#ifndef HERMES_COMMON_MUTEX_H_
#define HERMES_COMMON_MUTEX_H_

#include <pthread.h>

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace hermes::common {

/// \brief `std::mutex` carrying the Clang `capability` attribute, so
/// fields can be `GUARDED_BY` it and helpers can `REQUIRES` it.
///
/// libstdc++'s `std::mutex` has no capability attribute — annotating it
/// directly is a hard `-Wthread-safety-attributes` error — hence this
/// wrapper. It adds no state and no behavior; `native()` exposes the
/// underlying mutex for `std::condition_variable` (prefer
/// `MutexLock::Wait`, which keeps the capability bookkeeping in one
/// place).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// \brief A writer-preferring reader/writer lock as a capability:
/// exclusive for writers, shared for readers. `GUARDED_BY(mu)` fields may
/// be *read* under either mode and written only under exclusive — exactly
/// the reader/writer contract of the storage and service layers.
///
/// A `pthread_rwlock_t` of kind `PREFER_WRITER_NONRECURSIVE`: once a
/// writer waits, new readers queue behind it, so overlapping QUT readers
/// cannot hold off the ingest worker's tree catch-up — its exclusive
/// hold of the ReTraTree's node map and of each sub-chunk its batch
/// touches — nor a rebuild or drop of the whole tree (glibc's default,
/// behind `std::shared_mutex`, prefers readers). So a thread must never
/// take the same lock shared twice: the second `lock_shared` would queue
/// behind a writer that waits for the first.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex() { pthread_rwlock_destroy(&mu_); }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { pthread_rwlock_wrlock(&mu_); }
  void unlock() RELEASE() { pthread_rwlock_unlock(&mu_); }
  bool try_lock() TRY_ACQUIRE(true) { return !pthread_rwlock_trywrlock(&mu_); }

  void lock_shared() ACQUIRE_SHARED() { pthread_rwlock_rdlock(&mu_); }
  void unlock_shared() RELEASE_SHARED() { pthread_rwlock_unlock(&mu_); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return !pthread_rwlock_tryrdlock(&mu_);
  }

  /// Tell the analysis the caller holds this lock (exclusive / at least
  /// shared) where it cannot see the acquisition: a lock set of runtime
  /// size, taken and released by one owner, such as the sub-chunks a
  /// ReTraTree batch or QUT view holds. They check nothing at run time.
  void AssertHeld() ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() ASSERT_SHARED_CAPABILITY(this) {}

 private:
  pthread_rwlock_t mu_ = PTHREAD_RWLOCK_WRITER_NONRECURSIVE_INITIALIZER_NP;
};

/// \brief RAII exclusive guard over `Mutex` (the annotated
/// `std::lock_guard`). Holds a real `std::unique_lock` internally so
/// condition-variable waits go through `Wait` without giving up the
/// scoped-capability bookkeeping.
///
/// Write cv wait loops as explicit `while (!predicate) lock.Wait(cv);` —
/// a predicate lambda would be analyzed as a separate function that holds
/// nothing, and every guarded field it reads would (falsely) warn.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : lock_(mu->native()) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Atomically releases the mutex and blocks until notified; the mutex
  /// is re-held on return. (The analysis models the capability as held
  /// across the wait, which is sound for callers: they can only observe
  /// the re-acquired state.)
  void Wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  // The capability itself lives in the ACQUIRE/RELEASE annotations; only
  // the underlying std::unique_lock is needed for cv waits + unlock.
  std::unique_lock<std::mutex> lock_;
};

/// \brief RAII exclusive (writer) guard over `SharedMutex`.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// \brief RAII shared (reader) guard over `SharedMutex`.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->lock_shared();
  }
  ~ReaderMutexLock() RELEASE() { mu_->unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace hermes::common

#endif  // HERMES_COMMON_MUTEX_H_
