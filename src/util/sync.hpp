// Annotated mutex wrappers for Clang Thread Safety Analysis.
//
// std::mutex and std::shared_mutex carry no capability attributes, so
// -Wthread-safety cannot track std::lock_guard / std::shared_lock holds.
// These zero-cost wrappers delegate 1:1 to the standard types and add the
// annotations; all guarded state in the codebase names one of these types in
// its GUARDED_BY. Waiting is done with std::condition_variable_any, which
// accepts util::Mutex directly as a BasicLockable — the release/reacquire
// inside wait() happens in a system header, where the analysis is silent,
// and the capability is correctly held again when wait() returns.
//
// Idiom (see docs/STATIC_ANALYSIS.md):
//
//   util::Mutex mu_;
//   std::deque<Task> queue_ GUARDED_BY(mu_);
//
//   void post(Task t) {
//     const util::MutexLock lock(mu_);
//     queue_.push_back(std::move(t));
//   }
#pragma once

#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.hpp"

namespace graphene::util {

/// Annotated std::mutex. Satisfies BasicLockable/Lockable, so it also works
/// as the lock argument of std::condition_variable_any::wait.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Annotated std::shared_mutex (exclusive writers, shared readers).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive hold of a Mutex (std::lock_guard equivalent).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE_GENERIC() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive hold of a SharedMutex (writer side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterLock() RELEASE_GENERIC() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared hold of a SharedMutex (reader side).
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() RELEASE_GENERIC() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace graphene::util
