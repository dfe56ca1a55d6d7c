// Annotated mutex wrapper: the only lock type allowed outside this
// file (lock-annotation lint rule, DESIGN.md §16).
//
// util::Mutex is std::mutex carrying clang's `capability` attribute;
// util::MutexLock is the scoped acquire; util::CondVar the matching
// condition variable. The wrapper is zero-overhead and ABI-compatible
// with the std types it wraps (static-asserted in
// tests/util/mutex_test.cpp): every member forwards inline, and the
// annotations compile to nothing on non-clang compilers. What the
// wrapper buys is visibility — with every lock in the tree expressed
// through an annotated type, `-Wthread-safety -Werror` (the clang CI
// legs) can prove PS_GUARDED_BY members are never touched unlocked.
//
// Condition waits do not take a predicate on purpose: a predicate
// lambda reading guarded members cannot carry PS_REQUIRES, so callers
// write the explicit while-loop the analysis can see:
//
//   MutexLock lock{mutex_};
//   while (!ready_) cv_.wait(mutex_);
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace peerscope::util {

class PS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PS_ACQUIRE() { mu_.lock(); }
  void unlock() PS_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() PS_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped acquisition of a Mutex (the std::lock_guard shape).
class PS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for Mutex. wait() releases and reacquires the
/// mutex internally; from the analysis' point of view the capability
/// is held across the call, which is exactly the caller's contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `mu` (spurious wakeups apply; loop on the
  /// condition). The std::mutex is adopted for the duration of the
  /// wait and released back to the caller's MutexLock afterwards.
  void wait(Mutex& mu) PS_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted{mu.mu_, std::adopt_lock};
    cv_.wait(adopted);
    adopted.release();
  }

  /// wait() that also returns once `deadline` passes; loop on the
  /// condition and the clock, exactly as for wait().
  template <class Clock, class Duration>
  void wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline)
      PS_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted{mu.mu_, std::adopt_lock};
    cv_.wait_until(adopted, deadline);
    adopted.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace peerscope::util
