// util::Mutex / MutexLock / CondVar (util/mutex.hpp): the annotated
// wrapper must be a zero-cost veneer over the std primitives — same
// size and alignment as std::mutex, no extra state — and must behave
// correctly under real contention. The suite rides the test_util
// label into the tsan-concurrency preset, so the contended cases run
// under ThreadSanitizer in CI and any lock the wrapper failed to
// forward would surface as a data race there.

#include "util/mutex.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace peerscope::util {
namespace {

// ABI parity with the wrapped primitive: the wrapper adds only
// compile-time attributes, never bytes. A size change would also
// break layouts that embed a Mutex next to hot fields.
static_assert(sizeof(Mutex) == sizeof(std::mutex));
static_assert(alignof(Mutex) == alignof(std::mutex));

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.lock();
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(MutexTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu;
  mu.lock();
  bool acquired = true;
  std::thread probe{[&] { acquired = mu.try_lock(); }};
  probe.join();
  EXPECT_FALSE(acquired);
  mu.unlock();
}

TEST(MutexTest, ContendedCounterStaysExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  Mutex mu;
  long long counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        const MutexLock lock{mu};
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIncrements);
}

TEST(CondVarTest, WaitWakesOnNotifyWithPredicateLoop) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  long long observed = -1;
  std::thread waiter{[&] {
    mu.lock();
    while (!ready) cv.wait(mu);
    observed = 42;
    mu.unlock();
  }};
  {
    const MutexLock lock{mu};
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 42);
}

TEST(CondVarTest, NotifyAllReleasesEveryWaiter) {
  constexpr int kWaiters = 4;
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woke = 0;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      mu.lock();
      while (!go) cv.wait(mu);
      ++woke;
      mu.unlock();
    });
  }
  {
    const MutexLock lock{mu};
    go = true;
  }
  cv.notify_all();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woke, kWaiters);
}

TEST(CondVarTest, WaitUntilReturnsOnceTheDeadlinePasses) {
  Mutex mu;
  CondVar cv;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds{5};
  const MutexLock lock{mu};
  // Nobody notifies: only the deadline can end the loop.
  while (std::chrono::steady_clock::now() < deadline) {
    cv.wait_until(mu, deadline);
  }
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

}  // namespace
}  // namespace peerscope::util
