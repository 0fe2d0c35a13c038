#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace re2xolap::util {
namespace {

TEST(ThreadPoolTest, SizeZeroAndOneDegradeToSerialInline) {
  for (size_t n_threads : {0u, 1u}) {
    ThreadPool pool(n_threads);
    EXPECT_EQ(pool.size(), 0u);  // no workers spawned
    std::vector<int> hits(100, 0);
    std::thread::id caller = std::this_thread::get_id();
    bool all_inline = true;
    pool.ParallelFor(hits.size(), [&](size_t i) {
      hits[i] = 1;
      if (std::this_thread::get_id() != caller) all_inline = false;
    });
    EXPECT_TRUE(all_inline);
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, PoolIsReusableAcrossLoops) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(round + 1, [&](size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    size_t n = static_cast<size_t>(round) + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (size_t n_threads : {1u, 4u}) {
    ThreadPool pool(n_threads);
    EXPECT_THROW(
        pool.ParallelFor(100,
                         [&](size_t i) {
                           if (i == 42) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives a throwing loop and keeps working.
    std::atomic<int> count{0};
    pool.ParallelFor(10, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPoolTest, ExceptionSkipsUnclaimedIterations) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::atomic<bool> thrown{false};
  constexpr size_t kN = 100000;
  EXPECT_THROW(pool.ParallelFor(kN,
                                [&](size_t i) {
                                  ++executed;
                                  if (i == 0) {
                                    thrown.store(true);
                                    throw std::runtime_error("x");
                                  }
                                  // No other iteration finishes before
                                  // index 0 has thrown, and each one after
                                  // it takes far longer than the thrower
                                  // needs to record the failure, so the
                                  // other helper cannot claim the rest of
                                  // the range first.
                                  while (!thrown.load()) {
                                    std::this_thread::yield();
                                  }
                                  std::this_thread::sleep_for(
                                      std::chrono::microseconds(100));
                                }),
               std::runtime_error);
  // Index 0 is claimed first, so the bulk of the range must be skipped
  // (already-claimed in-flight iterations may still complete).
  EXPECT_LT(executed.load(), static_cast<int>(kN));
}

TEST(ThreadPoolTest, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

}  // namespace
}  // namespace re2xolap::util
