#include "sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

namespace uvmsim {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futs;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 500500u);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 10; ++i) {
    futs.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futs) f.get();
  // One worker drains the queue in submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ThreadPool, LaneRangePartitionIsDisjointAndComplete) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t lanes : {1u, 2u, 3u, 8u, 17u}) {
      std::vector<int> hits(n, 0);
      std::size_t total = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        const LaneRange r = lane_range(n, lanes, l);
        ASSERT_LE(r.begin, r.end);
        for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
        total += r.end - r.begin;
        // Balanced: no lane exceeds ceil(n / lanes).
        ASSERT_LE(r.end - r.begin, (n + lanes - 1) / lanes);
      }
      ASSERT_EQ(total, n) << "n=" << n << " lanes=" << lanes;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "index " << i << " owned by != 1 lane";
      }
    }
  }
}

TEST(ThreadPool, ForLanesCoversEveryIndexOnce) {
  ThreadPool pool(3);
  for (std::size_t lanes : {1u, 2u, 4u, 9u}) {
    const std::size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    pool.for_lanes(n, lanes,
                   [&](std::size_t lane, std::size_t b, std::size_t e) {
                     ASSERT_LT(lane, lanes);
                     for (std::size_t i = b; i < e; ++i) ++hits[i];
                   });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ForLanesMoreLanesThanItemsRunsEmptyTail) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.for_lanes(3, 8, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(ThreadPool, LaneReduceBitIdenticalForEveryLaneAndPoolSize) {
  // The determinism contract: with a lane-order merge, the reduction result
  // never depends on pool size or lane count — including the pool-less
  // serial fallback.
  const std::size_t n = 1000;
  auto sum_body = [](std::uint64_t& acc, std::size_t i) {
    acc += i * i + 13;
  };
  auto make = [] { return std::uint64_t{0}; };
  auto merge = [](std::uint64_t& a, const std::uint64_t& b) { a += b; };
  const std::uint64_t serial =
      lane_reduce<std::uint64_t>(nullptr, n, 1, make, sum_body, merge);
  for (std::size_t pool_size : {1u, 2u, 4u}) {
    ThreadPool pool(pool_size);
    for (std::size_t lanes : {1u, 2u, 3u, 8u}) {
      EXPECT_EQ(serial, lane_reduce<std::uint64_t>(&pool, n, lanes, make,
                                                   sum_body, merge))
          << "pool=" << pool_size << " lanes=" << lanes;
    }
  }
}

}  // namespace
}  // namespace uvmsim
