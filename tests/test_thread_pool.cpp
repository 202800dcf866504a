// The process-wide executor behind every verify_batch: completion of
// every index, result slot isolation, exception transport, reuse across
// batches, the 0-worker inline degradation, reentrancy (nested and
// concurrent callers drain inline) and the saturation gauges.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"

namespace dialed {
namespace {

TEST(thread_pool, runs_every_index_exactly_once) {
  thread_pool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(thread_pool, results_land_in_their_own_slots) {
  thread_pool pool(3);
  constexpr std::size_t n = 4096;
  std::vector<std::size_t> out(n, 0);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * i);
}

TEST(thread_pool, reusable_across_many_batches) {
  thread_pool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 5000u);
}

TEST(thread_pool, zero_workers_degrades_to_inline_loop) {
  thread_pool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> out(64, 0);
  // No pool threads exist, so the body observably runs on this thread.
  const auto me = std::this_thread::get_id();
  pool.parallel_for(out.size(), [&](std::size_t i) {
    ASSERT_EQ(std::this_thread::get_id(), me);
    out[i] = 1;
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
}

TEST(thread_pool, first_exception_is_rethrown_and_batch_drains) {
  thread_pool pool(4);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(
      pool.parallel_for(n,
                        [&](std::size_t i) {
                          hits[i].fetch_add(1, std::memory_order_relaxed);
                          if (i % 97 == 0) throw error("boom");
                        }),
      error);
  // A throwing index must not abort the rest of the batch.
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  // ...and the pool is still usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 10);
}

TEST(thread_pool, inline_fallback_honors_the_same_exception_contract) {
  // The 0-worker degradation must drain the whole batch too, not abort at
  // the first throw.
  thread_pool pool(0);
  std::vector<int> hits(100, 0);
  EXPECT_THROW(pool.parallel_for(hits.size(),
                                 [&](std::size_t i) {
                                   hits[i] = 1;
                                   if (i == 3) throw error("boom");
                                 }),
               error);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(thread_pool, concurrent_parallel_for_callers_are_serialized) {
  thread_pool pool(2);
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for(64, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4u * 20u * 64u);
}

TEST(thread_pool, nested_parallel_for_drains_inline_on_its_caller) {
  // A body that fans out again on the same pool (which is busy with the
  // outer batch) must not wait for itself: the inner batch runs inline
  // on the thread that asked for it.
  thread_pool pool(3);
  constexpr std::size_t outer = 16;
  constexpr std::size_t inner = 32;
  std::vector<std::atomic<int>> hits(outer * inner);
  std::atomic<int> off_thread{0};
  pool.parallel_for(outer, [&](std::size_t i) {
    const auto me = std::this_thread::get_id();
    pool.parallel_for(inner, [&](std::size_t j) {
      if (std::this_thread::get_id() != me) ++off_thread;
      hits[i * inner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "index " << k;
  }
  EXPECT_EQ(off_thread.load(), 0);

  // A nested failure travels out through both levels.
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t) {
                                   pool.parallel_for(4, [](std::size_t j) {
                                     if (j == 2) throw error("inner");
                                   });
                                 }),
               error);
  std::atomic<int> ok{0};
  pool.parallel_for(8, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

TEST(thread_pool, busy_pool_lets_other_callers_drain_inline) {
  // One caller parks the pool inside its batch; other callers must
  // finish their own batches on their own threads meanwhile instead of
  // queueing behind it. The parked batch also pins the gauges: both
  // workers busy, and of its 4 indices 3 are claimed (one per thread),
  // so 1 is still queued.
  thread_pool pool(2);
  std::atomic<bool> release{false};
  std::thread owner([&] {
    pool.parallel_for(4, [&](std::size_t) {
      while (!release.load()) std::this_thread::yield();
    });
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  executor_load l = pool.load();
  while ((l.busy_workers != 2 || l.queue_depth != 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    l = pool.load();
  }
  EXPECT_EQ(l.workers, 2u);
  EXPECT_EQ(l.busy_workers, 2u);
  EXPECT_EQ(l.queue_depth, 1u);

  std::atomic<std::size_t> total{0};
  std::atomic<int> off_thread{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      const auto me = std::this_thread::get_id();
      pool.parallel_for(64, [&](std::size_t) {
        if (std::this_thread::get_id() != me) ++off_thread;
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 3u * 64u);
  EXPECT_EQ(off_thread.load(), 0);

  release.store(true);
  owner.join();
  l = pool.load();
  EXPECT_EQ(l.busy_workers, 0u);
  EXPECT_EQ(l.queue_depth, 0u);
}

}  // namespace
}  // namespace dialed
