#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace ssum {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ShutdownUnderLoadDrainsTheQueue) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      count.fetch_add(1);
    });
  }
  // Shutdown with most of the queue still pending must finish every task.
  pool.Shutdown();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndSubmitDegradesToInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });  // runs inline
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, RunOnePendingTaskExecutesOnCaller) {
  ThreadPool pool(1);
  // Block the single worker so the queue stays populated. Wait for the
  // blocker to start so the caller below cannot steal it instead.
  std::atomic<bool> started{false}, release{false};
  pool.Submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  // The caller can steal the queued task while the worker is busy.
  while (!pool.RunOnePendingTask() && count.load() == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 1);
  EXPECT_FALSE(pool.RunOnePendingTask());
  release.store(true);
  pool.Shutdown();
}

TEST(ParallelForTest, MatchesSerialLoop) {
  const size_t n = 1037;
  std::vector<double> serial(n), parallel(n);
  for (size_t i = 0; i < n; ++i) {
    serial[i] = static_cast<double>(i) * 1.5 + 1.0;
  }
  Status st = ParallelFor(
      0, n, /*grain=*/13,
      [&](size_t i) { parallel[i] = static_cast<double>(i) * 1.5 + 1.0; },
      /*threads=*/8);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  Status st = ParallelFor(5, 5, 1, [&](size_t) { calls.fetch_add(1); }, 8);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, ChunksPartitionTheRangeExactly) {
  const size_t begin = 7, end = 103, grain = 10;
  const size_t chunks = ParallelNumChunks(begin, end, grain);
  std::vector<std::pair<size_t, size_t>> ranges(chunks, {0, 0});
  Status st = ParallelForChunked(
      begin, end, grain,
      [&](size_t chunk, size_t b, size_t e) { ranges[chunk] = {b, e}; },
      /*threads=*/4);
  ASSERT_TRUE(st.ok());
  size_t expect_begin = begin;
  for (size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(ranges[c].first, expect_begin);
    EXPECT_GT(ranges[c].second, ranges[c].first);
    expect_begin = ranges[c].second;
  }
  EXPECT_EQ(expect_begin, end);
}

TEST(ParallelForTest, ExceptionBecomesStatus) {
  for (uint32_t threads : {1u, 8u}) {
    Status st = ParallelFor(
        0, 100, 7,
        [](size_t i) {
          if (i == 37) throw std::runtime_error("boom at 37");
        },
        threads);
    EXPECT_FALSE(st.ok()) << "threads=" << threads;
    EXPECT_NE(st.ToString().find("boom at 37"), std::string::npos)
        << st.ToString();
  }
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  std::vector<double> sums(4, 0.0);
  Status st = ParallelFor(
      0, 4, 1,
      [&](size_t outer) {
        std::vector<double> inner(256);
        Status inner_st = ParallelFor(
            0, inner.size(), 16,
            [&](size_t i) {
              inner[i] = static_cast<double>(outer * 1000 + i);
            },
            8);
        ASSERT_TRUE(inner_st.ok());
        sums[outer] = std::accumulate(inner.begin(), inner.end(), 0.0);
      },
      4);
  ASSERT_TRUE(st.ok());
  for (size_t outer = 0; outer < 4; ++outer) {
    double expect = 0;
    for (size_t i = 0; i < 256; ++i) {
      expect += static_cast<double>(outer * 1000 + i);
    }
    EXPECT_EQ(sums[outer], expect);
  }
}

TEST(ThreadCountTest, ResolutionPrecedence) {
  SetDefaultThreadCount(0);
  EXPECT_EQ(ResolveThreadCount(5), 5u);
  EXPECT_GE(ResolveThreadCount(0), 1u);  // hardware fallback

  SetDefaultThreadCount(3);
  EXPECT_EQ(ResolveThreadCount(0), 3u);
  EXPECT_EQ(ResolveThreadCount(5), 5u);  // explicit beats default

  // SSUM_THREADS is read by the --threads flag's parser, never per call:
  // an explicit thread count stays what the caller asked for.
  setenv("SSUM_THREADS", "2", 1);
  EXPECT_EQ(ResolveThreadCount(0), 3u);
  EXPECT_EQ(ResolveThreadCount(5), 5u);
  unsetenv("SSUM_THREADS");
  SetDefaultThreadCount(0);
}

}  // namespace
}  // namespace ssum
