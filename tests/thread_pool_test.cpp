// util::ThreadPool — the determinism contract the ML kernels, the tuner and
// the fleet engine build on: static chunking, ordered reduction, caller
// participation (nested submits can't deadlock), and per-chunk exception
// propagation.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace edacloud::util {
namespace {

TEST(ThreadPoolTest, IdleConstructDestruct) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
  }
}

TEST(ThreadPoolTest, ChunkCountPartitionsRange) {
  EXPECT_EQ(ThreadPool::chunk_count(0, 0, 4), 0u);
  EXPECT_EQ(ThreadPool::chunk_count(0, 1, 4), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(0, 8, 4), 2u);
  EXPECT_EQ(ThreadPool::chunk_count(0, 9, 4), 3u);
  EXPECT_EQ(ThreadPool::chunk_count(3, 9, 0), 6u);  // grain 0 behaves as 1
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 64,
                    [&](std::size_t b, std::size_t e, std::size_t, unsigned) {
                      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
                    });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ChunkBoundariesAreAFunctionOfGrainOnly) {
  // The same (begin, end, grain) must produce the same chunk set at every
  // pool width — that is the entire determinism story.
  auto chunk_set = [](int threads) {
    ThreadPool pool(threads);
    std::mutex m;
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> chunks;
    pool.parallel_for(5, 1000, 37,
                      [&](std::size_t b, std::size_t e, std::size_t c,
                          unsigned) {
                        std::lock_guard<std::mutex> lock(m);
                        chunks.insert({b, e, c});
                      });
    return chunks;
  };
  const auto serial = chunk_set(1);
  EXPECT_EQ(serial.size(), ThreadPool::chunk_count(5, 1000, 37));
  EXPECT_EQ(chunk_set(2), serial);
  EXPECT_EQ(chunk_set(8), serial);
}

TEST(ThreadPoolTest, WorkerSlotsStayWithinPoolWidth) {
  ThreadPool pool(4);
  std::mutex m;
  std::set<unsigned> slots;
  pool.parallel_for(0, 4096, 1,
                    [&](std::size_t, std::size_t, std::size_t, unsigned slot) {
                      std::lock_guard<std::mutex> lock(m);
                      slots.insert(slot);
                    });
  ASSERT_FALSE(slots.empty());
  for (unsigned slot : slots) EXPECT_LT(slot, 4u);
}

TEST(ThreadPoolTest, MaxThreadsCapLimitsParticipatingSlots) {
  ThreadPool pool(8);
  std::mutex m;
  std::set<unsigned> slots;
  pool.parallel_for(
      0, 4096, 1,
      [&](std::size_t, std::size_t, std::size_t, unsigned slot) {
        std::lock_guard<std::mutex> lock(m);
        slots.insert(slot);
      },
      /*max_threads=*/2);
  for (unsigned slot : slots) EXPECT_LT(slot, 2u);
}

TEST(ThreadPoolTest, ExceptionPropagatesOutOfWorkers) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1024, 8,
                        [&](std::size_t b, std::size_t, std::size_t,
                            unsigned) {
                          if (b >= 512) throw std::runtime_error("chunk blew up");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100, 10,
                    [&](std::size_t b, std::size_t e, std::size_t, unsigned) {
                      total.fetch_add(e - b);
                    });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPoolTest, LowestFailedChunkWinsWhenEveryChunkThrows) {
  // When every chunk throws, chunk 0 is always among the failures, so the
  // rethrown exception is deterministically chunk 0's.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    try {
      pool.parallel_for(0, 64, 8,
                        [](std::size_t, std::size_t, std::size_t c, unsigned) {
                          throw std::runtime_error("chunk " + std::to_string(c));
                        });
      FAIL() << "expected parallel_for to throw";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "chunk 0");
    }
  }
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  // Regression: a chunk body submitting to the same pool used to be able to
  // starve (all workers blocked in the outer job). Caller participation
  // guarantees the inner job always has at least one thread driving it.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  pool.parallel_for(0, 8, 1,
                    [&](std::size_t, std::size_t, std::size_t, unsigned) {
                      pool.parallel_for(
                          0, 1000, 16,
                          [&](std::size_t b, std::size_t e, std::size_t,
                              unsigned) {
                            for (std::size_t i = b; i < e; ++i)
                              total.fetch_add(i);
                          });
                    });
  EXPECT_EQ(total.load(), 8ull * (999ull * 1000ull / 2));
}

TEST(ThreadPoolTest, OrderedReduceMatchesSerialSum) {
  ThreadPool pool(4);
  const std::size_t n = 5000;
  const std::uint64_t got = pool.parallel_reduce(
      std::size_t{0}, n, std::size_t{33}, std::uint64_t{0},
      [](std::size_t b, std::size_t e) {
        std::uint64_t sum = 0;
        for (std::size_t i = b; i < e; ++i) sum += i * i;
        return sum;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < n; ++i) want += i * i;
  EXPECT_EQ(got, want);
}

TEST(ThreadPoolTest, OrderedReduceIsBitIdenticalAcrossThreadCounts) {
  // Floating-point: partials folded in chunk order must make the result a
  // pure function of grain, not thread count. Compare exact bits.
  auto reduce_at = [](int threads) {
    ThreadPool pool(threads);
    return pool.parallel_reduce(
        std::size_t{0}, std::size_t{20'000}, std::size_t{7}, 0.0,
        [](std::size_t b, std::size_t e) {
          double sum = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            sum += std::sin(static_cast<double>(i)) / (1.0 + static_cast<double>(i % 13));
          }
          return sum;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = reduce_at(1);
  for (int threads : {2, 4, 8}) {
    const double parallel = reduce_at(threads);
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "threads=" << threads << " drifted: " << serial << " vs "
        << parallel;
  }
}

TEST(ThreadPoolTest, StressParallelForOutputBitIdenticalAcrossThreadCounts) {
  // Mixed-size jobs hammered repeatedly: every output vector must be
  // byte-identical at 1/2/4/8 threads.
  auto run_at = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::vector<std::uint64_t>> outputs;
    for (std::size_t round = 0; round < 50; ++round) {
      const std::size_t n = 37 + round * 101;
      std::vector<std::uint64_t> out(n);
      pool.parallel_for(0, n, 16,
                        [&](std::size_t b, std::size_t e, std::size_t c,
                            unsigned) {
                          for (std::size_t i = b; i < e; ++i) {
                            std::uint64_t h = i * 0x9E3779B97F4A7C15ull + c;
                            h ^= h >> 31;
                            h *= 0xBF58476D1CE4E5B9ull;
                            out[i] = h ^ (h >> 29);
                          }
                        });
      outputs.push_back(std::move(out));
    }
    return outputs;
  };
  const auto baseline = run_at(1);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(run_at(threads), baseline) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, GlobalPoolDefaultsToSerialUntilOptIn) {
  set_global_thread_count(1);
  EXPECT_EQ(global_thread_count(), 1);
  std::vector<int> order;
  parallel_for(0, 0, 0, 4,
               [&](std::size_t, std::size_t, std::size_t, unsigned) {
                 order.push_back(1);
               });
  EXPECT_TRUE(order.empty());  // empty range never invokes the body
  parallel_for(0, 0, 6, 2,
               [&](std::size_t b, std::size_t, std::size_t, unsigned slot) {
                 EXPECT_EQ(slot, 0u);  // serial path runs on the caller
                 order.push_back(static_cast<int>(b));
               });
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4}));
}

TEST(ThreadPoolTest, GlobalPoolHelpersRunWide) {
  set_global_thread_count(4);
  EXPECT_EQ(global_thread_count(), 4);
  EXPECT_GE(parallel_slot_count(0), 4);
  std::vector<std::uint64_t> out(2048, 0);
  parallel_for(0, 0, out.size(), 32,
               [&](std::size_t b, std::size_t e, std::size_t, unsigned slot) {
                 EXPECT_LT(static_cast<int>(slot), parallel_slot_count(0));
                 for (std::size_t i = b; i < e; ++i) out[i] = i + 1;
               });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);

  const double wide = parallel_reduce(
      4, std::size_t{0}, std::size_t{999}, std::size_t{13}, 0.0,
      [](std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) s += 1.0 / (1.0 + static_cast<double>(i));
        return s;
      },
      [](double a, double b) { return a + b; });
  const double narrow = parallel_reduce(
      1, std::size_t{0}, std::size_t{999}, std::size_t{13}, 0.0,
      [](std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) s += 1.0 / (1.0 + static_cast<double>(i));
        return s;
      },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(wide, narrow);
  set_global_thread_count(1);  // leave other suites serial by default
}

}  // namespace
}  // namespace edacloud::util
