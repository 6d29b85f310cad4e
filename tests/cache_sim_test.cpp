#include <gtest/gtest.h>

#include "perf/cache_sim.hpp"
#include "perf/vm.hpp"
#include "util/rng.hpp"

namespace edacloud::perf {
namespace {

TEST(CacheSimTest, ColdMissThenHit) {
  CacheSim cache(1024, 64, 2);
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(32));  // same line
  EXPECT_EQ(cache.stats().accesses, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheSimTest, LruEviction) {
  // 2-way, line 64, 2 sets (256 bytes): addresses 0, 128, 256 share set 0.
  CacheSim cache(256, 64, 2);
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(128));
  EXPECT_FALSE(cache.access(256));  // evicts 0 (LRU)
  EXPECT_FALSE(cache.access(0));    // 0 was evicted
  EXPECT_TRUE(cache.access(256));   // still resident
}

TEST(CacheSimTest, LruKeepsRecentlyUsed) {
  CacheSim cache(256, 64, 2);
  cache.access(0);
  cache.access(128);
  cache.access(0);     // refresh 0
  cache.access(256);   // evicts 128, not 0
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(128));
}

TEST(CacheSimTest, TouchDoesNotCountStats) {
  CacheSim cache(1024, 64, 2);
  cache.touch(0);
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // But state changed: next access hits.
  EXPECT_TRUE(cache.access(0));
}

TEST(CacheSimTest, WorkingSetLargerThanCacheMisses) {
  CacheSim cache(4 * 1024, 64, 4);
  // Stream 64 KiB cyclically twice: second pass still misses (LRU).
  std::uint64_t misses_before = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
      cache.access(addr);
    }
    if (pass == 0) misses_before = cache.stats().misses;
  }
  EXPECT_EQ(cache.stats().misses, 2 * misses_before);
}

TEST(CacheSimTest, WorkingSetSmallerThanCacheHitsAfterWarmup) {
  CacheSim cache(64 * 1024, 64, 8);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 16 * 1024; addr += 64) {
      cache.access(addr);
    }
  }
  // Second pass should be all hits: miss count == distinct lines.
  EXPECT_EQ(cache.stats().misses, 16u * 1024 / 64);
}

TEST(CacheSimTest, InvalidGeometryThrows) {
  EXPECT_THROW(CacheSim(100, 60, 2), std::invalid_argument);   // line !pow2
  EXPECT_THROW(CacheSim(64, 64, 2), std::invalid_argument);    // too small
  EXPECT_THROW(CacheSim(1024, 64, 0), std::invalid_argument);  // no ways
}

TEST(CacheSimTest, MissRateComputation) {
  CacheStats stats;
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 0.0);
  stats.accesses = 10;
  stats.misses = 3;
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 0.3);
}

TEST(VmConfigTest, LadderScalesLlcWithVcpus) {
  for (auto family : {InstanceFamily::kGeneralPurpose,
                      InstanceFamily::kMemoryOptimized,
                      InstanceFamily::kComputeOptimized}) {
    const auto ladder = vm_ladder(family);
    for (std::size_t i = 1; i < ladder.size(); ++i) {
      EXPECT_EQ(ladder[i].llc_bytes, ladder[0].llc_bytes * ladder[i].vcpus);
      EXPECT_GT(ladder[i].memory_gib, ladder[i - 1].memory_gib);
    }
  }
}

TEST(VmConfigTest, MemoryOptimizedHasMoreOfEverything) {
  const auto gp = make_vm(InstanceFamily::kGeneralPurpose, 4);
  const auto mo = make_vm(InstanceFamily::kMemoryOptimized, 4);
  EXPECT_GT(mo.memory_gib, gp.memory_gib);
  EXPECT_GT(mo.llc_bytes, gp.llc_bytes);
}

TEST(VmConfigTest, NamesAreDescriptive) {
  EXPECT_EQ(make_vm(InstanceFamily::kGeneralPurpose, 2).name(),
            "general-purpose-2vcpu");
}

TEST(VmConfigTest, InvalidVcpusThrows) {
  EXPECT_THROW(make_vm(InstanceFamily::kGeneralPurpose, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace edacloud::perf
