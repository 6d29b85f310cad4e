#include <gtest/gtest.h>

#include <bit>
#include <vector>

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

/// The timestamp true-LRU cache CacheSim used before its tag stacks: ways
/// carry a last-use clock and a miss evicts the lowest one. Kept as the
/// reference the tag-stack implementation must match access for access.
class TimestampLru {
 public:
  TimestampLru(std::uint64_t size_bytes, std::uint32_t line_bytes,
               std::uint32_t ways)
      : ways_(ways) {
    std::uint64_t sets = size_bytes / line_bytes / ways;
    if (sets == 0) sets = 1;
    sets = std::uint64_t{1} << (63 - std::countl_zero(sets));
    set_count_ = static_cast<std::uint32_t>(sets);
    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
    ways_storage_.assign(static_cast<std::size_t>(set_count_) * ways_, Way{});
  }

  bool access(std::uint64_t address, bool count_stats) {
    if (count_stats) ++stats.accesses;
    const std::uint64_t line = address >> line_shift_;
    const std::uint32_t set =
        static_cast<std::uint32_t>(line) & (set_count_ - 1);
    const std::uint64_t tag = line / set_count_;
    Way* base = &ways_storage_[static_cast<std::size_t>(set) * ways_];
    ++clock_;
    std::uint32_t victim = 0;
    std::uint32_t victim_lru = ~0U;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].tag == tag) {
        base[w].lru = clock_;
        return true;
      }
      if (base[w].lru < victim_lru) {
        victim_lru = base[w].lru;
        victim = w;
      }
    }
    if (count_stats) ++stats.misses;
    base[victim].tag = tag;
    base[victim].lru = clock_;
    return false;
  }

  CacheStats stats;

 private:
  struct Way {
    std::uint64_t tag = ~0ULL;
    std::uint32_t lru = 0;
  };
  std::uint32_t ways_;
  std::uint32_t set_count_ = 1;
  std::uint32_t line_shift_ = 0;
  std::vector<Way> ways_storage_;
  std::uint32_t clock_ = 0;
};

TEST(CacheSimTest, TagStackMatchesTimestampLru) {
  struct Geometry {
    const char* name;
    std::uint64_t size_bytes;
    std::uint32_t ways;
  };
  const Geometry geometries[] = {
      {"direct-mapped", 4 * 1024, 1},
      {"l1-8KiB-8way", 8 * 1024, 8},
      {"llc-256KiB-16way", 256 * 1024, 16},
      {"fully-associative", 2 * 1024, 32},
  };
  for (const Geometry& geometry : geometries) {
    SCOPED_TRACE(geometry.name);
    CacheSim cache(geometry.size_bytes, 64, geometry.ways);
    TimestampLru reference(geometry.size_bytes, 64, geometry.ways);
    util::Rng rng(geometry.size_bytes + geometry.ways);
    // Half the accesses reuse a hot region about the cache's size, the
    // rest roam 8x the capacity; one in eight is a stats-free touch.
    const std::uint64_t hot = geometry.size_bytes;
    const std::uint64_t span = 8 * geometry.size_bytes;
    for (int i = 0; i < 60000; ++i) {
      const std::uint64_t address =
          rng.next_bool(0.5) ? rng.next_below(hot) : rng.next_below(span);
      if (rng.next_below(8) == 0) {
        cache.touch(address);
        reference.access(address, false);
        continue;
      }
      ASSERT_EQ(cache.access(address), reference.access(address, true))
          << "access " << i;
    }
    EXPECT_EQ(cache.stats().accesses, reference.stats.accesses);
    EXPECT_EQ(cache.stats().misses, reference.stats.misses);
    EXPECT_GT(cache.stats().misses, 0u);
    EXPECT_LT(cache.stats().misses, cache.stats().accesses);
  }
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
