#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "perf/cache_sim.hpp"
#include "perf/llc_nest.hpp"
#include "util/rng.hpp"

namespace edacloud::perf {
namespace {

constexpr std::uint64_t kSetBytes =
    std::uint64_t{LlcNest::kLineBytes} * LlcNest::kWays;

/// One address of a stream that reuses lines at every stack depth: a hot
/// region about the size of the small cache, a cold one four times the
/// large cache, and rare far addresses whose high tag bits vary.
std::uint64_t next_address(util::Rng& rng, std::uint32_t sets) {
  const std::uint64_t lines = std::uint64_t{sets} * LlcNest::kWays;
  switch (rng.next_below(8)) {
    case 0:
      return rng.next_below(1ULL << 40);
    case 1:
    case 2:
    case 3:
      return (1ULL << 30) + rng.next_below(8 * lines * LlcNest::kLineBytes);
    default:
      return rng.next_below(lines * LlcNest::kLineBytes + 1);
  }
}

/// Drives a nest and independent CacheSims of its S and 2S geometries with
/// one seeded stream of counted accesses and touches (one in four) and
/// expects every access's outcome and the final stats to agree.
void expect_matches_cache_sims(std::uint32_t sets, bool nested,
                               std::uint64_t seed, int steps) {
  SCOPED_TRACE("sets=" + std::to_string(sets) +
               " nested=" + std::to_string(nested) +
               " seed=" + std::to_string(seed));
  LlcNest nest(sets, nested);
  CacheSim small(sets * kSetBytes, LlcNest::kLineBytes, LlcNest::kWays);
  CacheSim large(2 * sets * kSetBytes, LlcNest::kLineBytes, LlcNest::kWays);
  util::Rng rng(seed);
  std::uint64_t large_hits = 0;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t address = next_address(rng, sets);
    if (rng.next_below(4) == 0) {
      nest.touch(address);
      small.touch(address);
      if (nested) large.touch(address);
      continue;
    }
    const LlcNest::Hit hit = nest.access(address);
    ASSERT_EQ(hit.small, small.access(address)) << "step " << step;
    if (nested) {
      const bool expected = large.access(address);
      ASSERT_EQ(hit.large, expected) << "step " << step;
      large_hits += expected ? 1 : 0;
    }
  }
  EXPECT_EQ(nest.small_stats().accesses, small.stats().accesses);
  EXPECT_EQ(nest.small_stats().misses, small.stats().misses);
  if (nested) {
    EXPECT_EQ(nest.large_stats().accesses, large.stats().accesses);
    EXPECT_EQ(nest.large_stats().misses, large.stats().misses);
    // The stream must reach the depths where the two caches disagree.
    EXPECT_GT(large_hits, 0u);
    EXPECT_LT(nest.large_stats().misses, nest.small_stats().misses);
  }
}

TEST(LlcNestTest, NestedStackMatchesTwoCacheSims) {
  for (const std::uint32_t sets : {1u, 2u, 4u, 16u, 64u, 512u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      expect_matches_cache_sims(sets, true, seed, 60000);
    }
  }
}

TEST(LlcNestTest, OneLevelStackMatchesCacheSim) {
  for (const std::uint32_t sets : {1u, 8u, 128u}) {
    expect_matches_cache_sims(sets, false, 3, 60000);
  }
}

TEST(LlcNestTest, ParityRefinementKeepsSixteenLinesPerLargeSet) {
  // One small set, sixteen even and sixteen odd tags: all 32 lines fit the
  // two large sets, while the small cache keeps only the latest sixteen.
  LlcNest nest(1, true);
  for (std::uint64_t line = 0; line < 32; ++line) {
    nest.access(line * LlcNest::kLineBytes);
  }
  const LlcNest::Hit oldest = nest.access(0);
  EXPECT_TRUE(oldest.large);
  EXPECT_FALSE(oldest.small);
  // A 17th even tag evicts the least recent even line only (line 2, since
  // line 0 was just reused); every odd line stays.
  nest.access(32 * LlcNest::kLineBytes);
  EXPECT_FALSE(nest.access(2 * LlcNest::kLineBytes).large);
  EXPECT_TRUE(nest.access(1 * LlcNest::kLineBytes).large);
}

TEST(LlcNestTest, RejectsNonPowerOfTwoSetCounts) {
  EXPECT_THROW(LlcNest(3, true), std::invalid_argument);
  EXPECT_THROW(LlcNest(0, false), std::invalid_argument);
}

}  // namespace
}  // namespace edacloud::perf
