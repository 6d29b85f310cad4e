#pragma once
// Every LLC slice fed one input stream, simulated as one LRU stack. The
// slices perf::Instrument models are 16-way caches of 64 B lines that
// differ only in their (power-of-two) set count, so two slices of S and 2S
// sets fed the same stream nest: LRU under bit-selection indexing has the
// inclusion property (Mattson et al. 1970), and refining each S-set into
// two 2S-sets by the line's next index bit (Hill & Smith 1989) makes every
// line resident in the S cache resident in the 2S cache too.
//
// A two-level nest therefore keeps, per S-set, the 32 lines of that set
// resident in the 2S cache, most recently used first. The S cache holds
// the 16 most recent lines of the set, which are always among those 32 and
// so are the stack's first 16. A line found in the stack hits the 2S
// cache, and found at depth < 16 it hits the S cache too. A miss goes to
// the front; its 2S-set (the tag's low bit) then holds 17 lines, and the
// deepest line of that parity, the 2S cache's LRU victim, drops; a 32-bit
// mask of the slots' tag parities finds it without a scan. Stacks start
// full of invalid tags, 16 of each parity, below every real line, so an
// empty way is simply the deepest invalid tag of its parity. A one-level
// nest is a plain 16-way MRU stack. tests/llc_nest_test.cpp checks both
// against two independent CacheSims.

#include <bit>
#include <cstdint>
#include <vector>

#include "perf/cache_sim.hpp"

namespace edacloud::perf {

class LlcNest {
 public:
  static constexpr std::uint32_t kLineBytes = 64;
  static constexpr std::uint32_t kWays = 16;

  /// The 16-way cache of `sets` sets (a power of two) and, when `nested`,
  /// the one of 2 * sets sets as well.
  LlcNest(std::uint32_t sets, bool nested);

  struct Hit {
    bool small = false;  // hit in the `sets`-set cache
    bool large = false;  // hit in the 2 * sets cache (nested only)
  };

  /// Simulate one access in every cache of the nest.
  Hit access(std::uint64_t address) { return probe(address, true); }
  /// State-only access (no stats), as CacheSim::touch.
  void touch(std::uint64_t address) { probe(address, false); }

  [[nodiscard]] CacheStats small_stats() const {
    return {accesses_, small_misses_};
  }
  /// Stats of the 2 * sets cache; meaningful only for a nested nest.
  [[nodiscard]] CacheStats large_stats() const {
    return {accesses_, large_misses_};
  }

 private:
  Hit probe(std::uint64_t address, bool count_stats) {
    const std::uint64_t line = address / kLineBytes;
    const std::size_t set = static_cast<std::size_t>(line & (sets_ - 1));
    const std::uint64_t tag = line >> set_shift_;
    if (count_stats) ++accesses_;
    const Hit hit = nested_ ? probe_nested(set, tag)
                            : probe_single(&tags_[set * kWays], tag);
    if (count_stats) {
      small_misses_ += hit.small ? 0 : 1;
      large_misses_ += hit.large ? 0 : 1;
    }
    return hit;
  }

  // Move-to-front in one pass, as CacheSim does: each slot takes the tag
  // above it until `tag` turns up or the bottom entry falls off.
  static Hit probe_single(std::uint64_t* stack, std::uint64_t tag) {
    std::uint64_t carry = tag;
    for (std::uint32_t depth = 0; depth < kWays; ++depth) {
      const std::uint64_t current = stack[depth];
      stack[depth] = carry;
      if (current == tag) return {true, true};
      carry = current;
    }
    return {};
  }

  Hit probe_nested(std::size_t set, std::uint64_t tag) {
    constexpr std::uint32_t kLast = 2 * kWays - 1;
    std::uint64_t* stack = &tags_[set * 2 * kWays];
    std::uint32_t& odd = odd_[set];
    const std::uint32_t parity = static_cast<std::uint32_t>(tag & 1);
    // Slots 0..depth rotate by one with `tag` entering at the front; their
    // parity bits follow.
    const auto rotate_parity = [&](std::uint32_t depth) {
      const std::uint32_t moved = (2U << depth) - 1U;  // bits 0..depth
      odd = (odd & ~moved) | (((odd << 1) | parity) & moved);
    };
    std::uint64_t carry = tag;
#pragma GCC unroll 32
    for (std::uint32_t depth = 0; depth <= kLast; ++depth) {
      const std::uint64_t current = stack[depth];
      stack[depth] = carry;
      if (current == tag) {
        rotate_parity(depth);
        return {depth < kWays, true};
      }
      carry = current;
    }
    // A miss moved every slot down one. The 2S cache drops the deepest
    // line of `tag`'s parity (16 slots always hold each parity), so only
    // slots 0..victim rotate: a pass up from the bottom puts `carry` (old
    // slot kLast) back and lifts the slots below the victim over it.
    const std::uint32_t same = parity != 0 ? odd : ~odd;
    const std::uint32_t victim =
        kLast - static_cast<std::uint32_t>(std::countl_zero(same));
    rotate_parity(victim);
    for (std::uint32_t k = kLast; k > victim; --k) {
      const std::uint64_t lifted = stack[k];
      stack[k] = carry;
      carry = lifted;
    }
    return {};
  }

  std::uint32_t sets_;
  std::uint32_t set_shift_;  // log2(sets_)
  bool nested_;
  std::vector<std::uint64_t> tags_;  // set-major MRU stacks, 16 or 32 slots
  std::vector<std::uint32_t> odd_;   // nested: bit k set = slot k's tag is odd
  std::uint64_t accesses_ = 0;
  std::uint64_t small_misses_ = 0;
  std::uint64_t large_misses_ = 0;
};

}  // namespace edacloud::perf
