#pragma once
// Set-associative LRU cache simulator. perf::Instrument uses it as the
// per-vCPU L1 in front of its LLC slices (llc_nest.hpp); together they
// stand in for the hardware performance counters the paper read with
// `perf` (cache-references / cache-misses). Each set is kept as a
// most-recently-used-first stack of tags, so replacement needs no per-way
// timestamps.

#include <cstdint>
#include <vector>

namespace edacloud::perf {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

/// Sets of a `size_bytes` cache of `ways`-way sets of `line_bytes` lines,
/// rounded down to a power of two so indexing is a mask. Throws
/// std::invalid_argument unless line_bytes is a power of two, ways >= 1
/// and size_bytes >= line_bytes * ways.
std::uint32_t cache_set_count(std::uint64_t size_bytes,
                              std::uint32_t line_bytes, std::uint32_t ways);

/// Set-associative cache with true-LRU replacement. Address space is a
/// flat 64-bit byte space; tags are derived from line addresses. Each set is
/// a stack of tags, most recently used first: a hit moves its tag to the
/// front, a miss pushes the new tag on and drops the bottom (LRU) entry.
class CacheSim {
 public:
  /// Geometry as cache_set_count() takes it.
  CacheSim(std::uint64_t size_bytes, std::uint32_t line_bytes,
           std::uint32_t ways);

  /// Simulate one access; returns true on hit. Fills on miss.
  bool access(std::uint64_t address) { return access_impl(address, true); }

  /// State-only access (no stats) — used for phantom co-runner traffic that
  /// occupies capacity but is not part of the measured stream.
  void touch(std::uint64_t address) { access_impl(address, false); }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t size_bytes() const { return size_bytes_; }
  [[nodiscard]] std::uint32_t line_bytes() const { return line_bytes_; }
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  bool access_impl(std::uint64_t address, bool count_stats) {
    if (count_stats) ++stats_.accesses;
    const std::uint64_t line = address >> line_shift_;
    const std::uint64_t tag = line >> set_shift_;
    std::uint64_t* stack =
        &tags_[static_cast<std::size_t>(line & (set_count_ - 1)) * ways_];
    // Move-to-front in one pass: each slot takes the tag above it until the
    // accessed tag turns up (hit) or the LRU tag falls off the bottom.
    std::uint64_t carry = tag;
    for (std::uint32_t depth = 0; depth < ways_; ++depth) {
      const std::uint64_t current = stack[depth];
      stack[depth] = carry;
      if (current == tag) return true;
      carry = current;
    }
    if (count_stats) ++stats_.misses;
    return false;
  }

  std::uint64_t size_bytes_;
  std::uint32_t line_bytes_;
  std::uint32_t ways_;
  std::uint32_t set_count_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;  // log2(set_count_)
  std::vector<std::uint64_t> tags_;  // set-major, ways_ tags per set, MRU first
  CacheStats stats_;
};

}  // namespace edacloud::perf
