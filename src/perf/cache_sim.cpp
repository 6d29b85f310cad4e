#include "perf/cache_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace edacloud::perf {

namespace {

bool is_pow2(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

}  // namespace

CacheSim::CacheSim(std::uint64_t size_bytes, std::uint32_t line_bytes,
                   std::uint32_t ways)
    : size_bytes_(size_bytes), line_bytes_(line_bytes), ways_(ways) {
  if (!is_pow2(line_bytes_) || ways_ == 0 || size_bytes_ < line_bytes_ * ways_) {
    throw std::invalid_argument("invalid cache geometry");
  }
  const std::uint64_t lines = size_bytes_ / line_bytes_;
  std::uint64_t sets = lines / ways_;
  if (sets == 0) sets = 1;
  // Round sets down to a power of two so indexing is a mask.
  sets = std::uint64_t{1} << (63 - std::countl_zero(sets));
  set_count_ = static_cast<std::uint32_t>(sets);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(line_bytes_)));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
  // Every stack starts as invalid ~0 entries.
  tags_.assign(static_cast<std::size_t>(set_count_) * ways_, ~0ULL);
}

bool CacheSim::access_impl(std::uint64_t address, bool count_stats) {
  if (count_stats) ++stats_.accesses;
  const std::uint64_t line = address >> line_shift_;
  const std::uint32_t set = static_cast<std::uint32_t>(line) & (set_count_ - 1);
  const std::uint64_t tag = line >> set_shift_;
  std::uint64_t* stack = &tags_[static_cast<std::size_t>(set) * ways_];
  std::uint32_t depth = 0;
  while (depth < ways_ && stack[depth] != tag) ++depth;
  const bool hit = depth < ways_;
  if (!hit) {
    if (count_stats) ++stats_.misses;
    depth = ways_ - 1;  // the LRU entry is dropped
  }
  std::copy_backward(stack, stack + depth, stack + depth + 1);
  stack[0] = tag;
  return hit;
}

}  // namespace edacloud::perf
