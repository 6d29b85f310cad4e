#include "perf/cache_sim.hpp"

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
  sets_.assign(static_cast<std::size_t>(set_count_) * ways_, Way{});
}

bool CacheSim::access_impl(std::uint64_t address, bool count_stats) {
  if (count_stats) ++stats_.accesses;
  const std::uint64_t line = address >> line_shift_;
  const std::uint32_t set = static_cast<std::uint32_t>(line) & (set_count_ - 1);
  const std::uint64_t tag = line / set_count_;
  Way* base = &sets_[static_cast<std::size_t>(set) * ways_];
  ++lru_clock_;
  std::uint32_t victim = 0;
  std::uint32_t victim_lru = ~0U;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w].tag == tag) {
      base[w].lru = lru_clock_;
      return true;
    }
    if (base[w].lru < victim_lru) {
      victim_lru = base[w].lru;
      victim = w;
    }
  }
  if (count_stats) ++stats_.misses;
  base[victim].tag = tag;
  base[victim].lru = lru_clock_;
  return false;
}

}  // namespace edacloud::perf
