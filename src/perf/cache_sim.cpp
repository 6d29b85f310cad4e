#include "perf/cache_sim.hpp"

#include <bit>
#include <stdexcept>

namespace edacloud::perf {

std::uint32_t cache_set_count(std::uint64_t size_bytes,
                              std::uint32_t line_bytes, std::uint32_t ways) {
  if (!std::has_single_bit(line_bytes) || ways == 0 ||
      size_bytes < std::uint64_t{line_bytes} * ways) {
    throw std::invalid_argument("invalid cache geometry");
  }
  const std::uint64_t sets = size_bytes / line_bytes / ways;
  return static_cast<std::uint32_t>(std::bit_floor(sets));
}

CacheSim::CacheSim(std::uint64_t size_bytes, std::uint32_t line_bytes,
                   std::uint32_t ways)
    : size_bytes_(size_bytes),
      line_bytes_(line_bytes),
      ways_(ways),
      set_count_(cache_set_count(size_bytes, line_bytes, ways)),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      set_shift_(static_cast<std::uint32_t>(std::countr_zero(set_count_))) {
  // Every stack starts as invalid ~0 entries; no tag reaches ~0, because
  // a tag is an address shifted right by at least the line bits.
  tags_.assign(static_cast<std::size_t>(set_count_) * ways_, ~0ULL);
}

}  // namespace edacloud::perf
