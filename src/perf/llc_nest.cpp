#include "perf/llc_nest.hpp"

#include <bit>
#include <stdexcept>

namespace edacloud::perf {

LlcNest::LlcNest(std::uint32_t sets, bool nested)
    : sets_(sets),
      set_shift_(static_cast<std::uint32_t>(std::countr_zero(sets))),
      nested_(nested) {
  if (!std::has_single_bit(sets)) {
    throw std::invalid_argument("LlcNest set count must be a power of two");
  }
  // Invalid tags sit above every real one (a tag is an address shifted
  // right by at least the line bits): ~0 is odd, ~1 even, so a nested
  // stack starts with 16 of each parity.
  const std::size_t slots = nested_ ? 2 * kWays : kWays;
  tags_.resize(static_cast<std::size_t>(sets_) * slots);
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    tags_[i] = nested_ && i % 2 == 0 ? ~1ULL : ~0ULL;
  }
  if (nested_) odd_.assign(sets_, 0xAAAAAAAAU);
}

}  // namespace edacloud::perf
