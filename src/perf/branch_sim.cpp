#include "perf/branch_sim.hpp"

#include <stdexcept>

namespace edacloud::perf {

BranchPredictor::BranchPredictor(std::uint32_t table_bits) {
  if (table_bits == 0 || table_bits > 24) {
    throw std::invalid_argument("table_bits out of range");
  }
  mask_ = (1U << table_bits) - 1;
  table_.assign(std::size_t{1} << table_bits, 1);  // weakly not-taken
}

}  // namespace edacloud::perf
