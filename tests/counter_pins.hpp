#pragma once
// Shared by the stage engines' InstrumentedCountersPinnedOnBenchLadder
// tests: the benchmark's VM ladder and an exact check of every counter an
// instrumented run reports on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "perf/runtime_model.hpp"
#include "perf/vm.hpp"

namespace edacloud::pins {

/// The benchmark's characterization ladder: general-purpose and
/// memory-optimized at 1/2/4/8 vCPUs (8 configs, one shared L1 geometry).
inline std::vector<perf::VmConfig> bench_ladder() {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    const auto ladder = perf::vm_ladder(family);
    configs.insert(configs.end(), ladder.begin(), ladder.end());
  }
  return configs;
}

/// Every bench_ladder() config shares the 8 KiB L1, so only llc_misses
/// varies along the ladder.
struct LadderCounts {
  /// {int, fp, avx, loads, stores, branches, branch_misses, l1_accesses,
  /// l1_misses, llc_accesses}
  std::uint64_t shared[10];
  std::uint64_t llc_misses[8];  // in bench_ladder() order
};

/// Every OpCounts field of `profile` on bench_ladder() equals `pin`. On a
/// mismatch the message carries the measured values in pin layout.
inline void expect_ladder_counts(const perf::JobProfile& profile,
                                 const LadderCounts& pin) {
  ASSERT_EQ(profile.counts.size(), 8u);
  LadderCounts got{};
  bool equal = true;
  for (std::size_t i = 0; i < 8; ++i) {
    const perf::OpCounts& c = profile.counts[i];
    const std::uint64_t shared[10] = {
        c.int_ops,   c.fp_ops,   c.avx_ops,       c.loads,
        c.stores,    c.branches, c.branch_misses, c.l1_accesses,
        c.l1_misses, c.llc_accesses};
    for (std::size_t f = 0; f < 10; ++f) {
      if (i == 0) got.shared[f] = shared[f];
      equal = equal && shared[f] == pin.shared[f];
    }
    got.llc_misses[i] = c.llc_misses;
    equal = equal && c.llc_misses == pin.llc_misses[i];
  }
  if (equal) return;
  std::ostringstream measured;
  measured << "measured {{";
  for (std::size_t f = 0; f < 10; ++f) {
    measured << (f == 0 ? "" : ", ") << got.shared[f];
  }
  measured << "}, {";
  for (std::size_t i = 0; i < 8; ++i) {
    measured << (i == 0 ? "" : ", ") << got.llc_misses[i];
  }
  measured << "}}";
  ADD_FAILURE() << "counters differ from the pin; " << measured.str();
}

}  // namespace edacloud::pins
