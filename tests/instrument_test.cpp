#include <gtest/gtest.h>

#include "perf/instrument.hpp"
#include "util/rng.hpp"

namespace edacloud::perf {
namespace {

std::vector<VmConfig> gp_ladder() {
  const auto ladder = vm_ladder(InstanceFamily::kGeneralPurpose);
  return {ladder.begin(), ladder.end()};
}

void expect_counts_equal(const OpCounts& a, const OpCounts& b) {
  EXPECT_EQ(a.int_ops, b.int_ops);
  EXPECT_EQ(a.fp_ops, b.fp_ops);
  EXPECT_EQ(a.avx_ops, b.avx_ops);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.branch_misses, b.branch_misses);
  EXPECT_EQ(a.l1_accesses, b.l1_accesses);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.llc_accesses, b.llc_accesses);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
}

/// A one-config VM with a hand-picked cache geometry.
VmConfig custom_vm(int vcpus, std::uint64_t l1_bytes,
                   std::uint64_t llc_bytes) {
  VmConfig vm = make_vm(InstanceFamily::kGeneralPurpose, vcpus);
  vm.l1_bytes = l1_bytes;
  vm.llc_bytes = llc_bytes;
  return vm;
}

TEST(InstrumentTest, DisabledInstrumentCountsNothing) {
  Instrument instrument;
  EXPECT_FALSE(instrument.enabled());
  instrument.load(0);
  instrument.int_ops(100);
  instrument.branch(1, true);
  // No configs: counts() has nothing to index; enabled() is the contract.
}

TEST(InstrumentTest, EmptyConfigListThrows) {
  EXPECT_THROW(Instrument(std::vector<VmConfig>{}), std::invalid_argument);
}

TEST(InstrumentTest, OpCountsAccumulate) {
  Instrument instrument(gp_ladder(), 1);
  instrument.int_ops(10);
  instrument.fp_ops(5);
  instrument.avx_ops(3);
  instrument.load(0);
  instrument.store(64);
  const OpCounts counts = instrument.counts(0);
  EXPECT_EQ(counts.int_ops, 10u);
  EXPECT_EQ(counts.fp_ops, 5u);
  EXPECT_EQ(counts.avx_ops, 3u);
  EXPECT_EQ(counts.loads, 1u);
  EXPECT_EQ(counts.stores, 1u);
}

TEST(InstrumentTest, BranchStatsSharedAcrossConfigs) {
  Instrument instrument(gp_ladder(), 1);
  for (int i = 0; i < 100; ++i) instrument.branch(7, true);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(instrument.counts(c).branches, 100u);
  }
}

TEST(InstrumentTest, SamplingScalesReportedAccesses) {
  Instrument instrument(gp_ladder(), 4);
  for (int i = 0; i < 400; ++i) {
    instrument.load(static_cast<std::uint64_t>(i) * 64);
  }
  const OpCounts counts = instrument.counts(0);
  // 100 sampled accesses scaled back by 4.
  EXPECT_EQ(counts.l1_accesses, 400u);
  EXPECT_EQ(counts.loads, 400u);
}

TEST(InstrumentTest, LargerLlcSliceMissesLess) {
  // Stream a working set that exceeds the 1-vCPU LLC slice but fits the
  // 8-vCPU slice: the big slice must see a lower (or equal) miss rate.
  Instrument instrument(gp_ladder(), 1);
  const auto& small = instrument.configs().front();
  const std::uint64_t working_set = small.llc_bytes * 3;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t addr = 0; addr < working_set; addr += 64) {
      instrument.load(addr);
    }
  }
  const double small_rate = instrument.counts(0).llc_miss_rate();
  const double big_rate = instrument.counts(3).llc_miss_rate();
  EXPECT_GT(small_rate, big_rate);
}

TEST(InstrumentTest, PrivateAccessesGrowFootprintWithVcpus) {
  // Thread-private arrays: repeated sweeps of a small private region by
  // many streams. On 1 vCPU all streams share one array (hits); on 8
  // vCPUs eight copies compete, raising misses.
  Instrument instrument(gp_ladder(), 1);
  for (int rep = 0; rep < 40; ++rep) {
    for (std::uint32_t stream = 0; stream < 16; ++stream) {
      for (std::uint64_t addr = 0; addr < 16 * 1024; addr += 64) {
        instrument.load_private(addr, stream);
      }
    }
  }
  const auto c0 = instrument.counts(0);
  const auto c3 = instrument.counts(3);
  // Private L1s keep L1 behaviour identical; the shared LLC sees k times
  // the footprint, so the per-byte relief of the bigger slice shrinks.
  EXPECT_EQ(c3.l1_misses, c0.l1_misses);
  EXPECT_GT(c3.llc_misses + c0.llc_misses, 0u);
}

TEST(InstrumentTest, CountsIndexOutOfRangeThrows) {
  Instrument instrument(gp_ladder(), 1);
  EXPECT_THROW((void)instrument.counts(4), std::out_of_range);
}

TEST(InstrumentTest, AvxFractionComputation) {
  Instrument instrument(gp_ladder(), 1);
  instrument.int_ops(50);
  instrument.avx_ops(50);
  EXPECT_DOUBLE_EQ(instrument.counts(0).avx_fraction(), 0.5);
}

TEST(InstrumentTest, MultiConfigEqualsSingleConfigInstruments) {
  // Configs sharing an L1 geometry share one simulated L1; every config
  // must still read exactly what an Instrument measuring it alone reads.
  // Both ladders (one 8 KiB L1 group) plus a 16 KiB-L1 config (a second
  // group), driven by a seeded mix of every memory event kind.
  std::vector<VmConfig> configs;
  for (const auto family :
       {InstanceFamily::kGeneralPurpose, InstanceFamily::kMemoryOptimized}) {
    const auto ladder = vm_ladder(family);
    configs.insert(configs.end(), ladder.begin(), ladder.end());
  }
  configs.push_back(custom_vm(4, 16 * 1024, 256 * 1024));

  auto drive = [](Instrument& instrument) {
    util::Rng rng(42);
    for (int i = 0; i < 60000; ++i) {
      // A hot 12 KiB region (fits one L1 group, not the other) plus a
      // 1 MiB cold region that pressures the LLC slices.
      const std::uint64_t address = rng.next_below(4) == 0
                                        ? (1ULL << 22) + rng.next_below(1 << 20)
                                        : rng.next_below(12 * 1024);
      switch (rng.next_below(4)) {
        case 0:
          instrument.load(address);
          break;
        case 1:
          instrument.store(address);
          break;
        case 2:
          instrument.load_private(
              address, static_cast<std::uint32_t>(rng.next_below(16)));
          break;
        default:
          instrument.branch(rng.next_below(8), (address & 64) != 0);
          break;
      }
    }
  };

  Instrument combined(configs, 4);
  drive(combined);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(configs[i].name() + " l1=" +
                 std::to_string(configs[i].l1_bytes));
    Instrument alone({configs[i]}, 4);
    drive(alone);
    expect_counts_equal(combined.counts(i), alone.counts(0));
  }
  // The stream actually separates the two L1 geometries.
  EXPECT_NE(combined.counts(0).l1_misses, combined.counts(8).l1_misses);
}

TEST(InstrumentTest, L1HitsNeverReachLlc) {
  Instrument instrument({custom_vm(1, 8 * 1024, 64 * 1024)}, 1);
  instrument.load(0);  // cold: misses both levels
  instrument.load(0);  // L1 hit
  const OpCounts counts = instrument.counts(0);
  EXPECT_EQ(counts.l1_accesses, 2u);
  EXPECT_EQ(counts.l1_misses, 1u);
  EXPECT_EQ(counts.llc_accesses, 1u);  // only the L1 miss
  EXPECT_EQ(counts.llc_misses, 1u);
}

TEST(InstrumentTest, LlcCatchesL1Evictions) {
  Instrument instrument({custom_vm(1, 1024, 1024 * 1024)}, 1);
  // Touch 8 KiB (evicts most of the 1 KiB L1), then re-touch the start.
  for (std::uint64_t addr = 0; addr < 8 * 1024; addr += 64) {
    instrument.load(addr);
  }
  const OpCounts before = instrument.counts(0);
  instrument.load(0);  // L1 miss, LLC hit
  const OpCounts after = instrument.counts(0);
  EXPECT_EQ(after.l1_misses, before.l1_misses + 1);
  EXPECT_EQ(after.llc_accesses, before.llc_accesses + 1);
  EXPECT_EQ(after.llc_misses, before.llc_misses);
}

TEST(InstrumentTest, InterferenceOccupiesLlcOnly) {
  // Two configs with identical caches; only the 2-vCPU one receives
  // phantom co-runner traffic. Cycling a working set that exactly fills
  // the LLC: every phantom line evicts a live one (more LLC misses), yet
  // interference never shows up in the L1 or as LLC accesses.
  Instrument instrument({custom_vm(1, 1024, 8 * 1024),
                         custom_vm(2, 1024, 8 * 1024)},
                        1);
  for (int pass = 0; pass < 20; ++pass) {
    for (std::uint64_t addr = 0; addr < 8 * 1024; addr += 64) {
      instrument.load(addr);
    }
  }
  const OpCounts solo = instrument.counts(0);
  const OpCounts shared = instrument.counts(1);
  EXPECT_EQ(shared.l1_accesses, solo.l1_accesses);
  EXPECT_EQ(shared.l1_misses, solo.l1_misses);
  EXPECT_EQ(shared.llc_accesses, solo.llc_accesses);
  EXPECT_EQ(solo.llc_misses, 8u * 1024 / 64);  // cold misses only
  EXPECT_GT(shared.llc_misses, solo.llc_misses);
}

}  // namespace
}  // namespace edacloud::perf
