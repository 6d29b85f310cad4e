// The flow's cross-width gate: an instrumented end-to-end flow must produce
// bit-identical output — every QoR number and every perf-counter total — at
// a flow and global pool width of 1 and of 8, on every design in the
// characterization set. No stage engine takes a width today; if a parallel
// section comes back and leaks scheduling order into its results, this is
// the test that catches it.

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

namespace edacloud::core {
namespace {

void expect_counts_equal(const perf::OpCounts& a, const perf::OpCounts& b,
                         const std::string& where) {
  EXPECT_EQ(a.int_ops, b.int_ops) << where;
  EXPECT_EQ(a.fp_ops, b.fp_ops) << where;
  EXPECT_EQ(a.avx_ops, b.avx_ops) << where;
  EXPECT_EQ(a.loads, b.loads) << where;
  EXPECT_EQ(a.stores, b.stores) << where;
  EXPECT_EQ(a.branches, b.branches) << where;
  EXPECT_EQ(a.branch_misses, b.branch_misses) << where;
  EXPECT_EQ(a.l1_accesses, b.l1_accesses) << where;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << where;
  EXPECT_EQ(a.llc_accesses, b.llc_accesses) << where;
  EXPECT_EQ(a.llc_misses, b.llc_misses) << where;
}

TEST(FlowDeterminismTest, EveryDesignBitIdenticalAtOneAndEightThreads) {
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  const std::vector<perf::VmConfig> configs = {
      perf::make_vm(perf::InstanceFamily::kGeneralPurpose, 4)};

  for (const workloads::NamedDesign& named :
       workloads::characterization_designs()) {
    SCOPED_TRACE(named.name);
    const nl::Aig design = workloads::generate(named.spec);

    FlowOptions options;
    options.threads = 1;
    util::set_global_thread_count(1);
    const FlowResult serial = EdaFlow(library, options).run(design, configs);
    options.threads = 8;
    util::set_global_thread_count(8);
    const FlowResult wide = EdaFlow(library, options).run(design, configs);

    // QoR, stage by stage.
    EXPECT_EQ(serial.synthesis.mapped.cell_count,
              wide.synthesis.mapped.cell_count);
    EXPECT_EQ(serial.placement.hpwl_um, wide.placement.hpwl_um);
    EXPECT_EQ(serial.routing.routed_count, wide.routing.routed_count);
    EXPECT_EQ(serial.routing.wirelength_gedges,
              wide.routing.wirelength_gedges);
    EXPECT_EQ(serial.routing.overflowed_edges, wide.routing.overflowed_edges);
    EXPECT_EQ(serial.routing.total_expansions, wide.routing.total_expansions);
    EXPECT_EQ(serial.timing.critical_path_ps, wide.timing.critical_path_ps);
    EXPECT_EQ(serial.timing.worst_slack_ps, wide.timing.worst_slack_ps);
    EXPECT_EQ(serial.timing.arrival_ps, wide.timing.arrival_ps);
    EXPECT_EQ(serial.timing.leakage_power_nw, wide.timing.leakage_power_nw);
    EXPECT_EQ(serial.timing.dynamic_power_uw, wide.timing.dynamic_power_uw);

    // Perf-counter totals for every stage.
    for (int j = 0; j < kJobCount; ++j) {
      const auto job = static_cast<JobKind>(j);
      const std::array<const perf::JobProfile*, kJobCount> serial_profiles = {
          &serial.synthesis.profile, &serial.placement.profile,
          &serial.routing.profile, &serial.timing.profile};
      const std::array<const perf::JobProfile*, kJobCount> wide_profiles = {
          &wide.synthesis.profile, &wide.placement.profile,
          &wide.routing.profile, &wide.timing.profile};
      ASSERT_EQ(serial_profiles[j]->counts.size(), 1u) << job_name(job);
      ASSERT_EQ(wide_profiles[j]->counts.size(), 1u) << job_name(job);
      expect_counts_equal(serial_profiles[j]->counts[0],
                          wide_profiles[j]->counts[0], job_name(job));
    }
  }
  util::set_global_thread_count(1);
}

}  // namespace
}  // namespace edacloud::core
