#include <gtest/gtest.h>

#include "counter_pins.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"

namespace edacloud::sta {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

nl::Netlist synthesize(const nl::Aig& aig) {
  synth::SynthesisEngine engine(library());
  return engine.synthesize(aig, synth::default_recipe()).netlist;
}

TEST(StaTest, ArrivalsMonotoneAlongCriticalPath) {
  const nl::Netlist netlist = synthesize(workloads::gen_adder(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  ASSERT_GE(report.critical_path.size(), 2u);
  for (std::size_t i = 1; i < report.critical_path.size(); ++i) {
    EXPECT_GE(report.arrival_ps[report.critical_path[i]],
              report.arrival_ps[report.critical_path[i - 1]]);
  }
}

TEST(StaTest, CriticalPathEndsAtWorstOutput) {
  const nl::Netlist netlist = synthesize(workloads::gen_adder(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  double worst = 0.0;
  for (nl::NodeId id : netlist.outputs()) {
    worst = std::max(worst, report.arrival_ps[id]);
  }
  EXPECT_DOUBLE_EQ(report.critical_path_ps, worst);
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_DOUBLE_EQ(report.arrival_ps[report.critical_path.back()], worst);
}

TEST(StaTest, AutoPeriodLeavesPositiveSlack) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  EXPECT_GT(report.worst_slack_ps, 0.0);
  EXPECT_EQ(report.violating_endpoints, 0u);
  EXPECT_NEAR(report.clock_period_ps, report.critical_path_ps * 1.05,
              1e-6);
}

TEST(StaTest, TightClockCreatesViolations) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  StaEngine relaxed;
  const double critical = relaxed.run(netlist, nullptr, {}).critical_path_ps;

  StaOptions options;
  options.clock_period_ps = critical * 0.5;
  StaEngine tight(options);
  const TimingReport report = tight.run(netlist, nullptr, {});
  EXPECT_LT(report.worst_slack_ps, 0.0);
  EXPECT_GT(report.violating_endpoints, 0u);
}

TEST(StaTest, WorstSlackConsistentWithPeriod) {
  const nl::Netlist netlist = synthesize(workloads::gen_parity(16));
  StaOptions options;
  options.clock_period_ps = 10000.0;
  StaEngine engine(options);
  const TimingReport report = engine.run(netlist, nullptr, {});
  EXPECT_NEAR(report.worst_slack_ps,
              options.clock_period_ps - report.critical_path_ps, 1e-6);
}

TEST(StaTest, SlackNonNegativeEverywhereWhenMet) {
  const nl::Netlist netlist = synthesize(workloads::gen_comparator(8));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  for (nl::NodeId id = 0; id < netlist.node_count(); ++id) {
    EXPECT_GE(report.slack_ps[id], -1e-6) << id;
  }
}

TEST(StaTest, PlacementAwareDelaysAreLarger) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  place::QuadraticPlacer placer;
  const auto placement = placer.place(netlist);
  StaEngine engine;
  const double without =
      engine.run(netlist, nullptr, {}).critical_path_ps;
  const double with =
      engine.run(netlist, &placement, {}).critical_path_ps;
  // Real wire lengths generally exceed the fanout-based default estimate
  // for at least part of the die; both must be positive and same order.
  EXPECT_GT(without, 0.0);
  EXPECT_GT(with, 0.0);
  EXPECT_LT(with / without, 50.0);
  EXPECT_GT(with / without, 0.02);
}

TEST(StaTest, DeeperLogicHasLongerCriticalPath) {
  const nl::Netlist shallow = synthesize(workloads::gen_parity(16));
  const nl::Netlist deep = synthesize(workloads::gen_multiplier(8));
  StaEngine engine;
  EXPECT_LT(engine.run(shallow, nullptr, {}).critical_path_ps,
            engine.run(deep, nullptr, {}).critical_path_ps);
}

TEST(StaTest, InstrumentedRunHasFpSignature) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  const auto ladder = perf::vm_ladder(perf::InstanceFamily::kGeneralPurpose);
  StaEngine engine;
  const TimingReport report =
      engine.run(netlist, nullptr, {ladder.begin(), ladder.end()});
  ASSERT_EQ(report.profile.counts.size(), 4u);
  // STA is FP-heavy (library lookups) but less AVX-pure than placement.
  EXPECT_GT(report.profile.counts[0].avx_fraction(), 0.3);
  EXPECT_GT(report.profile.counts[0].fp_ops, 0u);
  EXPECT_GT(report.profile.tasks.task_count(), 0u);
}

TEST(StaTest, BitIdenticalAcrossThreadCounts) {
  // Levelized parallel sweeps must reproduce the serial engine exactly —
  // every timing number and every perf-counter total — at any thread count
  // (two registry-style designs, threads=1 vs threads=4).
  const std::vector<perf::VmConfig> configs = {
      perf::make_vm(perf::InstanceFamily::kGeneralPurpose, 4)};
  for (const nl::Aig& aig :
       {workloads::gen_alu(16), workloads::gen_multiplier(12)}) {
    const nl::Netlist netlist = synthesize(aig);
    place::QuadraticPlacer placer;
    const place::Placement placement = placer.place(netlist);

    StaOptions options;
    options.threads = 1;
    const TimingReport serial =
        StaEngine(options).run(netlist, &placement, configs);
    options.threads = 4;
    const TimingReport parallel =
        StaEngine(options).run(netlist, &placement, configs);

    // Exact equality, not tolerances: determinism means bit-identical.
    EXPECT_EQ(serial.critical_path_ps, parallel.critical_path_ps);
    EXPECT_EQ(serial.clock_period_ps, parallel.clock_period_ps);
    EXPECT_EQ(serial.worst_slack_ps, parallel.worst_slack_ps);
    EXPECT_EQ(serial.violating_endpoints, parallel.violating_endpoints);
    EXPECT_EQ(serial.arrival_ps, parallel.arrival_ps);
    EXPECT_EQ(serial.slack_ps, parallel.slack_ps);
    EXPECT_EQ(serial.slew_ps, parallel.slew_ps);
    EXPECT_EQ(serial.worst_parent, parallel.worst_parent);
    EXPECT_EQ(serial.critical_path, parallel.critical_path);
    EXPECT_EQ(serial.leakage_power_nw, parallel.leakage_power_nw);
    EXPECT_EQ(serial.dynamic_power_uw, parallel.dynamic_power_uw);

    ASSERT_EQ(serial.profile.counts.size(), 1u);
    ASSERT_EQ(parallel.profile.counts.size(), 1u);
    const auto& a = serial.profile.counts[0];
    const auto& b = parallel.profile.counts[0];
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
}

TEST(StaTest, EndpointCountMatchesOutputs) {
  const nl::Netlist netlist = synthesize(workloads::gen_decoder(4));
  StaEngine engine;
  const TimingReport report = engine.run(netlist, nullptr, {});
  EXPECT_EQ(report.endpoint_count, netlist.outputs().size());
}

TEST(StaTest, InstrumentedCountersPinnedOnBenchLadder) {
  // Every counter of an instrumented, placement-aware STA on the
  // benchmark's ladder, pinned: instrumentation refactors must leave the
  // chunk-ordered event stream byte-identical.
  const nl::Netlist netlist = synthesize(workloads::gen_alu(16));
  const place::Placement placement = place::QuadraticPlacer().place(netlist);
  StaOptions options;
  options.threads = 2;
  const TimingReport report =
      StaEngine(options).run(netlist, &placement, pins::bench_ladder());
  pins::expect_ladder_counts(
      report.profile, {{0, 6344, 13371, 4069, 481, 1926, 14, 4552, 424, 424},
                       {424, 424, 424, 424, 424, 424, 424, 424}});
}

}  // namespace
}  // namespace edacloud::sta
