#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>

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

/// FNV-1a over every element's bits (a double by its IEEE-754 pattern).
template <typename T>
std::uint64_t hash_values(const std::vector<T>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const T& value : values) {
    std::uint64_t bits = 0;
    if constexpr (std::is_same_v<T, double>) {
      bits = std::bit_cast<std::uint64_t>(value);
    } else {
      bits = value;
    }
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(StaTest, TimingReportPinned) {
  // Every scalar of a placement-aware timing report as an exact double and
  // every per-node array as a hash. The power sums fold 256-node block
  // partials in block order; a single running sum would move their bits.
  struct Case {
    const char* name;
    nl::Aig aig;
    double critical_path_ps;
    double clock_period_ps;
    double worst_slack_ps;
    std::size_t violating_endpoints;
    double leakage_power_nw;
    double dynamic_power_uw;
    std::uint64_t arrival_hash;
    std::uint64_t slack_hash;
    std::uint64_t slew_hash;
    std::uint64_t worst_parent_hash;
    std::uint64_t critical_path_hash;
  };
  const Case cases[] = {
      {"alu16", workloads::gen_alu(16), 0x1.1ee98f08c338p+11,
       0x1.2d420962ccfadp+11, 0x1.cb0f4b41385ap+6, 0, 0x1.da4ccccccccd6p+8,
       0x1.f4b48f52877c8p-6, 9871761754733966832ULL, 9166079996431096450ULL,
       164987021353442025ULL, 8012762717317768556ULL,
       4542462333357124393ULL},
      {"mul12", workloads::gen_multiplier(12), 0x1.c7ffd1db91ca7p+11,
       0x1.decc9c59bf7bp+11, 0x1.6ccca7e2db09p+7, 0, 0x1.1e1333333333cp+10,
       0x1.fd27f5e17abacp-5, 792028506441723914ULL, 1257946088734987801ULL,
       6214728539288807528ULL, 15943059201324948974ULL,
       6435590141341946917ULL},
  };
  for (const Case& pin : cases) {
    SCOPED_TRACE(pin.name);
    const nl::Netlist netlist = synthesize(pin.aig);
    const place::Placement placement = place::QuadraticPlacer().place(netlist);
    const TimingReport report = StaEngine().run(netlist, &placement, {});
    EXPECT_EQ(report.critical_path_ps, pin.critical_path_ps);
    EXPECT_EQ(report.clock_period_ps, pin.clock_period_ps);
    EXPECT_EQ(report.worst_slack_ps, pin.worst_slack_ps);
    EXPECT_EQ(report.violating_endpoints, pin.violating_endpoints);
    EXPECT_EQ(report.leakage_power_nw, pin.leakage_power_nw);
    EXPECT_EQ(report.dynamic_power_uw, pin.dynamic_power_uw);
    EXPECT_EQ(hash_values(report.arrival_ps), pin.arrival_hash);
    EXPECT_EQ(hash_values(report.slack_ps), pin.slack_hash);
    EXPECT_EQ(hash_values(report.slew_ps), pin.slew_hash);
    EXPECT_EQ(hash_values(report.worst_parent), pin.worst_parent_hash);
    EXPECT_EQ(hash_values(report.critical_path), pin.critical_path_hash);
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
  // serial event stream byte-identical.
  const nl::Netlist netlist = synthesize(workloads::gen_alu(16));
  const place::Placement placement = place::QuadraticPlacer().place(netlist);
  const TimingReport report =
      StaEngine().run(netlist, &placement, pins::bench_ladder());
  pins::expect_ladder_counts(
      report.profile, {{0, 6344, 13371, 4069, 481, 1926, 14, 4552, 424, 424},
                       {424, 424, 424, 424, 424, 424, 424, 424}});
}

}  // namespace
}  // namespace edacloud::sta
