#include <gtest/gtest.h>

#include "counter_pins.hpp"
#include "sim/simulator.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"

namespace edacloud::sim {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

nl::Netlist synthesize(const nl::Aig& aig) {
  synth::SynthesisEngine engine(library());
  return engine.synthesize(aig, synth::default_recipe()).netlist;
}

TEST(SimulationTest, CountsRequestedVectors) {
  const nl::Netlist netlist = synthesize(workloads::gen_adder(8));
  SimOptions options;
  options.vector_count = 1024;
  SimulationEngine engine(options);
  const SimulationResult result = engine.run(netlist, {});
  EXPECT_EQ(result.vector_count, 1024u);
}

TEST(SimulationTest, ToggleRatesInUnitRange) {
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  SimulationEngine engine;
  const SimulationResult result = engine.run(netlist, {});
  EXPECT_GT(result.toggle_count, 0u);
  for (double rate : result.toggle_rate) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  EXPECT_GT(result.average_toggle_rate, 0.05);  // random vectors toggle a lot
  EXPECT_LT(result.average_toggle_rate, 0.95);
}

TEST(SimulationTest, InputsToggleAtHalf) {
  // Random inputs flip each bit with probability 1/2 between vectors.
  const nl::Netlist netlist = synthesize(workloads::gen_parity(16));
  SimulationEngine engine;
  const SimulationResult result = engine.run(netlist, {});
  for (nl::NodeId id : netlist.inputs()) {
    EXPECT_NEAR(result.toggle_rate[id], 0.5, 0.1) << id;
  }
}

TEST(SimulationTest, DeterministicForSameSeed) {
  const nl::Netlist netlist = synthesize(workloads::gen_adder(8));
  SimulationEngine engine;
  const auto a = engine.run(netlist, {});
  const auto b = engine.run(netlist, {});
  EXPECT_EQ(a.toggle_count, b.toggle_count);
}

TEST(SimulationTest, EmbarrassinglyParallelSpeedup) {
  // The paper's premise: simulation scales nearly linearly, unlike the
  // four flow jobs. Check the task-graph speedup approaches the worker
  // count.
  const nl::Netlist netlist = synthesize(workloads::gen_alu(8));
  SimulationEngine engine;
  const SimulationResult result = engine.run(netlist, {});
  EXPECT_GT(result.profile.tasks.speedup(8), 6.5);
  EXPECT_GT(result.profile.tasks.speedup(4), 3.5);
}

TEST(SimulationTest, InstrumentedRunFillsCounters) {
  const nl::Netlist netlist = synthesize(workloads::gen_adder(8));
  const auto ladder = perf::vm_ladder(perf::InstanceFamily::kGeneralPurpose);
  SimOptions options;
  options.vector_count = 512;
  SimulationEngine engine(options);
  const SimulationResult result =
      engine.run(netlist, {ladder.begin(), ladder.end()});
  ASSERT_EQ(result.profile.counts.size(), 4u);
  EXPECT_GT(result.profile.counts[0].int_ops, 0u);
  EXPECT_GT(result.profile.counts[0].loads, 0u);
  // Simulation branches are loop control: highly predictable.
  EXPECT_LT(result.profile.counts[0].branch_miss_rate(), 0.05);
}

TEST(SimulationTest, InstrumentedCountersPinnedOnBenchLadder) {
  // Every counter of an instrumented simulation on the benchmark's ladder,
  // pinned: instrumentation refactors must leave the event stream
  // byte-identical.
  const nl::Netlist netlist = synthesize(workloads::gen_alu(16));
  const SimulationResult result =
      SimulationEngine().run(netlist, pins::bench_ladder());
  pins::expect_ladder_counts(
      result.profile, {{246400, 0, 0, 123264, 0, 61568, 13, 123264, 252, 252},
                       {252, 252, 252, 252, 252, 252, 252, 252}});
}

}  // namespace
}  // namespace edacloud::sim
