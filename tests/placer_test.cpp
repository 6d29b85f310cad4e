#include <gtest/gtest.h>

#include "counter_pins.hpp"
#include <algorithm>
#include <cmath>
#include <map>

#include "util/rng.hpp"

#include "place/placer.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"

namespace edacloud::place {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

nl::Netlist synthesize(const nl::Aig& aig) {
  synth::SynthesisEngine engine(library());
  return engine.synthesize(aig, synth::default_recipe()).netlist;
}

class PlacerTest : public ::testing::Test {
 protected:
  nl::Netlist netlist_ = synthesize(workloads::gen_alu(8));
};

TEST_F(PlacerTest, PlacementCoversAllNodes) {
  QuadraticPlacer placer;
  const Placement placement = placer.place(netlist_);
  EXPECT_TRUE(placement.valid_for(netlist_));
  EXPECT_GT(placement.die_width_um, 0.0);
}

TEST_F(PlacerTest, CellsInsideDie) {
  QuadraticPlacer placer;
  const Placement placement = placer.place(netlist_);
  for (nl::NodeId id = 0; id < netlist_.node_count(); ++id) {
    EXPECT_GE(placement.x[id], -1e-9);
    EXPECT_LE(placement.x[id], placement.die_width_um + 1e-9);
    EXPECT_GE(placement.y[id], -1e-9);
    EXPECT_LE(placement.y[id], placement.die_height_um + 1e-9);
  }
}

TEST_F(PlacerTest, CellsSnappedToRows) {
  QuadraticPlacer placer;
  const Placement placement = placer.place(netlist_);
  for (nl::NodeId id = 0; id < netlist_.node_count(); ++id) {
    if (!netlist_.is_cell(id)) continue;
    const double row_pos = placement.y[id] / placement.row_height_um - 0.5;
    EXPECT_NEAR(row_pos, std::round(row_pos), 1e-6) << id;
  }
}

TEST_F(PlacerTest, NoCellOverlapWithinRows) {
  QuadraticPlacer placer;
  const Placement placement = placer.place(netlist_);
  // Group cells by row; check x-intervals don't overlap.
  std::map<int, std::vector<std::pair<double, double>>> rows;
  for (nl::NodeId id = 0; id < netlist_.node_count(); ++id) {
    if (!netlist_.is_cell(id)) continue;
    const int row = static_cast<int>(placement.y[id] /
                                     placement.row_height_um);
    const double width = library()
                             .cell(netlist_.node(id).cell)
                             .area_um2 /
                         placement.row_height_um;
    rows[row].emplace_back(placement.x[id], placement.x[id] + width);
  }
  for (auto& [row, intervals] : rows) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-6)
          << "row " << row;
    }
  }
}

TEST_F(PlacerTest, PadsOnPeriphery) {
  QuadraticPlacer placer;
  const Placement placement = placer.place(netlist_);
  for (nl::NodeId id : netlist_.inputs()) {
    const bool on_edge =
        placement.x[id] < 1e-9 ||
        placement.x[id] > placement.die_width_um - 1e-9 ||
        placement.y[id] < 1e-9 ||
        placement.y[id] > placement.die_height_um - 1e-9;
    EXPECT_TRUE(on_edge) << id;
  }
}

TEST_F(PlacerTest, HpwlBetterThanRandomPlacement) {
  QuadraticPlacer placer;
  const PlacementResult result = placer.run(netlist_, {});
  // Random baseline: scatter cells uniformly.
  Placement random = result.placement;
  util::Rng rng(3);
  for (nl::NodeId id = 0; id < netlist_.node_count(); ++id) {
    if (!netlist_.is_cell(id)) continue;
    random.x[id] = rng.next_double(0.0, random.die_width_um);
    random.y[id] = rng.next_double(0.0, random.die_height_um);
  }
  EXPECT_LT(result.hpwl_um, hpwl_um(netlist_, random));
}

TEST_F(PlacerTest, DeterministicAcrossRuns) {
  QuadraticPlacer placer;
  const Placement a = placer.place(netlist_);
  const Placement b = placer.place(netlist_);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
}

TEST_F(PlacerTest, InstrumentedRunProducesProfile) {
  const auto ladder = perf::vm_ladder(perf::InstanceFamily::kMemoryOptimized);
  QuadraticPlacer placer;
  const PlacementResult result =
      placer.run(netlist_, {ladder.begin(), ladder.end()});
  ASSERT_EQ(result.profile.counts.size(), 4u);
  EXPECT_GT(result.profile.counts[0].avx_ops, 0u);
  EXPECT_GT(result.profile.tasks.task_count(), 0u);
  EXPECT_GT(result.solver_iterations, 0);
  // Placement is the AVX-heavy job (Fig. 2c).
  EXPECT_GT(result.profile.counts[0].avx_fraction(), 0.5);
}

TEST_F(PlacerTest, SpeedupCurveIsSane) {
  const auto ladder = perf::vm_ladder(perf::InstanceFamily::kMemoryOptimized);
  QuadraticPlacer placer;
  const PlacementResult result =
      placer.run(netlist_, {ladder.begin(), ladder.end()});
  const auto measurement = perf::measure(result.profile, {});
  EXPECT_DOUBLE_EQ(measurement.speedup[0], 1.0);
  EXPECT_GT(measurement.speedup[3], 1.0);
  EXPECT_LT(measurement.speedup[3], 16.0);
}

TEST(PlacerOptionsTest, MoreGlobalIterationsStillLegal) {
  PlacerOptions options;
  options.global_iterations = 3;
  QuadraticPlacer placer(options);
  const nl::Netlist netlist = synthesize(workloads::gen_adder(16));
  const Placement placement = placer.place(netlist);
  EXPECT_TRUE(placement.valid_for(netlist));
}

TEST(PlacerEdgeTest, TinyNetlistPlaces) {
  const nl::CellLibrary& lib = library();
  nl::Netlist n("tiny", &lib);
  const auto a = n.add_input();
  const auto g = n.add_cell(*lib.find("INV_X1"), {a});
  n.add_output(g);
  QuadraticPlacer placer;
  const Placement placement = placer.place(n);
  EXPECT_TRUE(placement.valid_for(n));
}

TEST(PlacerPinTest, InstrumentedCountersPinnedOnBenchLadder) {
  // Every counter of an instrumented placement on the benchmark's ladder,
  // pinned: instrumentation refactors must leave the event stream
  // byte-identical.
  const nl::Netlist netlist = synthesize(workloads::gen_alu(16));
  const PlacementResult result =
      QuadraticPlacer().run(netlist, pins::bench_ladder());
  EXPECT_EQ(result.solver_iterations, 103);
  pins::expect_ladder_counts(
      result.profile, {{31706, 0, 920150, 181923, 926, 7424, 167, 182852, 61348,
                        61348},
                       {1752, 1752, 1752, 2280, 1752, 1752, 1752, 2280}});
}

}  // namespace
}  // namespace edacloud::place
