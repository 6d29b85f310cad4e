#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "perf/instrument.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"

namespace edacloud::route {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

struct PlacedDesign {
  nl::Netlist netlist;
  place::Placement placement;
};

PlacedDesign prepare(const nl::Aig& aig) {
  synth::SynthesisEngine engine(library());
  PlacedDesign design;
  design.netlist = engine.synthesize(aig, synth::default_recipe()).netlist;
  place::QuadraticPlacer placer;
  design.placement = placer.place(design.netlist);
  return design;
}

TEST(RouterTest, RoutesAllConnections) {
  const PlacedDesign design = prepare(workloads::gen_alu(8));
  GridRouter router;
  const RoutingResult result =
      router.run(design.netlist, design.placement, {});
  EXPECT_GT(result.connection_count, 0u);
  EXPECT_EQ(result.routed_count, result.connection_count);
  EXPECT_GT(result.wirelength_gedges, 0u);
}

TEST(RouterTest, GridSizeWithinBounds) {
  const PlacedDesign design = prepare(workloads::gen_adder(8));
  RouterOptions options;
  options.min_grid = 8;
  options.max_grid = 32;
  GridRouter router(options);
  const RoutingResult result =
      router.run(design.netlist, design.placement, {});
  EXPECT_GE(result.grid_size, 8);
  EXPECT_LE(result.grid_size, 32);
}

TEST(RouterTest, RipUpReducesOverflowUnderPressure) {
  const PlacedDesign design = prepare(workloads::gen_alu(12));
  RouterOptions tight;
  tight.edge_capacity = 6;  // force congestion
  tight.max_rrr_iterations = 0;
  GridRouter no_rrr(tight);
  const auto before = no_rrr.run(design.netlist, design.placement, {});

  tight.max_rrr_iterations = 4;
  GridRouter with_rrr(tight);
  const auto after = with_rrr.run(design.netlist, design.placement, {});
  EXPECT_LE(after.overflowed_edges, before.overflowed_edges);
}

TEST(RouterTest, WavesDoNotExceedConnections) {
  const PlacedDesign design = prepare(workloads::gen_alu(8));
  GridRouter router;
  const RoutingResult result =
      router.run(design.netlist, design.placement, {});
  EXPECT_GT(result.wave_count, 0u);
  EXPECT_LE(result.wave_count, result.routed_count * 5);  // incl. reroutes
}

TEST(RouterTest, DeterministicAcrossRuns) {
  const PlacedDesign design = prepare(workloads::gen_adder(12));
  GridRouter router;
  const auto a = router.run(design.netlist, design.placement, {});
  const auto b = router.run(design.netlist, design.placement, {});
  EXPECT_EQ(a.wirelength_gedges, b.wirelength_gedges);
  EXPECT_EQ(a.total_expansions, b.total_expansions);
}

TEST(RouterTest, WirelengthAtLeastManhattanLowerBound) {
  // Every routed connection uses at least the Manhattan distance in grid
  // edges; the total wirelength cannot beat the sum of distances.
  const PlacedDesign design = prepare(workloads::gen_adder(8));
  GridRouter router;
  const RoutingResult result =
      router.run(design.netlist, design.placement, {});
  // Recompute the lower bound from gcell coordinates.
  const int grid = result.grid_size;
  const auto fanout = design.netlist.build_fanout_csr();
  auto gcell = [&](nl::NodeId node) {
    const int gx = std::clamp(
        static_cast<int>(design.placement.x[node] /
                         design.placement.die_width_um * grid),
        0, grid - 1);
    const int gy = std::clamp(
        static_cast<int>(design.placement.y[node] /
                         design.placement.die_height_um * grid),
        0, grid - 1);
    return std::pair<int, int>(gx, gy);
  };
  std::uint64_t lower_bound = 0;
  for (nl::NodeId driver = 0; driver < design.netlist.node_count();
       ++driver) {
    const auto [begin, end] = fanout.range(driver);
    const auto [sx, sy] = gcell(driver);
    for (std::uint32_t e = begin; e < end; ++e) {
      const auto [tx, ty] = gcell(fanout.targets[e]);
      lower_bound += static_cast<std::uint64_t>(std::abs(sx - tx) +
                                                std::abs(sy - ty));
    }
  }
  EXPECT_GE(result.wirelength_gedges, lower_bound);
}

TEST(RouterTest, InstrumentedRunHasBranchHeavySignature) {
  const PlacedDesign design = prepare(workloads::gen_alu(8));
  const auto ladder = perf::vm_ladder(perf::InstanceFamily::kMemoryOptimized);
  GridRouter router;
  const RoutingResult result = router.run(design.netlist, design.placement,
                                          {ladder.begin(), ladder.end()});
  ASSERT_EQ(result.profile.counts.size(), 4u);
  const auto& counts = result.profile.counts[0];
  EXPECT_GT(counts.branches, 0u);
  // Routing's graph search has data-dependent branches (Fig. 2a).
  EXPECT_GT(counts.branch_miss_rate(), 0.05);
  EXPECT_EQ(counts.avx_ops, 0u);
}

TEST(RouterTest, LargerDesignScalesBetter) {
  // Same structural family so only the size differs (Fig. 3's premise).
  const PlacedDesign small = prepare(workloads::gen_multiplier(6));
  const PlacedDesign large = prepare(workloads::gen_multiplier(16));
  GridRouter router;
  const auto rs = router.run(small.netlist, small.placement, {});
  const auto rl = router.run(large.netlist, large.placement, {});
  const double speedup_small = rs.profile.tasks.speedup(8);
  const double speedup_large = rl.profile.tasks.speedup(8);
  EXPECT_GE(speedup_large, speedup_small * 0.7);  // weakly ordered (Fig. 3)
}

/// The benchmark's characterization ladder: general-purpose and
/// memory-optimized at 1/2/4/8 vCPUs (8 configs, one shared L1 geometry).
std::vector<perf::VmConfig> bench_ladder() {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    const auto ladder = perf::vm_ladder(family);
    configs.insert(configs.end(), ladder.begin(), ladder.end());
  }
  return configs;
}

TEST(RouterTest, InstrumentedCountersPinnedOnBenchLadder) {
  // Every counter of an instrumented route on the benchmark's ladder,
  // pinned: instrumentation speed work must leave them byte-identical.
  const PlacedDesign design = prepare(workloads::gen_alu(16));
  const auto result =
      GridRouter().run(design.netlist, design.placement, bench_ladder());
  // Every config shares the 8 KiB L1, so only llc_misses varies along the
  // ladder. Shared fields: {int, fp, avx, loads, stores, branches,
  // branch_misses, l1_accesses, l1_misses, llc_accesses}.
  constexpr std::uint64_t kShared[10] = {782648, 196431, 0,      149616,
                                         14199,  141088, 15094,  163816,
                                         58524,  58524};
  // llc_misses, in bench_ladder() order.
  constexpr std::uint64_t kLlcMisses[8] = {3352, 3912, 5000, 7036,
                                           3352, 3912, 5000, 6904};
  EXPECT_EQ(result.total_expansions, 18488u);
  ASSERT_EQ(result.profile.counts.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    SCOPED_TRACE(result.profile.configs[i].name());
    const auto& c = result.profile.counts[i];
    const std::uint64_t shared[10] = {
        c.int_ops,  c.fp_ops,   c.avx_ops,       c.loads,
        c.stores,   c.branches, c.branch_misses, c.l1_accesses,
        c.l1_misses, c.llc_accesses};
    for (std::size_t f = 0; f < 10; ++f) {
      EXPECT_EQ(shared[f], kShared[f]) << "field " << f;
    }
    EXPECT_EQ(c.llc_misses, kLlcMisses[i]);
  }
}

TEST(RouterTest, RouteIntoSinkGivesRunsCounters) {
  // route() into a sink on a fresh Instrument reports the whole event
  // stream of run(): the Instrument ends with run()'s counters, and the
  // routing itself is the same.
  const PlacedDesign design = prepare(workloads::gen_alu(8));
  const std::vector<perf::VmConfig> configs = bench_ladder();
  const auto result = GridRouter().run(design.netlist, design.placement,
                                       configs);
  perf::Instrument instrument(configs);
  const auto routed = GridRouter().route(design.netlist, design.placement,
                                         perf::Sink(instrument));
  EXPECT_EQ(routed.connection_edges, result.connection_edges);
  EXPECT_EQ(routed.total_expansions, result.total_expansions);
  EXPECT_TRUE(routed.profile.counts.empty());
  ASSERT_EQ(result.profile.counts.size(), configs.size());
  EXPECT_GT(result.profile.counts[0].loads, 0u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(configs[i].name());
    const auto& a = result.profile.counts[i];
    const auto b = instrument.counts(i);
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

/// FNV-1a over every connection's edge list (length, then edges).
std::uint64_t hash_paths(
    const std::vector<std::vector<std::uint32_t>>& paths) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& path : paths) {
    mix(path.size());
    for (std::uint32_t edge : path) mix(edge);
  }
  return hash;
}

TEST(RouterTest, RoutedPathsPinned) {
  // The routed paths themselves, pinned: search scheduling work must not
  // move a single edge. The congested case runs rip-up rounds.
  struct Case {
    const char* name;
    nl::Aig aig;
    int edge_capacity;
    std::uint64_t paths_hash;
    std::uint64_t wirelength;
    std::size_t overflowed;
    int rrr_iterations;
  };
  const Case cases[] = {
      {"alu16", workloads::gen_alu(16), 32, 13251797010077753429ULL, 7570, 3,
       3},
      {"mul12-congested", workloads::gen_multiplier(12), 6,
       5599566846163879853ULL, 13250, 926, 3},
  };
  for (const Case& pin : cases) {
    SCOPED_TRACE(pin.name);
    const PlacedDesign design = prepare(pin.aig);
    RouterOptions options;
    options.edge_capacity = pin.edge_capacity;
    const auto result =
        GridRouter(options).run(design.netlist, design.placement, {});
    EXPECT_EQ(hash_paths(result.connection_edges), pin.paths_hash);
    EXPECT_EQ(result.wirelength_gedges, pin.wirelength);
    EXPECT_EQ(result.overflowed_edges, pin.overflowed);
    EXPECT_EQ(result.rrr_iterations, pin.rrr_iterations);
  }
}

/// The `searched` counter of every route/initial and route/ripup span of
/// one routing run, in span order (-1 for a span without one: the rip-up
/// round that found no overflow).
std::vector<double> searched_per_span(const GridRouter& router,
                                      const PlacedDesign& design) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable(obs::ClockMode::kVirtual);
  (void)router.run(design.netlist, design.placement, {});
  tracer.disable();
  std::vector<double> searched;
  for (const obs::TraceEvent& event : tracer.snapshot()) {
    if (event.name != "route/initial" && event.name != "route/ripup") {
      continue;
    }
    double count = -1.0;
    for (const obs::TraceArg& arg : event.args) {
      if (arg.key == "searched") count = arg.value;
    }
    searched.push_back(count);
  }
  tracer.clear();
  return searched;
}

TEST(RouterTest, SearchCountersOnSpansAreExact) {
  // `searched` on the route spans is an exact count: the initial batch
  // searches every connection once, and each rip-up batch searches every
  // connection it ripped up once.
  const PlacedDesign design = prepare(workloads::gen_alu(16));
  const auto result = GridRouter().run(design.netlist, design.placement, {});
  ASSERT_GT(result.rrr_iterations, 0);
  const std::vector<double> searched = searched_per_span(GridRouter(), design);
  ASSERT_GE(searched.size(), 2u);
  EXPECT_EQ(searched[0], static_cast<double>(result.connection_count));
  EXPECT_GT(searched[1], 0.0);
}

TEST(RouterTest, StepCostMovesWithUsageOnlyPastTheKnee) {
  // Congestion is priced only past the 0.8 knee: below 80% of capacity a
  // usage bump leaves the step cost bit-identical; the bump that crosses
  // the knee, and every one after it, changes it.
  const RouterOptions options;
  const std::uint16_t capacity = 10;
  for (const float history : {0.0f, 1.0f, 2.5f}) {
    SCOPED_TRACE(history);
    for (std::uint16_t usage = 0; usage < 8; ++usage) {
      EXPECT_EQ(step_cost(usage + 1, capacity, history, options),
                step_cost(usage, capacity, history, options))
          << "usage " << usage;
    }
    for (std::uint16_t usage = 8; usage < 14; ++usage) {
      EXPECT_GT(step_cost(usage + 1, capacity, history, options),
                step_cost(usage, capacity, history, options))
          << "usage " << usage;
    }
  }
  EXPECT_EQ(step_cost(0, capacity, 0.0f, options), 1.0f);
}

TEST(RouterTest, EmptyNetlistRoutesTrivially) {
  nl::Netlist netlist("empty", &library());
  place::Placement placement;
  placement.die_width_um = 10;
  placement.die_height_um = 10;
  GridRouter router;
  const RoutingResult result = router.run(netlist, placement, {});
  EXPECT_EQ(result.connection_count, 0u);
  EXPECT_EQ(result.wirelength_gedges, 0u);
}

}  // namespace
}  // namespace edacloud::route
