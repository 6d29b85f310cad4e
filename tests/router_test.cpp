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

TEST(PatternRouteTest, ServesShortConnections) {
  const PlacedDesign design = prepare(workloads::gen_adder(16));
  RouterOptions options;
  options.pattern_route = true;
  GridRouter router(options);
  const RoutingResult result =
      router.run(design.netlist, design.placement, {});
  EXPECT_GT(result.pattern_routed, result.routed_count / 2);
  EXPECT_EQ(result.routed_count, result.connection_count);
}

TEST(PatternRouteTest, WirelengthCloseToMazeRouter) {
  const PlacedDesign design = prepare(workloads::gen_alu(12));
  RouterOptions options;
  options.pattern_route = true;
  GridRouter with_patterns(options);
  options.pattern_route = false;
  GridRouter maze_only(options);
  const auto fast = with_patterns.run(design.netlist, design.placement, {});
  const auto slow = maze_only.run(design.netlist, design.placement, {});
  // Patterns are distance-optimal per connection; the total wirelength
  // must stay in the same ballpark as the congestion-aware maze.
  EXPECT_LT(fast.wirelength_gedges,
            slow.wirelength_gedges + slow.wirelength_gedges / 2);
  EXPECT_LT(fast.total_expansions, slow.total_expansions);
}

TEST(PatternRouteTest, RespectsCongestionLimit) {
  const PlacedDesign design = prepare(workloads::gen_alu(12));
  RouterOptions options;
  options.pattern_route = true;
  options.edge_capacity = 6;  // heavy congestion: patterns must back off
  GridRouter router(options);
  const RoutingResult result =
      router.run(design.netlist, design.placement, {});
  EXPECT_EQ(result.routed_count, result.connection_count);
  EXPECT_LT(result.pattern_routed, result.connection_count);
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
  RouterOptions options;
  options.threads = 2;
  const auto result = GridRouter(options).run(design.netlist,
                                              design.placement, bench_ladder());
  // Every config shares the 8 KiB L1, so only llc_misses varies along the
  // ladder. Shared fields: {int, fp, avx, loads, stores, branches,
  // branch_misses, l1_accesses, l1_misses, llc_accesses}.
  constexpr std::uint64_t kShared[10] = {781886, 196245, 0,      149473,
                                         14199,  140950, 15126,  163672,
                                         59432,  59432};
  // llc_misses, in bench_ladder() order.
  constexpr std::uint64_t kLlcMisses[8] = {3348, 3908, 4996, 7240,
                                           3348, 3908, 4992, 7020};
  EXPECT_EQ(result.total_expansions, 34627u);
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

TEST(RouterTest, ReplayedLogsReproduceCounters) {
  // The logs an instrumented run hands back are its whole event stream:
  // replayed into a fresh Instrument they give the run's counters.
  const PlacedDesign design = prepare(workloads::gen_alu(8));
  const std::vector<perf::VmConfig> configs = bench_ladder();
  std::vector<perf::EventLog> logs;
  const auto result =
      GridRouter().run(design.netlist, design.placement, configs, &logs);
  ASSERT_FALSE(logs.empty());
  perf::Instrument instrument(configs);
  for (const perf::EventLog& log : logs) instrument.replay(log);
  ASSERT_EQ(result.profile.counts.size(), configs.size());
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

TEST(RouterTest, BitIdenticalAcrossThreadCounts) {
  // The determinism guarantee of the batched parallel router: QoR and the
  // per-config perf-counter totals must be exactly equal at any thread
  // count (two registry-style designs on the 8-config ladder, threads 1, 2
  // and 4 — the instrumented two-pass rounds and the shared-L1 fan-out).
  const std::vector<perf::VmConfig> configs = bench_ladder();
  for (const nl::Aig& aig :
       {workloads::gen_alu(16), workloads::gen_multiplier(12)}) {
    const PlacedDesign design = prepare(aig);
    RouterOptions options;
    options.threads = 1;
    const auto serial =
        GridRouter(options).run(design.netlist, design.placement, configs);
    ASSERT_EQ(serial.profile.counts.size(), configs.size());
    for (const int threads : {2, 4}) {
      SCOPED_TRACE(threads);
      options.threads = threads;
      const auto parallel =
          GridRouter(options).run(design.netlist, design.placement, configs);

      EXPECT_EQ(serial.routed_count, parallel.routed_count);
      EXPECT_EQ(serial.wirelength_gedges, parallel.wirelength_gedges);
      EXPECT_EQ(serial.overflowed_edges, parallel.overflowed_edges);
      EXPECT_EQ(serial.total_expansions, parallel.total_expansions);
      EXPECT_EQ(serial.wave_count, parallel.wave_count);
      EXPECT_EQ(serial.connection_edges, parallel.connection_edges);

      ASSERT_EQ(parallel.profile.counts.size(), configs.size());
      for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].name());
        const auto& a = serial.profile.counts[i];
        const auto& b = parallel.profile.counts[i];
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
  // The routed paths themselves, pinned at every thread count: search
  // scheduling work must not move a single edge. The congested case runs
  // the L-pattern fast path, rip-up rounds and the straggler tail.
  struct Case {
    const char* name;
    nl::Aig aig;
    int edge_capacity;
    bool pattern_route;
    std::uint64_t paths_hash;
    std::uint64_t wirelength;
    std::size_t overflowed;
    int rrr_iterations;
  };
  const Case cases[] = {
      {"alu16", workloads::gen_alu(16), 32, false, 6172838559175872517ULL,
       7570, 3, 3},
      {"mul12-congested", workloads::gen_multiplier(12), 6, true,
       13167286407286474063ULL, 13268, 914, 3},
  };
  for (const Case& pin : cases) {
    SCOPED_TRACE(pin.name);
    const PlacedDesign design = prepare(pin.aig);
    RouterOptions options;
    options.edge_capacity = pin.edge_capacity;
    options.pattern_route = pin.pattern_route;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      options.threads = threads;
      const auto result =
          GridRouter(options).run(design.netlist, design.placement, {});
      EXPECT_EQ(hash_paths(result.connection_edges), pin.paths_hash);
      EXPECT_EQ(result.wirelength_gedges, pin.wirelength);
      EXPECT_EQ(result.overflowed_edges, pin.overflowed);
      EXPECT_EQ(result.rrr_iterations, pin.rrr_iterations);
    }
  }
}

TEST(RouterTest, SearchCountersOnSpansAreExact) {
  // `searched` and `prefiltered` on the route spans are exact counts:
  // equal at every thread count, and every routed connection was searched.
  const PlacedDesign design = prepare(workloads::gen_alu(16));
  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<std::vector<double>> per_width;
  for (const int threads : {1, 4}) {
    tracer.clear();
    tracer.enable(obs::ClockMode::kVirtual);
    RouterOptions options;
    options.threads = threads;
    const auto result =
        GridRouter(options).run(design.netlist, design.placement, {});
    tracer.disable();
    std::vector<double> counts;
    for (const obs::TraceEvent& event : tracer.snapshot()) {
      if (event.name != "route/initial" && event.name != "route/ripup") {
        continue;
      }
      double searched = -1.0;
      double prefiltered = -1.0;
      for (const obs::TraceArg& arg : event.args) {
        if (arg.key == "searched") searched = arg.value;
        if (arg.key == "prefiltered") prefiltered = arg.value;
      }
      ASSERT_GE(searched, 0.0) << event.name;
      ASSERT_GE(prefiltered, 0.0) << event.name;
      if (event.name == "route/initial") {
        EXPECT_GE(searched, static_cast<double>(result.routed_count));
        EXPECT_GT(prefiltered, 0.0);
      }
      counts.push_back(searched);
      counts.push_back(prefiltered);
    }
    per_width.push_back(counts);
  }
  tracer.clear();
  ASSERT_FALSE(per_width[0].empty());
  EXPECT_EQ(per_width[0], per_width[1]);
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
