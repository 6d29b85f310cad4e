// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// AIG construction + rewriting, cut enumeration + mapping, the tuner's
// recipe-lattice synthesis, CG placement solve, A* maze routing, STA
// sweeps, cache/branch simulators, counter-simulation replay, MCKP DP, the
// GCN forward pass and training step, and the fleet engine's market-tick
// decisions. These quantify the substrate itself rather than a paper
// figure.

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <vector>

#include "cloud/mckp.hpp"
#include "market/market.hpp"
#include "ml/gcn.hpp"
#include "nl/star_graph.hpp"
#include "perf/branch_sim.hpp"
#include "perf/cache_sim.hpp"
#include "perf/instrument.hpp"
#include "perf/task_graph.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sched/job.hpp"
#include "sched/market_policy.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"
#include "tune/recipe_space.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

using namespace edacloud;

namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

nl::Aig make_design(int scale) {
  return workloads::gen_sparc_core(scale, 26);
}

void BM_AigGenerate(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto aig = make_design(scale);
    benchmark::DoNotOptimize(aig.node_count());
  }
}
BENCHMARK(BM_AigGenerate)->Arg(8)->Arg(16)->Arg(32);

void BM_AigRewrite(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto rewritten = synth::rewrite(aig);
    benchmark::DoNotOptimize(rewritten.and_count());
  }
}
BENCHMARK(BM_AigRewrite)->Arg(8)->Arg(16);

void BM_TechMap(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  const synth::TechMapper mapper(library());
  for (auto _ : state) {
    auto mapped = mapper.map(aig, synth::MapMode::kArea);
    benchmark::DoNotOptimize(mapped.cell_count);
  }
}
BENCHMARK(BM_TechMap)->Arg(8)->Arg(16);

void BM_RecipeSpaceSynthesis(benchmark::State& state) {
  // The tuner's synthesis path: the plan benchmark's 28-recipe space (24
  // grid points + 4 seeded draws) as one recipe lattice, serially.
  const auto aig = state.range(0) == 0 ? workloads::gen_alu(8)
                                       : workloads::gen_cavlc(8, 3);
  tune::RecipeSpace space;
  space.random_samples = 4;
  const auto recipes = tune::enumerate_recipes(space);
  const synth::SynthesisEngine engine(library());
  synth::LatticeCounts counts;
  for (auto _ : state) {
    const auto lattice = engine.synthesize_all(aig, recipes, 1);
    counts = lattice.counts;
    benchmark::DoNotOptimize(lattice.leaves.data());
  }
  state.SetLabel(aig.name());
  state.counters["recipes"] = static_cast<double>(recipes.size());
  state.counters["cut_sets"] = static_cast<double>(counts.cut_sets);
  state.counters["leaves"] = static_cast<double>(counts.leaves);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recipes.size()));
}
BENCHMARK(BM_RecipeSpaceSynthesis)->Arg(0)->Arg(1);

void BM_PlaceCg(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  synth::SynthesisEngine engine(library());
  const auto mapped = engine.synthesize(aig, synth::default_recipe());
  place::QuadraticPlacer placer;
  for (auto _ : state) {
    auto result = placer.place(mapped.netlist);
    benchmark::DoNotOptimize(result.x.size());
  }
}
BENCHMARK(BM_PlaceCg)->Arg(8)->Arg(16);

void BM_RouteMaze(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  synth::SynthesisEngine engine(library());
  const auto mapped = engine.synthesize(aig, synth::default_recipe());
  place::QuadraticPlacer placer;
  const auto placement = placer.place(mapped.netlist);
  route::GridRouter router;
  for (auto _ : state) {
    auto result = router.run(mapped.netlist, placement, {});
    benchmark::DoNotOptimize(result.wirelength_gedges);
  }
}
BENCHMARK(BM_RouteMaze)->Arg(8)->Arg(16);

void BM_StaSweep(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  synth::SynthesisEngine engine(library());
  const auto mapped = engine.synthesize(aig, synth::default_recipe());
  place::QuadraticPlacer placer;
  const auto placement = placer.place(mapped.netlist);
  sta::StaEngine sta_engine;
  for (auto _ : state) {
    auto report = sta_engine.run(mapped.netlist, &placement, {});
    benchmark::DoNotOptimize(report.critical_path_ps);
  }
}
BENCHMARK(BM_StaSweep)->Arg(8)->Arg(16);

// The two cache roles of perf::Instrument. The L1 (8 KiB, 8-way) sees
// every sampled access and mostly hits; the LLC slice (96 KiB, 16-way)
// sees only L1 misses, a stream that mostly misses.
void BM_CacheSimL1(benchmark::State& state) {
  perf::CacheSim cache(8 * 1024, 64, 8);
  util::Rng rng(1);
  std::vector<std::uint64_t> addresses(4096);
  for (auto& a : addresses) {
    a = rng.next_bool(0.9) ? rng.next_below(6 * 1024)
                           : rng.next_below(1 << 22);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addresses[i++ & 4095]));
  }
  state.counters["miss_rate"] = cache.stats().miss_rate();
}
BENCHMARK(BM_CacheSimL1);

void BM_CacheSimLlc(benchmark::State& state) {
  perf::CacheSim cache(96 * 1024, 64, 16);
  util::Rng rng(1);
  std::vector<std::uint64_t> addresses(4096);
  for (auto& a : addresses) a = rng.next_below(1 << 22);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addresses[i++ & 4095]));
  }
  state.counters["miss_rate"] = cache.stats().miss_rate();
}
BENCHMARK(BM_CacheSimLlc);

// Counter simulation alone: the event logs of one instrumented gen_alu(16)
// route, replayed into a fresh Instrument over the 8-config benchmark
// ladder (general-purpose and memory-optimized, 1-8 vCPUs). Building the
// Instrument is timed too: every instrumented stage run pays it.
void BM_InstrumentReplay(benchmark::State& state) {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    const auto ladder = perf::vm_ladder(family);
    configs.insert(configs.end(), ladder.begin(), ladder.end());
  }
  synth::SynthesisEngine engine(library());
  const auto mapped =
      engine.synthesize(workloads::gen_alu(16), synth::default_recipe());
  place::QuadraticPlacer placer;
  const auto placement = placer.place(mapped.netlist);
  std::vector<perf::EventLog> logs;
  (void)route::GridRouter().run(mapped.netlist, placement, configs, &logs);
  std::size_t events = 0;
  for (const auto& log : logs) events += log.size();
  for (auto _ : state) {
    perf::Instrument instrument(configs);
    for (const auto& log : logs) instrument.replay(log);
    benchmark::DoNotOptimize(instrument.counts(configs.size() - 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_InstrumentReplay)->Unit(benchmark::kMillisecond);

void BM_BranchSim(benchmark::State& state) {
  perf::BranchPredictor predictor;
  util::Rng rng(2);
  std::uint64_t site = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predictor.observe(site++ & 63, rng.next_bool(0.7)));
  }
}
BENCHMARK(BM_BranchSim);

void BM_ListScheduler(benchmark::State& state) {
  perf::TaskGraph graph;
  util::Rng rng(3);
  std::vector<perf::TaskId> previous;
  for (int wave = 0; wave < 64; ++wave) {
    std::vector<perf::TaskId> current;
    for (int t = 0; t < 32; ++t) {
      std::vector<perf::TaskId> deps;
      if (!previous.empty()) deps.push_back(previous[rng.next_below(previous.size())]);
      current.push_back(graph.add_task(rng.next_double(1.0, 10.0), deps));
    }
    previous = current;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.makespan(8));
  }
}
BENCHMARK(BM_ListScheduler);

void BM_MckpDp(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<cloud::MckpStage> stages;
  for (int l = 0; l < 4; ++l) {
    cloud::MckpStage stage;
    double time = rng.next_double(500.0, 8000.0);
    double cost = rng.next_double(0.05, 0.5);
    for (int j = 0; j < 4; ++j) {
      stage.items.push_back({time, cost, ""});
      time *= 0.6;
      cost *= 1.3;
    }
    stages.push_back(stage);
  }
  const double deadline = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cloud::solve_mckp_dp(stages, deadline).total_cost_usd);
  }
}
BENCHMARK(BM_MckpDp)->Arg(5000)->Arg(20000);

ml::GraphSample make_gcn_sample(int size) {
  const auto graph = nl::graph_from_aig(make_design(size));
  ml::GraphSample sample;
  sample.in_neighbors = nl::transpose(graph.forward);
  sample.features = ml::Matrix(graph.node_count(), nl::kNodeFeatureDim);
  std::copy(graph.features.begin(), graph.features.end(),
            sample.features.data().begin());
  return sample;
}

void BM_GcnForward(benchmark::State& state) {
  const ml::GraphSample sample =
      make_gcn_sample(static_cast<int>(state.range(0)));
  ml::GcnModel model(ml::GcnConfig::fast());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(sample));
  }
}
BENCHMARK(BM_GcnForward)->Arg(8)->Arg(16);

// One forward + backward + Adam step: the unit of startup training.
void BM_GcnTrainStep(benchmark::State& state) {
  const ml::GraphSample sample =
      make_gcn_sample(static_cast<int>(state.range(0)));
  ml::GcnModel model(ml::GcnConfig::fast());
  const std::array<double, ml::kRuntimeOutputs> target = {0.5, 0.2, -0.1,
                                                          -0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_step(sample, target));
  }
}
BENCHMARK(BM_GcnTrainStep)->Arg(8)->Arg(16);

// One market tick over `range(0)` queued tasks, as the fleet engine runs
// it: quote the storm market, certify keeps per (template, stage), and call
// market_decide only for tasks no certificate covers. The queue is the
// benchmark's: every stage of the builtin templates, lognormal size jitter
// (sigma 0.25), a third of the tasks checkpointed part-way, waiting in the
// compute-optimized 1-vCPU pool. That pool is the cheapest, so migrations
// land there and its queues run deepest under the storm. Successive
// iterations step the tick time by 300 s through the storm's day.
void BM_MarketTick(benchmark::State& state) {
  const auto& templates = sched::builtin_templates();
  sched::FleetConfig fleet;
  fleet.spot_fraction = 0.4;
  fleet.market = market::make_preset_market("storm", 20260807, 25 * 3600.0);
  const sched::MarketPolicyConfig policy;
  const sched::PoolKey pool{perf::InstanceFamily::kComputeOptimized, 1};
  util::Rng rng(5);
  std::vector<sched::Job> queue(static_cast<std::size_t>(state.range(0)));
  for (sched::Job& job : queue) {
    job.template_index = static_cast<int>(
        rng.next_int(0, static_cast<std::int64_t>(templates.size()) - 1));
    job.stage = static_cast<int>(rng.next_int(0, core::kJobCount - 1));
    job.scale = std::exp(0.25 * rng.next_gaussian() - 0.5 * 0.25 * 0.25);
    job.stage_progress =
        rng.next_bool(1.0 / 3.0) ? rng.next_double(0.0, 0.9) : 0.0;
  }
  double now = 0.0;
  std::uint64_t certified = 0;
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    now = std::fmod(now + 300.0, 24 * 3600.0);
    const sched::MarketQuote quote =
        sched::quote_market(*fleet.market, fleet, now);
    sched::KeepCertificates certificates(quote, policy, templates, pool);
    int moves = 0;
    for (const sched::Job& job : queue) {
      if (certificates.certain(job.template_index, job.stage)) {
        ++certified;
        continue;
      }
      moves += sched::market_decide(quote, fleet, policy,
                                    templates[static_cast<std::size_t>(
                                        job.template_index)],
                                    job, pool)
                           .action == sched::MarketAction::kMigrate
                   ? 1
                   : 0;
    }
    decisions += queue.size();
    benchmark::DoNotOptimize(moves);
  }
  state.counters["certified_share"] =
      static_cast<double>(certified) /
      static_cast<double>(std::max<std::uint64_t>(decisions, 1));
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
}
BENCHMARK(BM_MarketTick)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
