// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// AIG construction + rewriting, cut enumeration + mapping, the tuner's
// recipe-lattice synthesis, CG placement solve, A* maze routing, STA
// sweeps, cache/branch simulators, instrumented routing, the MCKP
// frontier, the GCN forward pass, the tuner's batched GCN inference and
// the training step, the fleet's per-job admission plan, the fleet
// engine's market-tick decisions and the thread-pool round trip of a
// 2-chunk parallel_for.
// These quantify the substrate itself rather than a paper figure. Cut
// mapping, CG placement and the STA sweeps run twice: with a null
// perf::Sink (second arg 0) and instrumented on the characterize
// workload's 8-config ladder (1).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "cloud/mckp.hpp"
#include "market/market.hpp"
#include "ml/batch.hpp"
#include "ml/gcn.hpp"
#include "nl/star_graph.hpp"
#include "perf/branch_sim.hpp"
#include "perf/cache_sim.hpp"
#include "perf/instrument.hpp"
#include "perf/llc_nest.hpp"
#include "perf/sink.hpp"
#include "perf/task_graph.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sched/job.hpp"
#include "sched/load_gen.hpp"
#include "sched/market_policy.hpp"
#include "sched/policy.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"
#include "tune/recipe_space.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/generators.hpp"

namespace {

/// Heap allocations through operator new, for kernels that report an
/// allocations-per-item counter (a relaxed increment per allocation).
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The replacements stay out of line, so no call site sees malloc() paired
// with operator delete or operator new paired with free().
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* block) noexcept {
  std::free(block);
}
__attribute__((noinline)) void operator delete(void* block,
                                               std::size_t) noexcept {
  std::free(block);
}

using namespace edacloud;

namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

nl::Aig make_design(int scale) {
  return workloads::gen_sparc_core(scale, 26);
}

/// The characterize workload's ladder: general-purpose and memory-optimized
/// at 1-8 vCPUs (8 configs).
std::vector<perf::VmConfig> bench_ladder() {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    const auto ladder = perf::vm_ladder(family);
    configs.insert(configs.end(), ladder.begin(), ladder.end());
  }
  return configs;
}

/// Second arg of the stage kernels: 0 runs them with a null sink, 1
/// instrumented on bench_ladder().
std::vector<perf::VmConfig> kernel_configs(const benchmark::State& state) {
  return state.range(1) != 0 ? bench_ladder() : std::vector<perf::VmConfig>{};
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
  const auto configs = kernel_configs(state);
  for (auto _ : state) {
    perf::Instrument instrument = perf::Instrument::for_configs(configs);
    auto mapped =
        mapper.map(aig, synth::MapMode::kArea, perf::Sink(instrument));
    benchmark::DoNotOptimize(mapped.cell_count);
  }
}
BENCHMARK(BM_TechMap)->ArgsProduct({{8, 16}, {0, 1}});

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
  const auto configs = kernel_configs(state);
  for (auto _ : state) {
    auto result = placer.run(mapped.netlist, configs);
    benchmark::DoNotOptimize(result.placement.x.size());
  }
}
BENCHMARK(BM_PlaceCg)->ArgsProduct({{8, 16}, {0, 1}});

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
  const auto configs = kernel_configs(state);
  for (auto _ : state) {
    auto report = sta_engine.run(mapped.netlist, &placement, configs);
    benchmark::DoNotOptimize(report.critical_path_ps);
  }
}
BENCHMARK(BM_StaSweep)->ArgsProduct({{8, 16}, {0, 1}});

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

// The nested stack perf::Instrument runs per LLC input stream: the same
// stream as BM_CacheSimLlc through one LlcNest that answers both the
// general-purpose-1vcpu slice (96 KiB, 64 sets) and the memory-optimized
// one (192 KiB, 128 sets), which would take two BM_CacheSimLlc caches.
void BM_LlcNest(benchmark::State& state) {
  perf::LlcNest nest(perf::cache_set_count(96 * 1024, 64, 16), true);
  util::Rng rng(1);
  std::vector<std::uint64_t> addresses(4096);
  for (auto& a : addresses) a = rng.next_below(1 << 22);
  std::size_t i = 0;
  for (auto _ : state) {
    const perf::LlcNest::Hit hit = nest.access(addresses[i++ & 4095]);
    benchmark::DoNotOptimize(hit);
  }
  state.counters["miss_rate_small"] = nest.small_stats().miss_rate();
  state.counters["miss_rate_large"] = nest.large_stats().miss_rate();
}
BENCHMARK(BM_LlcNest);

// Counter simulation inside a route: gen_alu(16) routed into a null sink
// (arg 0) and into a fresh Instrument over the 8-config benchmark ladder
// (general-purpose and memory-optimized, 1-8 vCPUs; arg 1). The gap
// between the two is what the counter simulation costs. Building the
// Instrument is timed too: every instrumented stage run pays it.
void BM_InstrumentedRoute(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  const std::vector<perf::VmConfig> configs = bench_ladder();
  synth::SynthesisEngine engine(library());
  const auto mapped =
      engine.synthesize(workloads::gen_alu(16), synth::default_recipe());
  place::QuadraticPlacer placer;
  const auto placement = placer.place(mapped.netlist);
  const route::GridRouter router;
  std::uint64_t memory_events = 0;
  for (auto _ : state) {
    perf::Instrument instrument =
        instrumented ? perf::Instrument(configs) : perf::Instrument();
    const auto result =
        router.route(mapped.netlist, placement, perf::Sink(instrument));
    benchmark::DoNotOptimize(result.total_expansions);
    if (instrumented) {
      const perf::OpCounts counts = instrument.counts(configs.size() - 1);
      memory_events = counts.loads + counts.stores;
    }
  }
  state.counters["memory_events"] = static_cast<double>(memory_events);
}
BENCHMARK(BM_InstrumentedRoute)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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

// The exact frontier plus one deadline query; the deadline only picks the
// answer, so the time should not grow with it.
void BM_MckpFrontier(benchmark::State& state) {
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
        cloud::solve_mckp(stages, deadline).total_cost_usd);
  }
}
BENCHMARK(BM_MckpFrontier)->Arg(5000)->Arg(20000)->Arg(100000);

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

// One tuner-shaped predict_batch: a plan design's 28 recipes (24 grid
// points + 4 seeded draws), each querying its recipe-lattice leaf's
// netlist graph, so the batch carries the tuner's duplicates. Items are
// distinct graph rows; `groups` counts the merged forward passes.
void BM_BatchedGcnForward(benchmark::State& state) {
  tune::RecipeSpace space;
  space.random_samples = 4;
  const auto recipes = tune::enumerate_recipes(space);
  const auto lattice = synth::SynthesisEngine(library()).synthesize_all(
      workloads::gen_cavlc(8, 3), recipes, 1);
  std::vector<ml::GraphSample> leaves;
  for (const auto& leaf : lattice.leaves) {
    leaves.push_back(
        ml::sample_from_graph(nl::graph_from_netlist(leaf.netlist)));
  }
  std::vector<const ml::GraphSample*> batch;
  for (const std::size_t leaf : lattice.leaf_of) batch.push_back(&leaves[leaf]);
  const ml::GcnModel model(ml::GcnConfig::fast());
  const ml::BatchedGcn batched(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(batched.predict(batch).data());
  }
  const ml::BatchStats& stats = batched.last_stats();
  state.counters["queries"] = static_cast<double>(stats.queries);
  state.counters["distinct"] = static_cast<double>(stats.distinct);
  state.counters["groups"] = static_cast<double>(stats.groups);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(stats.real_rows) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchedGcnForward)->Unit(benchmark::kMillisecond);

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

// One admission plan of the cost-aware fleet policy: fault-stretched
// ladders, the job's MCKP stages and the greedy under its SLO budget. Jobs
// come from the diurnal load generator over the builtin templates, as in
// the fleet workload; allocs_per_plan counts operator new calls after one
// warm-up plan.
void BM_CostAwarePlan(benchmark::State& state) {
  const auto& templates = sched::builtin_templates();
  sched::LoadConfig load;
  load.mix = sched::diurnal_mix();
  sched::LoadGenerator generator(load, &templates, 9);
  std::vector<sched::Job> jobs;
  for (std::uint64_t id = 0; id < 256; ++id) {
    jobs.push_back(generator.make_job(id, 60.0 * static_cast<double>(id)));
  }
  sched::CostAwarePolicy policy;
  const auto plan = [&](const sched::Job& job) {
    return policy.plan(
        job, templates[static_cast<std::size_t>(job.template_index)]);
  };
  benchmark::DoNotOptimize(plan(jobs.front()));  // warm-up
  std::size_t next = 0;
  std::uint64_t plans = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan(jobs[next]));
    next = (next + 1) % jobs.size();
    ++plans;
  }
  state.counters["allocs_per_plan"] =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before) /
      static_cast<double>(std::max<std::uint64_t>(plans, 1));
  state.SetItemsProcessed(static_cast<std::int64_t>(plans));
}
BENCHMARK(BM_CostAwarePlan);

// One market tick over `range(0)` queued tasks, as the fleet engine runs
// it: quote the storm market, certify keeps per (template, stage) into
// bytes kept across ticks, and call market_decide only for tasks no
// certificate covers; allocs_per_tick counts operator new calls per tick.
// The queue is the benchmark's: every stage of the builtin templates, lognormal size jitter
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
  const auto group_of = [](const sched::Job& job) {
    return static_cast<std::size_t>(job.template_index) * core::kJobCount +
           static_cast<std::size_t>(job.stage);
  };
  std::vector<std::size_t> queued(templates.size() * core::kJobCount, 0);
  for (const sched::Job& job : queue) ++queued[group_of(job)];
  std::vector<std::uint8_t> certain(queued.size(), 0);
  double now = 0.0;
  std::uint64_t certified = 0;
  std::uint64_t decisions = 0;
  std::uint64_t ticks = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    now = std::fmod(now + 300.0, 24 * 3600.0);
    const sched::MarketQuote quote =
        sched::quote_market(*fleet.market, fleet, now);
    sched::certify_keeps(quote, policy, templates, pool, queued, certain);
    int moves = 0;
    for (const sched::Job& job : queue) {
      if (certain[group_of(job)] != 0) {
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
    ++ticks;
    benchmark::DoNotOptimize(moves);
  }
  state.counters["allocs_per_tick"] =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before) /
      static_cast<double>(std::max<std::uint64_t>(ticks, 1));
  state.counters["certified_share"] =
      static_cast<double>(certified) /
      static_cast<double>(std::max<std::uint64_t>(decisions, 1));
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
}
BENCHMARK(BM_MarketTick)->Arg(64)->Arg(1024);

/// `steps` dependent xorshift rounds: a fixed amount of scalar work the
/// compiler can neither fold nor vectorize.
std::uint64_t spin(std::uint64_t state, std::int64_t steps) {
  for (std::int64_t i = 0; i < steps; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
  }
  return state;
}

/// spin() steps per microsecond on this host, timed once.
double spin_steps_per_us() {
  static const double rate = [] {
    constexpr std::int64_t kSteps = 1 << 22;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(spin(0x9E3779B97F4A7C15ULL, kSteps));
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return static_cast<double>(kSteps) / std::max(us, 1e-3);
  }();
  return rate;
}

// The thread-pool round trip the fleet engine pays to split a window over
// two shards: a 2-chunk parallel_for on a `range(0)`-wide pool whose chunks
// each spin `range(1)` ns of work. inline_us is the same two chunks run
// one after the other on the calling thread; the pool pays once each chunk
// holds more work than the round trip costs.
void BM_ParallelForSmall(benchmark::State& state) {
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  const auto steps = static_cast<std::int64_t>(
      static_cast<double>(state.range(1)) * 1e-3 * spin_steps_per_us());
  std::array<std::uint64_t, 2> out{};
  const util::ThreadPool::ForBody body =
      [&](std::size_t begin, std::size_t, std::size_t, unsigned) {
        out[begin] = spin(begin + 1, steps);
      };
  std::int64_t passes = 0;
  for (auto _ : state) {
    pool.parallel_for(0, 2, 1, body);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    ++passes;
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t pass = 0; pass < passes; ++pass) {
    for (std::size_t chunk = 0; chunk < 2; ++chunk) {
      body(chunk, chunk + 1, chunk, 0);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["inline_us"] =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(std::max<std::int64_t>(passes, 1));
}
BENCHMARK(BM_ParallelForSmall)
    ->ArgsProduct({{2, 4}, {0, 1500, 8000, 16000, 30000}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
