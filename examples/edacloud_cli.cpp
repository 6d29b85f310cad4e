// edacloud — unified command-line front end over the library.
//
// Each subcommand declares its positionals and flags once, in kCommands at
// the end of this file. util::parse_args checks every command line against
// its table, and the top-level usage and `<command> --help` print from the
// same tables. Run with no arguments for the command list.
//
// --trace writes a Chrome trace_event JSON file (open in Perfetto or
// chrome://tracing); --metrics writes the unified metrics registry as JSON
// (or CSV when the filename ends in .csv). See docs/OBSERVABILITY.md.
//
// Every subcommand works on files in the formats the library speaks
// (ASCII AIGER in, structural Verilog / Liberty / DOT out), so the tool
// interoperates with standard logic-synthesis tooling.

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "edacloud.hpp"
#include "nl/aiger.hpp"
#include "nl/dot.hpp"
#include "nl/liberty.hpp"
#include "nl/verilog.hpp"
#include "sta/sta.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace edacloud;

namespace {

using util::Args;

// ---- Subcommands ------------------------------------------------------------

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  file << content;
  if (!file) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

nl::Aig generate_or_die(const std::string& family, int size) {
  workloads::BenchmarkSpec spec;
  spec.family = family;
  spec.size = size;
  spec.seed = 7;
  return workloads::generate(spec);
}

/// Start the tracer on `clock` when --trace was given.
void start_trace(const Args& args, obs::ClockMode clock) {
  if (!args.text("--trace").empty()) obs::Tracer::global().enable(clock);
}

/// Write the --trace and --metrics files asked for; false on an I/O error.
bool write_telemetry(const Args& args) {
  const std::string trace_path = args.text("--trace");
  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (!obs::Tracer::global().write_json(trace_path)) return false;
    std::printf("wrote %s (%zu events)\n", trace_path.c_str(),
                obs::Tracer::global().event_count());
  }
  const std::string metrics_path = args.text("--metrics");
  if (!metrics_path.empty()) {
    if (!obs::Registry::global().write(metrics_path)) return false;
    std::printf("wrote %s (%zu metrics)\n", metrics_path.c_str(),
                obs::Registry::global().size());
  }
  return true;
}

void print_cache_stats(const ml::PredictionCache::Stats& stats,
                       long long capacity) {
  std::printf("cache: %llu hits, %llu misses, %llu insertions, "
              "%llu evictions (capacity %lld)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.insertions),
              static_cast<unsigned long long>(stats.evictions), capacity);
}

int cmd_gen(const Args& args) {
  const nl::Aig aig =
      generate_or_die(args.positionals[0], args.number<int>(1));
  std::printf("%s: %zu inputs, %zu outputs, %zu AND nodes, depth %u\n",
              aig.name().c_str(), aig.input_count(), aig.output_count(),
              aig.and_count(), aig.depth());
  const std::string aag = args.text("--aag");
  if (!aag.empty() && !write_file(aag, nl::write_aiger(aig))) return 1;
  const std::string dot = args.text("--dot");
  if (!dot.empty() && !write_file(dot, nl::write_dot(aig))) return 1;
  return 0;
}

int cmd_synth(const Args& args) {
  const std::string& path = args.positionals[0];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = nl::parse_aiger(buffer.str());
  if (!parsed.ok) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    return 1;
  }

  synth::SynthRecipe recipe = synth::default_recipe();
  const std::string recipe_name = args.text("--recipe");
  if (!recipe_name.empty()) {
    bool found = false;
    for (const auto& candidate : synth::standard_recipes()) {
      if (candidate.name == recipe_name) {
        recipe = candidate;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "error: unknown recipe '%s'\n",
                   recipe_name.c_str());
      return 1;
    }
  }

  const nl::CellLibrary library = nl::make_generic_14nm_library();
  synth::SynthesisEngine engine(library);
  const auto mapped = engine.synthesize(parsed.aig, recipe);
  const auto stats = mapped.netlist.stats();
  std::printf("recipe %s: %zu cells, %.1f um2, depth %u\n",
              recipe.name.c_str(), stats.instance_count,
              stats.total_area_um2, stats.logic_depth);

  const std::string verilog = args.text("--verilog");
  if (!verilog.empty() &&
      !write_file(verilog, nl::write_verilog(mapped.netlist))) {
    return 1;
  }
  return 0;
}

int cmd_flow(const Args& args) {
  start_trace(args, obs::ClockMode::kWall);
  // With --metrics the flow runs instrumented against both VM ladders so
  // the registry carries per-stage runtime/counter measurements, not just
  // the QoR table below.
  std::vector<perf::VmConfig> configs;
  if (!args.text("--metrics").empty()) {
    for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                              perf::InstanceFamily::kMemoryOptimized}) {
      for (const auto& vm : perf::vm_ladder(family)) configs.push_back(vm);
    }
  }

  const nl::Aig aig =
      generate_or_die(args.positionals[0], args.number<int>(1));
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  core::EdaFlow flow(library);
  const auto result = flow.run(aig, configs);
  const auto stats = result.synthesis.mapped.netlist.stats();

  util::Table table({"Metric", "Value"});
  table.add_row({"instances", util::format_count(static_cast<long long>(
                                  stats.instance_count))});
  table.add_row({"area (um2)", util::format_fixed(stats.total_area_um2, 1)});
  table.add_row({"logic depth", std::to_string(stats.logic_depth)});
  table.add_row(
      {"HPWL (um)", util::format_fixed(result.placement.hpwl_um, 0)});
  table.add_row({"routed wirelength (gcell edges)",
                 util::format_count(static_cast<long long>(
                     result.routing.wirelength_gedges))});
  table.add_row({"routing overflow edges",
                 std::to_string(result.routing.overflowed_edges)});
  table.add_row({"critical path (ps)",
                 util::format_fixed(result.timing.critical_path_ps, 0)});
  table.add_row({"worst slack (ps)",
                 util::format_fixed(result.timing.worst_slack_ps, 1)});
  table.add_row({"leakage (uW)",
                 util::format_fixed(result.timing.leakage_power_nw / 1e3, 2)});
  table.add_row({"dynamic power (uW)",
                 util::format_fixed(result.timing.dynamic_power_uw, 2)});
  std::printf("%s", table.render().c_str());
  return write_telemetry(args) ? 0 : 1;
}

int cmd_plan(const Args& args) {
  const nl::Aig aig =
      generate_or_die(args.positionals[0], args.number<int>(1));
  const double deadline = args.number<double>(2);

  const nl::CellLibrary library = nl::make_generic_14nm_library();
  core::Characterizer characterizer(library);
  const auto report = characterizer.characterize(aig);
  core::RuntimeLadders ladders{};
  for (core::JobKind job : core::kAllJobs) {
    const auto* row = report.find(job, core::recommended_family(job));
    if (row != nullptr) ladders[static_cast<int>(job)] = row->runtime_seconds;
  }
  core::DeploymentOptimizer optimizer;
  if (args.has("--spot")) optimizer.enable_spot(cloud::SpotModel{});
  const auto plan = optimizer.optimize(ladders, deadline);
  if (!plan.feasible) {
    const auto stages = optimizer.build_stages(ladders);
    std::printf("NA — fastest possible is %.0f s\n",
                cloud::fastest_completion_seconds(stages));
    return 1;
  }
  util::Table table({"Stage", "Instance", "vCPUs", "Tier", "Runtime (s)",
                     "Cost ($)"});
  for (const auto& entry : plan.entries) {
    table.add_row({core::job_name(entry.job),
                   std::string(perf::to_string(entry.family)),
                   std::to_string(entry.vcpus),
                   entry.spot ? "spot" : "on-demand",
                   util::format_fixed(entry.runtime_seconds, 0),
                   util::format_fixed(entry.cost_usd, 4)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("total %.0f s, $%.4f\n", plan.total_runtime_seconds,
              plan.total_cost_usd);
  return 0;
}

int cmd_fleet_sim(const Args& args) {
  sched::ShardedSimConfig sharded;
  sched::SimConfig& config = sharded.base;
  config.seed = 1;
  config.duration_seconds = 4.0 * 3600.0;
  config.load.arrival_rate_per_hour = 60.0;
  config.load.mix = sched::uniform_mix();
  config.fleet.boot_seconds = 45.0;
  config.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };

  std::string policy_name = "cost";
  args.read("--arrival-rate", config.load.arrival_rate_per_hour);
  args.read("--policy", policy_name);
  args.read("--seed", config.seed);
  args.read("--duration", config.duration_seconds);
  const std::string mix = args.text("--mix");
  if (!mix.empty()) {
    try {
      config.load.mix = sched::mix_by_name(mix);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  args.read("--spot", config.fleet.spot_fraction);

  // Spot-market selection (DESIGN.md §15, docs/MARKETS.md). "static" is
  // the classic flat model; presets generate seeded price weather;
  // --market-trace replays a canonical trace file exactly.
  std::shared_ptr<market::TraceMarket> trace_market;
  const std::string market_name = args.text("--market");
  const std::string market_trace = args.text("--market-trace");
  if (!market_name.empty() && !market_trace.empty()) {
    std::fprintf(stderr,
                 "error: --market and --market-trace are mutually "
                 "exclusive\n");
    return 2;
  }
  args.read("--bid", config.fleet.spot_bid_fraction);
  args.read("--market-interval", config.market.interval_seconds);
  config.market.enabled = args.has("--rebid");
  if (!market_name.empty() && market_name != "static") {
    try {
      trace_market = market::make_preset_market(market_name, config.seed,
                                                config.duration_seconds);
    } catch (const std::invalid_argument&) {
      std::fprintf(stderr, "error: --market wants static | %s\n",
                   util::join(market::preset_market_names(), " | ").c_str());
      return 2;
    }
  } else if (!market_trace.empty()) {
    try {
      trace_market = std::make_shared<market::TraceMarket>(
          market::load_price_traces(market_trace), config.fleet.spot);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: --market-trace %s\n", e.what());
      return 2;
    }
  }
  if (trace_market != nullptr) {
    trace_market->set_planning_bid(config.fleet.spot_bid_fraction);
    config.fleet.market = trace_market;
  }

  // Fault-injection knobs (see DESIGN.md §10). The event loop stays fully
  // deterministic with any of these enabled.
  args.read("--interruption-rate", config.fleet.spot.interruptions_per_hour);
  args.read("--crash-rate", config.fault.crash_rate_per_hour);
  args.read("--boot-fail", config.fault.boot_failure_probability);
  args.read("--checkpoint-interval", config.fault.checkpoint_interval_seconds);
  args.read("--checkpoint-overhead", config.fault.checkpoint_overhead_seconds);
  args.read("--max-attempts", config.fault.max_attempts_per_stage);
  const std::string restart = args.text("--restart");
  if (restart == "credit") {
    config.fault.restart = sched::RestartModel::kFractionCredit;
  } else if (restart == "zero") {
    config.fault.restart = sched::RestartModel::kFromZero;
  } else if (restart == "checkpoint" ||
             (restart.empty() && args.has("--checkpoint-interval"))) {
    // A checkpoint interval without an explicit model means checkpointing.
    config.fault.restart = sched::RestartModel::kCheckpoint;
  }
  int threads = 0;
  if (args.read("--threads", threads)) util::set_global_thread_count(threads);

  // Sharded engine knobs (DESIGN.md §13, docs/SIMULATION.md).
  args.read("--shards", sharded.shards);
  args.read("--handoff-latency", sharded.handoff_latency_seconds);

  // Virtual clock: span timestamps are simulated seconds, so same-seed
  // runs serialize to byte-identical trace files.
  start_trace(args, obs::ClockMode::kVirtual);

  std::printf(
      "fleet-sim: mix=%s policy=%s rate=%.0f/h duration=%.0fs seed=%llu "
      "spot=%.0f%% market=%s%s\n",
      config.load.mix.name.c_str(), policy_name.c_str(),
      config.load.arrival_rate_per_hour, config.duration_seconds,
      static_cast<unsigned long long>(config.seed),
      config.fleet.spot_fraction * 100.0,
      trace_market != nullptr ? trace_market->name().c_str() : "static",
      config.market.enabled ? " rebid=on" : "");
  if (trace_market != nullptr) {
    std::printf("fleet-sim: %s, bid %.2fx\n",
                trace_market->describe().c_str(),
                config.fleet.spot_bid_fraction);
  }
  sharded.threads = util::global_thread_count();
  // The synchronization window is always as wide as the handoff latency.
  std::printf("fleet-sim: sharded engine, %d shard(s), handoff %.3gs, "
              "lookahead %.3gs\n",
              sharded.shards, sharded.handoff_latency_seconds,
              sharded.handoff_latency_seconds);
  sched::ShardedFleetSimulator sim(sharded, sched::builtin_templates(),
                                   policy_name);
  const sched::FleetMetrics metrics = sim.run();
  if (args.has("--shard-stats")) {
    sim.export_shard_stats(obs::Registry::global(), {{"policy", policy_name}});
    for (std::size_t s = 0; s < sim.shard_stats().size(); ++s) {
      const sched::ShardStats& stats = sim.shard_stats()[s];
      std::printf("shard %zu: %d pool(s), %llu events, %llu handoffs out, "
                  "%llu in\n",
                  s, stats.pools_owned,
                  static_cast<unsigned long long>(stats.events_processed),
                  static_cast<unsigned long long>(stats.handoffs_out),
                  static_cast<unsigned long long>(stats.handoffs_in));
    }
    std::printf("windows: %llu (%llu pooled), events total: %llu\n",
                static_cast<unsigned long long>(sim.windows()),
                static_cast<unsigned long long>(sim.pooled_windows()),
                static_cast<unsigned long long>(sim.total_events()));
  }
  std::printf("%s", metrics.render().c_str());

  if (!args.text("--metrics").empty()) {
    metrics.export_to(obs::Registry::global(),
                      {{"policy", policy_name},
                       {"mix", config.load.mix.name}});
    if (trace_market != nullptr) {
      market::export_market_gauges(*trace_market, obs::Registry::global(),
                                   {{"market", trace_market->name()}});
    }
  }
  return write_telemetry(args) ? 0 : 1;
}

// Local timing helper for cmd_predict — milliseconds across a callable.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// predict: train a small GCN predictor, then answer a batch of runtime
// queries over design variants two ways — the serial per-sample path and
// the merged-batch path (ml::BatchedGcn behind
// core::RuntimePredictor::predict_batch), optionally fronted by a
// content-addressed ml::PredictionCache — and report both timings.
// --verify asserts the two paths produce bit-identical runtimes (exit 1
// otherwise); scripts/check.sh runs exactly that as its batched-inference
// smoke leg.
int cmd_predict(const Args& args) {
  const std::string& family = args.positionals[0];
  const int base_size = args.number<int>(1);

  core::JobKind job = core::JobKind::kSynthesis;
  const std::string job_flag = args.text("--job");
  if (!job_flag.empty()) {
    bool found = false;
    for (const core::JobKind candidate : core::kAllJobs) {
      if (core::job_name(candidate) == job_flag) {
        job = candidate;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "error: --job wants synthesis, placement, routing or sta\n");
      return 2;
    }
  }

  int batch = 8;
  args.read("--batch", batch);
  long long cache_capacity = 256;
  args.read("--cache", cache_capacity);
  int repeat = 1;
  args.read("--repeat", repeat);
  // Results are bit-identical at any width (the batched-kernel contract,
  // which --verify cross-checks against the serial path).
  int threads = 0;
  if (args.read("--threads", threads)) util::set_global_thread_count(threads);
  std::size_t train_designs = 4;
  args.read("--train-designs", train_designs);
  int train_epochs = 6;
  args.read("--train-epochs", train_epochs);
  const bool verify = args.has("--verify");

  // Train the same way svc::Service::initialize does.
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  const core::RuntimePredictor predictor =
      core::train_startup_predictor(library, train_designs, 1, train_epochs, 7)
          .predictor;
  if (!predictor.trained(job)) {
    std::fprintf(stderr, "error: no trained model for job '%s'\n",
                 core::job_name(job).c_str());
    return 1;
  }

  // Query pool: four design-size variants of the requested family; a
  // --batch larger than four repeats them, which is exactly the
  // repeated-design stream the batcher's content dedup collapses.
  constexpr int kVariants = 4;
  const int step = std::max(4, base_size / 8);
  std::vector<ml::GraphSample> pool;
  std::vector<int> pool_sizes;
  synth::SynthesisEngine engine(library);
  for (int k = 0; k < kVariants; ++k) {
    const int size = base_size + k * step;
    const nl::Aig aig = generate_or_die(family, size);
    const nl::DesignGraph graph =
        job == core::JobKind::kSynthesis
            ? nl::graph_from_aig(aig)
            : nl::graph_from_netlist(
                  engine.synthesize(aig, synth::default_recipe()).netlist);
    pool.push_back(ml::sample_from_graph(graph));
    pool_sizes.push_back(size);
  }
  std::vector<ml::ContentKey> pool_keys;
  for (const auto& sample : pool) {
    pool_keys.push_back(ml::content_key(sample).salted(
        static_cast<std::uint64_t>(job) + 1));
  }
  std::vector<const ml::GraphSample*> queries;
  std::vector<ml::ContentKey> keys;
  for (int q = 0; q < batch; ++q) {
    queries.push_back(&pool[q % kVariants]);
    keys.push_back(pool_keys[q % kVariants]);
  }

  // Serial baseline: one forward pass per query, every repeat.
  std::vector<std::array<double, 4>> serial(queries.size());
  const double serial_ms = time_ms([&] {
    for (int rep = 0; rep < repeat; ++rep) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        serial[i] = predictor.predict(job, *queries[i]);
      }
    }
  });

  // Batched path: cache lookups first (when enabled), then ONE merged
  // forward pass over the misses — the svc::Service serving pipeline.
  ml::PredictionCache cache(static_cast<std::size_t>(cache_capacity));
  std::vector<std::array<double, 4>> batched(queries.size());
  const double batched_ms = time_ms([&] {
    for (int rep = 0; rep < repeat; ++rep) {
      std::vector<std::size_t> miss_index;
      std::vector<const ml::GraphSample*> miss_samples;
      std::vector<ml::ContentKey> miss_keys;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (cache_capacity > 0) {
          if (const auto hit = cache.lookup(keys[i])) {
            batched[i] = *hit;
            continue;
          }
        }
        miss_index.push_back(i);
        miss_samples.push_back(queries[i]);
        miss_keys.push_back(keys[i]);
      }
      if (!miss_samples.empty()) {
        const auto results =
            predictor.predict_batch(job, miss_samples, &miss_keys);
        for (std::size_t m = 0; m < miss_index.size(); ++m) {
          batched[miss_index[m]] = results[m];
          if (cache_capacity > 0) cache.insert(miss_keys[m], results[m]);
        }
      }
    }
  });

  if (verify) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      for (int j = 0; j < 4; ++j) {
        if (serial[i][j] != batched[i][j]) {
          std::fprintf(stderr,
                       "verify: MISMATCH at query %zu vcpu-lane %d: "
                       "serial %.17g vs batched %.17g\n",
                       i, j, serial[i][j], batched[i][j]);
          return 1;
        }
      }
    }
    std::printf("verify: OK — batched == serial over %zu queries x %d "
                "repeats\n",
                queries.size(), repeat);
  }

  util::Table table({"Design", "Job", "1 vCPU (s)", "2 vCPUs (s)",
                     "4 vCPUs (s)", "8 vCPUs (s)"});
  for (int k = 0; k < kVariants && k < batch; ++k) {
    std::vector<std::string> row = {
        family + ":" + std::to_string(pool_sizes[k]), core::job_name(job)};
    for (const double seconds : batched[static_cast<std::size_t>(k)]) {
      row.push_back(util::format_fixed(seconds, 1));
    }
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "%d queries x %d repeats: serial %.1f ms, batched %.1f ms "
      "(%.2fx)\n",
      batch, repeat, serial_ms, batched_ms,
      batched_ms > 0.0 ? serial_ms / batched_ms : 0.0);
  if (cache_capacity > 0) print_cache_stats(cache.stats(), cache_capacity);
  return 0;
}

// tune: joint flow + deployment optimization (tune::RecipeTuner). Trains a
// small predictor the same way cmd_predict does, evaluates the recipe
// space per design (real synthesis QoR, cache-fronted batched runtime
// prediction), and reports the joint (recipe x VM-config) optimum against
// the fixed-default-recipe baseline. --export writes the canonical
// TuneResult dump — byte-identical at any --threads / --batch value for a
// fixed seed, which the check.sh tune smoke leg diffs.
int cmd_tune(const Args& args) {
  // Designs: positional <family> <size> and/or --designs fam:size[,...].
  std::vector<std::pair<std::string, int>> designs;
  if (!args.positionals.empty()) {
    designs.emplace_back(args.positionals[0], args.number<int>(1));
  }
  const std::string designs_flag = args.text("--designs");
  if (!designs_flag.empty()) {
    std::vector<std::string> items;
    std::string current;
    for (const char c : designs_flag) {
      if (c == ',') {
        items.push_back(current);
        current.clear();
      } else {
        current += c;
      }
    }
    items.push_back(current);
    for (const std::string& item : items) {
      const std::size_t colon = item.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= item.size()) {
        std::fprintf(stderr,
                     "error: --designs wants family:size[,family:size...], "
                     "got '%s'\n",
                     item.c_str());
        return 2;
      }
      const int size = std::atoi(item.substr(colon + 1).c_str());
      if (size < 1) {
        std::fprintf(stderr, "error: --designs size must be positive in "
                     "'%s'\n", item.c_str());
        return 2;
      }
      designs.emplace_back(item.substr(0, colon), size);
    }
  }
  if (designs.empty()) {
    std::fprintf(stderr,
                 "error: tune wants <family> <size> or --designs\n");
    return 2;
  }
  for (const auto& [family, size] : designs) {
    bool known = false;
    for (const auto& info : workloads::families()) {
      if (info.name == family) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown family '%s'\n", family.c_str());
      return 2;
    }
  }

  double deadline_s = 2000.0;
  args.read("--deadline", deadline_s);
  double budget_usd = 0.0;
  args.read("--budget", budget_usd);
  long long samples = 16;
  args.read("--samples", samples);
  long long seed = 1;
  args.read("--seed", seed);
  long long batch = 64;
  args.read("--batch", batch);
  long long cache_capacity = 4096;
  args.read("--cache", cache_capacity);
  // Byte-identical results at any width (the tuner's hard contract).
  int threads = 0;
  if (args.read("--threads", threads)) util::set_global_thread_count(threads);
  std::size_t train_designs = 4;
  args.read("--train-designs", train_designs);
  int train_epochs = 6;
  args.read("--train-epochs", train_epochs);
  const std::string export_path = args.text("--export");
  const std::string trace_path = args.text("--trace");
  const std::string metrics_path = args.text("--metrics");
  start_trace(args, obs::ClockMode::kWall);

  // Train exactly the way cmd_predict / svc::Service::initialize do.
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  const core::RuntimePredictor predictor =
      core::train_startup_predictor(library, train_designs, 1, train_epochs, 7)
          .predictor;

  tune::TunerOptions tuner_options;
  tuner_options.space.random_samples = static_cast<std::size_t>(samples);
  tuner_options.space.seed = static_cast<std::uint64_t>(seed);
  tuner_options.batch_size = static_cast<std::size_t>(batch);
  tuner_options.cache_capacity = static_cast<std::size_t>(cache_capacity);
  tuner_options.spot = args.has("--spot");
  tune::RecipeTuner tuner(library, predictor, tuner_options);

  std::string export_blob = "edacloud-tune-cli v1\n";
  export_blob += "designs " + std::to_string(designs.size()) + "\n";
  export_blob += "samples " + std::to_string(samples) + " seed " +
                 std::to_string(seed) + "\n";
  util::Table table({"Design", "Recipes", "Fixed $", "Joint $",
                     "Joint@QoR $", "Savings $", "Best recipe"});
  const auto cost = [](const auto& choice) {
    return choice.plan.feasible
               ? util::format_fixed(choice.plan.total_cost_usd, 4)
               : std::string("NA");
  };
  for (const auto& [family, size] : designs) {
    const nl::Aig aig = generate_or_die(family, size);
    const tune::TuneResult result = tuner.tune(aig, deadline_s, budget_usd);
    table.add_row(
        {family + ":" + std::to_string(size),
         std::to_string(result.evaluations.size()), cost(result.fixed),
         cost(result.joint), cost(result.joint_at_qor),
         util::format_fixed(result.savings_vs_fixed_usd(), 4),
         result.joint_at_qor.recipe_key.empty()
             ? "-"
             : result.joint_at_qor.recipe_key});
    export_blob += result.export_text();
    if (budget_usd > 0.0) {
      std::printf("%s:%d budget $%.4f -> %s (%.1f s, recipe %s)\n",
                  family.c_str(), size, budget_usd,
                  result.budget_feasible ? "feasible" : "infeasible",
                  result.budget_fastest_seconds,
                  result.budget_recipe_key.empty()
                      ? "-"
                      : result.budget_recipe_key.c_str());
    }
  }
  std::printf("%s", table.render().c_str());
  if (tuner.cache() != nullptr) {
    print_cache_stats(tuner.cache()->stats(), cache_capacity);
  }
  if (!export_path.empty() && !write_file(export_path, export_blob)) {
    return 1;
  }
  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (obs::Tracer::global().write_json(trace_path)) {
      std::printf("wrote %s\n", trace_path.c_str());
    }
  }
  if (!metrics_path.empty() &&
      obs::Registry::global().write(metrics_path)) {
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}

// serve installs signal handlers so `kill -TERM` drains in-flight work and
// exits 0 (the contract scripts/check.sh asserts). request_stop() is
// async-signal-safe by design.
svc::JobServer* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int cmd_serve(const Args& args) {
  svc::ServiceConfig service_config;
  svc::ServerConfig server_config;
  args.read("--port", server_config.port);
  args.read("--threads", server_config.threads);
  args.read("--seed", service_config.design_seed);
  args.read("--max-conns", server_config.max_connections);
  args.read("--max-queue", server_config.max_queue);
  args.read("--deadline-ms", server_config.default_deadline_ms);
  args.read("--train-designs", service_config.train_designs);
  args.read("--train-epochs", service_config.train_epochs);
  args.read("--batch-max", server_config.batch_max);
  args.read("--predict-cache", service_config.predict_cache_capacity);
  start_trace(args, obs::ClockMode::kWall);

  svc::Service service(service_config);
  svc::JobServer server(service, server_config);
  std::string error;
  if (!server.listen(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // Port first (parsers need it before the slow predictor training), then
  // an explicit ready line once requests can actually be served.
  std::printf("listening on %s:%d (threads=%d)\n",
              server_config.host.c_str(), server.port(),
              server_config.threads);
  std::fflush(stdout);
  service.initialize();
  std::printf("ready\n");
  std::fflush(stdout);

  g_server = &server;
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  server.run();
  g_server = nullptr;

  service.export_metrics(obs::Registry::global());
  server.stats().export_to(obs::Registry::global());
  std::printf("drained: %llu requests (%llu dispatched), %llu errors\n",
              static_cast<unsigned long long>(service.stats().requests.load()),
              static_cast<unsigned long long>(
                  server.stats().requests_dispatched.load()),
              static_cast<unsigned long long>(service.stats().errors.load()));
  return write_telemetry(args) ? 0 : 1;
}

int cmd_loadgen(const Args& args) {
  svc::LoadgenConfig config;
  if (!args.read("--port", config.port)) {
    std::fprintf(stderr, "error: loadgen wants --port 1..65535\n");
    return 2;
  }
  args.read("--host", config.host);
  if (args.text("--mode") == "open") config.mode = svc::LoadMode::kOpen;
  args.read("--qps", config.qps);
  args.read("--conns", config.connections);
  args.read("--requests", config.requests);
  args.read("--duration", config.duration_s);
  args.read("--warmup", config.warmup_s);
  args.read("--seed", config.seed);
  const std::string mix = args.text("--mix");
  if (!mix.empty()) {
    const std::vector<std::string>& known = svc::loadgen_mix_names();
    if (std::find(known.begin(), known.end(), mix) == known.end()) {
      std::fprintf(stderr, "error: --mix wants %s\n",
                   util::join(known, " | ").c_str());
      return 2;
    }
    config.mix = mix;
  }
  args.read("--deadline-ms", config.deadline_ms);

  const svc::LoadgenReport report = svc::run_loadgen(config);
  std::printf("%s", report.render().c_str());

  const std::string export_path = args.text("--export");
  if (!export_path.empty() &&
      !write_file(export_path, report.export_json() + "\n")) {
    return 1;
  }
  // Transport-level failures (lost connections, missing replies) mean the
  // measurement is unreliable; surface that in the exit code.
  return report.transport_errors == 0 ? 0 : 1;
}

int cmd_lib(const Args& args) {
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  const std::string text = nl::write_liberty(library);
  const std::string out = args.text("--out");
  if (!out.empty()) return write_file(out, text) ? 0 : 1;
  std::printf("%s", text.c_str());
  return 0;
}

// ---- The tables -------------------------------------------------------------

using util::above;
using util::at_least;
using util::within;
using Kind = util::FlagKind;
// Seeds and counts held in 64 bits.
constexpr util::FlagRange kWide = within(0, util::kInt64Max);

const util::Flag kFamily{"<family>", "", "benchmark family (see 'help')"};
const util::Flag kSize{"<size>", "", "design size", Kind::kInt, at_least(1)};
const util::Flag kTrace{"--trace", "F", "write a Chrome trace JSON file"};
const util::Flag kMetrics{"--metrics", "F",
                          "write the metrics registry (CSV for .csv)"};
const util::Flag kThreads{"--threads", "N",
                          "worker threads; results are identical at any width",
                          Kind::kInt, at_least(1)};
const util::Flag kTrainDesigns{"--train-designs", "N",
                               "predictor corpus: the first N families",
                               Kind::kInt, at_least(1)};
const util::Flag kTrainEpochs{"--train-epochs", "N",
                              "predictor training epochs", Kind::kInt,
                              at_least(1)};
const util::Flag kCache{"--cache", "N",
                        "prediction-cache capacity (0 disables)", Kind::kInt,
                        kWide};

const std::vector<util::Command> kCommands = {
    {"gen", "Generate a benchmark design and print its AIG statistics.",
     cmd_gen, {kFamily, kSize},
     {{"--aag", "F", "write the AIG as ASCII AIGER"},
      {"--dot", "F", "write the AIG as Graphviz DOT"}}},
    {"synth", "Synthesize an ASCII AIGER file onto the built-in library.",
     cmd_synth, {{"<in.aag>", "", "the AIG to synthesize"}},
     {{"--recipe", "NAME", "synthesis recipe"},
      {"--verilog", "F", "write the mapped netlist as Verilog"}}},
    {"flow", "Run synthesis, placement, routing and STA; print the QoR.",
     cmd_flow, {kFamily, kSize}, {kTrace, kMetrics}},
    {"plan", "Characterize a design and plan its cheapest deployment.",
     cmd_plan,
     {kFamily, kSize,
      {"<deadline_s>", "", "deployment deadline in seconds", Kind::kReal,
       above(0)}},
     {{"--spot", "", "offer spot tiers in every stage", Kind::kSwitch}}},
    {"lib", "Print the built-in cell library as Liberty.", cmd_lib, {},
     {{"--out", "F", "write the library to F instead"}}},
    {"fleet-sim", "Simulate a cloud fleet serving a stream of EDA jobs.",
     cmd_fleet_sim, {},
     {{"--arrival-rate", "JOBS_PER_HOUR", "Poisson job arrivals per hour",
       Kind::kReal, above(0)},
      {"--policy", "fifo|cost|edf", "scheduling policy"},
      {"--seed", "N", "master seed", Kind::kInt, kWide},
      {"--duration", "SECONDS", "arrival window in simulated seconds",
       Kind::kReal, above(0)},
      {"--mix", "uniform|skewed|bursty|diurnal|flash", "traffic mix"},
      {"--spot", "FRACTION", "share of launched VMs that are spot",
       Kind::kReal, within(0, 1)},
      {"--market", "static|drift|storm", "seeded spot-price market"},
      {"--market-trace", "F", "replay a price-trace file"},
      {"--bid", "FRACTION", "spot bid as a fraction of on-demand",
       Kind::kReal, above(0)},
      {"--market-interval", "S", "seconds between market ticks", Kind::kReal,
       above(0)},
      {"--rebid", "", "enable the market re-bid policy", Kind::kSwitch},
      {"--interruption-rate", "PER_HOUR", "spot reclaims per VM-hour",
       Kind::kReal, at_least(0)},
      {"--crash-rate", "PER_HOUR", "machine crashes per VM-hour",
       Kind::kReal, at_least(0)},
      {"--boot-fail", "PROBABILITY", "chance a launched VM never comes up",
       Kind::kReal, {0, 1, false, true}},
      {"--restart", "", "what a killed attempt resumes from", Kind::kWord,
       {}, {"credit", "zero", "checkpoint"}},
      {"--checkpoint-interval", "SECONDS",
       "snapshot cadence in work-seconds (implies checkpoint)", Kind::kReal,
       at_least(0)},
      {"--checkpoint-overhead", "SECONDS", "service time per snapshot",
       Kind::kReal, at_least(0)},
      {"--max-attempts", "N", "kills of one stage before it fails",
       Kind::kInt, at_least(1)},
      kThreads,
      {"--shards", "N", "logical processes", Kind::kInt,
       within(1, sched::ShardTopology::kPoolCount)},
      {"--handoff-latency", "S", "simulated seconds between a job's stages",
       Kind::kReal, above(0)},
      {"--shard-stats", "", "print and export per-shard statistics",
       Kind::kSwitch},
      kTrace, kMetrics}},
    {"predict", "Train a small predictor; time serial vs batched queries.",
     cmd_predict, {kFamily, kSize},
     {{"--job", "NAME", "synthesis, placement, routing or sta"},
      {"--batch", "N", "queries in the batch", Kind::kInt, at_least(1)},
      kCache, kThreads,
      {"--repeat", "N", "passes over the batch", Kind::kInt, at_least(1)},
      kTrainDesigns, kTrainEpochs,
      {"--verify", "", "exit 1 unless batched == serial bit for bit",
       Kind::kSwitch}}},
    {"tune", "Jointly pick the synthesis recipe and deployment per design.",
     cmd_tune, {kFamily, kSize},
     {{"--designs", "fam:size[,fam:size...]", "designs to tune"},
      {"--deadline", "S", "deployment deadline per design", Kind::kReal,
       above(0)},
      {"--budget", "USD", "also answer fastest-within-budget", Kind::kReal,
       above(0)},
      {"--samples", "N", "seeded random recipes beyond the grid", Kind::kInt,
       within(0, tune::kMaxRandomSamples)},
      {"--seed", "N", "recipe-sampling seed", Kind::kInt, kWide},
      kThreads,
      {"--batch", "N", "predict chunk size", Kind::kInt,
       within(tune::kMinBatchSize, tune::kMaxBatchSize)},
      kCache, kTrainDesigns, kTrainEpochs,
      {"--spot", "", "offer spot tiers in every stage", Kind::kSwitch},
      {"--export", "F", "write the canonical plain-text export"},
      kTrace, kMetrics},
     true},
    {"serve", "Serve predict/optimize/run-stage requests over TCP.",
     cmd_serve, {},
     {{"--port", "N", "listen port; 0 picks an ephemeral one", Kind::kInt,
       within(0, 65535)},
      kThreads,
      {"--seed", "N", "design seed of the training corpus", Kind::kInt,
       kWide},
      {"--max-conns", "N", "connection cap", Kind::kInt, at_least(0)},
      {"--max-queue", "N", "in-flight request cap", Kind::kInt, kWide},
      {"--deadline-ms", "MS", "default request deadline (0 = off)",
       Kind::kReal, within(0, svc::kMaxDeadlineMs)},
      {"--train-designs", "N", "predictor corpus: the first N families",
       Kind::kInt, at_least(0)},
      kTrainEpochs,
      {"--batch-max", "N", "predict requests merged per batch", Kind::kInt,
       at_least(1)},
      {"--predict-cache", "N", "prediction-cache entries (0 = off)",
       Kind::kInt, kWide},
      kTrace, kMetrics}},
    {"loadgen", "Drive a running server with a seeded request stream.",
     cmd_loadgen, {},
     {{"--host", "H", "server host"},
      {"--port", "N", "server port (required)", Kind::kInt, within(1, 65535)},
      {"--mode", "", "one request in flight per connection, or Poisson",
       Kind::kWord, {}, {"closed", "open"}},
      {"--qps", "R", "open-loop aggregate target rate", Kind::kReal,
       above(0)},
      {"--conns", "N", "connections, one thread each", Kind::kInt,
       at_least(1)},
      {"--requests", "N", "fixed request budget (0 = run by time)",
       Kind::kInt, kWide},
      {"--duration", "S", "time mode: measured window", Kind::kReal,
       at_least(0)},
      {"--warmup", "S", "time mode: ramp excluded from latencies",
       Kind::kReal, at_least(0)},
      {"--seed", "N", "request-stream seed", Kind::kInt, kWide},
      {"--mix", "predict|predict-heavy|echo|mixed", "request mix"},
      {"--deadline-ms", "MS", "deadline on every request (0 = off)",
       Kind::kReal, within(0, svc::kMaxDeadlineMs)},
      {"--export", "F", "write the deterministic report as JSON"}}},
};

void print_usage(std::FILE* out) {
  std::fprintf(out, "usage:\n");
  for (const util::Command& command : kCommands) {
    std::fprintf(out, "%s", util::synopsis("edacloud_cli", command).c_str());
  }
  std::fprintf(out, "Every subcommand accepts --help.\nfamilies:");
  for (const auto& info : workloads::families()) {
    std::fprintf(out, " %s", info.name.c_str());
  }
  std::fprintf(out, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(stderr);
    return 2;
  }
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    print_usage(stdout);
    return 0;
  }
  const auto command =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&](const util::Command& c) { return name == c.name; });
  if (command == kCommands.end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
    print_usage(stderr);
    return 2;
  }
  const std::vector<std::string> tokens(argv + 2, argv + argc);
  if (std::find(tokens.begin(), tokens.end(), "--help") != tokens.end() ||
      std::find(tokens.begin(), tokens.end(), "-h") != tokens.end()) {
    std::printf("%s", util::help_text("edacloud_cli", *command).c_str());
    return 0;
  }
  util::Args args;
  if (const std::string error = util::parse_args(*command, tokens, args);
      !error.empty()) {
    std::fprintf(stderr, "error: %s\nusage:\n%s", error.c_str(),
                 util::synopsis("edacloud_cli", *command).c_str());
    return 2;
  }
  try {
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
