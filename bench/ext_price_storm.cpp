// Price-storm extension sweep (beyond the paper): the same seeded load run
// against a replayed spot-price storm — the "storm" preset trace, serialized
// to the canonical text format and parsed back, so the run literally replays
// a trace file — under three pricing strategies per traffic mix:
//
//   static       the classic flat spot model, calibrated to the storm's
//                long-run mean price and reclaim rate (what a planner that
//                cannot see price dynamics would assume);
//   storm        the moving market with the market policy off — price-
//                triggered evictions at the default bid, no re-bid, no
//                migration;
//   storm+rebid  the moving market with the re-bid/migrate policy on.
//
// The question: once evictions cluster around price spikes instead of
// arriving as a flat exponential, does re-bidding evicted work and migrating
// queued work off expensive pools buy back $/completed-job? The harness
// also re-runs the diurnal storm+rebid configuration at (1 shard, 1
// thread), (8 shards, 1 thread) and (8 shards, 8 threads) and fails hard
// unless all three are byte-identical to each other and to the table's
// row — the determinism contract under a moving market, checked in-bench
// on the very numbers the table prints.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "market/market.hpp"
#include "market/price_trace.hpp"
#include "sched/sharded_simulator.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace edacloud;

namespace {

struct Scenario {
  std::string name;
  sched::TrafficMix mix;
  double arrival_rate_per_hour = 0.0;
};

struct Strategy {
  std::string name;
  bool storm = false;  // false = flat StaticMarket at the storm's mean
  bool rebid = false;  // market re-bid/migrate policy
};

sched::SimConfig scenario_config(
    const Scenario& scenario, const Strategy& strategy, std::uint64_t seed,
    bool fast, const std::shared_ptr<market::TraceMarket>& storm) {
  sched::SimConfig config;
  config.seed = seed;
  config.duration_seconds = (fast ? 2.0 : 6.0) * 3600.0;
  config.load.arrival_rate_per_hour = scenario.arrival_rate_per_hour;
  config.load.slo_multiplier = 4.0;
  config.load.scale_sigma = 0.25;
  config.load.mix = scenario.mix;
  config.fleet.boot_seconds = 45.0;
  config.fleet.spot_fraction = 0.6;
  config.fleet.spot_bid_fraction = 0.5;
  config.autoscaler.interval_seconds = 15.0;
  config.autoscaler.target_utilization = 0.70;
  config.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  config.fault.restart = sched::RestartModel::kCheckpoint;
  config.fault.checkpoint_interval_seconds = 150.0;
  config.fault.checkpoint_overhead_seconds = 15.0;
  if (strategy.storm) {
    config.fleet.market = storm;
  } else {
    // The flat baseline sees the same long-run economics — the storm's mean
    // price and expected reclaim rate — just without the dynamics.
    config.fleet.spot = storm->planning_view();
    config.fleet.market = nullptr;  // normalizes to StaticMarket
  }
  config.market.enabled = strategy.rebid;
  return config;
}

bool identical(const sched::FleetMetrics& a, const sched::FleetMetrics& b) {
  return a.jobs_submitted == b.jobs_submitted &&
         a.jobs_completed == b.jobs_completed &&
         a.jobs_failed == b.jobs_failed &&
         a.tasks_dispatched == b.tasks_dispatched &&
         a.preemptions == b.preemptions && a.retries == b.retries &&
         a.spot_fallbacks == b.spot_fallbacks &&
         a.market_rebids == b.market_rebids &&
         a.market_fallbacks == b.market_fallbacks &&
         a.market_migrations == b.market_migrations &&
         a.wasted_seconds == b.wasted_seconds &&
         a.goodput_fraction == b.goodput_fraction &&
         a.drained_at_seconds == b.drained_at_seconds &&
         a.latency_p50 == b.latency_p50 && a.latency_p99 == b.latency_p99 &&
         a.mean_latency == b.mean_latency &&
         a.mean_queue_wait == b.mean_queue_wait &&
         a.utilization == b.utilization &&
         a.total_cost_usd == b.total_cost_usd &&
         a.cost_per_job_usd == b.cost_per_job_usd &&
         a.peak_vms == b.peak_vms && a.vms_launched == b.vms_launched;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  bench::observability_setup(argc, argv, obs::ClockMode::kVirtual);
  const std::uint64_t seed = 20260807;
  const double sim_hours = fast ? 2.0 : 6.0;

  // Generate the storm, round-trip it through the canonical trace format,
  // and run against the *replayed* copy — proving the text format carries
  // the full market state.
  const auto generated =
      market::make_preset_market("storm", seed, (sim_hours + 1.0) * 3600.0);
  const std::string trace_text =
      market::write_price_traces(generated->traces());
  auto storm = std::make_shared<market::TraceMarket>(
      market::parse_price_traces(trace_text), cloud::SpotModel{}, 0.5);
  for (const market::PriceTrace& trace : generated->traces().traces) {
    for (double t = 0.0; t <= sim_hours * 3600.0; t += 721.0) {
      if (storm->price_at(trace.family, trace.vcpus, t) !=
          trace.price_at(t)) {
        std::fprintf(stderr, "trace replay mismatch at t=%.0f\n", t);
        return 1;
      }
    }
  }

  const std::vector<Scenario> scenarios = {
      {"uniform", sched::uniform_mix(), 90.0},
      {"diurnal", sched::diurnal_mix(), 120.0},
      {"flash", sched::flash_mix(), 60.0},
  };
  const std::vector<Strategy> strategies = {
      {"static", false, false},
      {"storm", true, false},
      {"storm+rebid", true, true},
  };

  std::printf(
      "=== Price storm: pricing strategy x traffic mix "
      "(%s mode, seed %llu, 60%% spot, replayed storm trace) ===\n",
      fast ? "fast" : "full", static_cast<unsigned long long>(seed));
  std::printf("storm mean price %.3f of on-demand, %.2f expected reclaims/h "
              "at bid 0.5\n\n",
              storm->planning_view().price_multiplier,
              storm->planning_view().interruptions_per_hour);

  util::Table table({"Mix", "Strategy", "Jobs", "Preempt", "Rebids", "Moves",
                     "Fallbacks", "Goodput", "p99 (s)", "$/job"});
  util::CsvWriter csv({"mix", "strategy", "jobs_completed", "preemptions",
                       "market_rebids", "market_migrations",
                       "market_fallbacks", "goodput_fraction", "latency_p99_s",
                       "cost_per_job_usd", "total_cost_usd"});

  int rebid_wins = 0;
  sched::FleetMetrics diurnal_rebid;  // the row the identity check re-runs
  for (const Scenario& scenario : scenarios) {
    double storm_cost = 0.0;
    double rebid_cost = 0.0;
    for (const Strategy& strategy : strategies) {
      sched::ShardedFleetSimulator sim(
          {.base = scenario_config(scenario, strategy, seed, fast, storm)},
          sched::builtin_templates(), "cost");
      const sched::FleetMetrics m = sim.run();
      if (scenario.name == "diurnal" && strategy.name == "storm+rebid") {
        diurnal_rebid = m;
      }
      m.export_to(obs::Registry::global(),
                  {{"mix", scenario.name}, {"strategy", strategy.name}});
      if (strategy.name == "storm") storm_cost = m.cost_per_job_usd;
      if (strategy.name == "storm+rebid") rebid_cost = m.cost_per_job_usd;

      table.add_row({scenario.name, strategy.name,
                     std::to_string(m.jobs_completed),
                     std::to_string(m.preemptions),
                     std::to_string(m.market_rebids),
                     std::to_string(m.market_migrations),
                     std::to_string(m.market_fallbacks),
                     util::format_percent(m.goodput_fraction, 1),
                     util::format_fixed(m.latency_p99, 0),
                     util::format_fixed(m.cost_per_job_usd, 4)});
      csv.add_row({scenario.name, strategy.name,
                   std::to_string(m.jobs_completed),
                   std::to_string(m.preemptions),
                   std::to_string(m.market_rebids),
                   std::to_string(m.market_migrations),
                   std::to_string(m.market_fallbacks),
                   util::format_fixed(m.goodput_fraction, 4),
                   util::format_fixed(m.latency_p99, 1),
                   util::format_fixed(m.cost_per_job_usd, 5),
                   util::format_fixed(m.total_cost_usd, 2)});
    }
    if (rebid_cost < storm_cost) ++rebid_wins;
    table.add_separator();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "re-bid/migrate beats the static-bid policy on $/completed-job in "
      "%d of %zu mixes under the same storm\n",
      rebid_wins, scenarios.size());

  // Byte-identity under the moving market: the table's storm+rebid diurnal
  // configuration must produce identical metrics at every shard and thread
  // count, and those must be the metrics the table printed.
  sched::ShardedSimConfig shard_config{
      .base = scenario_config(scenarios[1], strategies[2], seed, fast, storm)};
  std::vector<sched::FleetMetrics> runs;
  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {8, 1}, {8, 8}}) {
    shard_config.shards = shards;
    shard_config.threads = threads;
    sched::ShardedFleetSimulator sim(shard_config, sched::builtin_templates(),
                                     "cost");
    runs.push_back(sim.run());
  }
  const bool identity_ok = identical(runs[0], diurnal_rebid) &&
                           identical(runs[0], runs[1]) &&
                           identical(runs[0], runs[2]);
  std::printf("sharded byte-identity under storm+rebid (table == s1t1 == "
              "s8t1 == s8t8): %s\n",
              identity_ok ? "OK" : "MISMATCH");

  bench::write_csv(csv, "ext_price_storm.csv");
  bench::observability_flush(argc, argv);
  return (rebid_wins >= 2 && identity_ok) ? 0 : 1;
}
