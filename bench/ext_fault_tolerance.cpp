// Fault-tolerance extension sweep (beyond the paper): the same seeded load
// on a half-spot fleet with a nonzero reclaim rate, run once per restart
// strategy — naive restart-from-zero, the legacy fractional credit, and
// stage-level checkpointing at several snapshot cadences. The question the
// paper's cost model cannot answer statically: what does a kill actually
// cost once queueing, backoff and re-execution are in the loop, and does
// checkpoint+retry buy its snapshot overhead back in $/completed-job?

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.hpp"
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
  sched::RestartModel restart = sched::RestartModel::kFromZero;
  double checkpoint_interval_seconds = 0.0;
};

sched::SimConfig scenario_config(const Scenario& scenario,
                                 const Strategy& strategy, std::uint64_t seed,
                                 bool fast) {
  sched::SimConfig config;
  config.seed = seed;
  config.duration_seconds = (fast ? 2.0 : 6.0) * 3600.0;
  config.load.arrival_rate_per_hour = scenario.arrival_rate_per_hour;
  config.load.slo_multiplier = 4.0;
  config.load.scale_sigma = 0.25;
  config.load.mix = scenario.mix;
  config.fleet.boot_seconds = 45.0;
  config.fleet.spot_fraction = 0.6;
  config.fleet.spot.interruptions_per_hour = 3.0;
  config.autoscaler.interval_seconds = 15.0;
  config.autoscaler.target_utilization = 0.70;
  config.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  config.fault.restart = strategy.restart;
  config.fault.checkpoint_interval_seconds =
      strategy.checkpoint_interval_seconds;
  config.fault.checkpoint_overhead_seconds = 15.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  bench::observability_setup(argc, argv, obs::ClockMode::kVirtual);
  const std::uint64_t seed = 20260806;

  const std::vector<Scenario> scenarios = {
      {"uniform", sched::uniform_mix(), 90.0},
      {"skewed", sched::skewed_mix(), 240.0},
      {"bursty", sched::bursty_mix(), 60.0},
  };
  const std::vector<Strategy> strategies = {
      {"from-zero", sched::RestartModel::kFromZero, 0.0},
      {"credit", sched::RestartModel::kFractionCredit, 0.0},
      {"ckpt-150s", sched::RestartModel::kCheckpoint, 150.0},
      {"ckpt-300s", sched::RestartModel::kCheckpoint, 300.0},
      {"ckpt-600s", sched::RestartModel::kCheckpoint, 600.0},
  };

  std::printf(
      "=== Fault tolerance: restart strategy x traffic mix "
      "(%s mode, seed %llu, 60%% spot @ 3 reclaims/h) ===\n",
      fast ? "fast" : "full", static_cast<unsigned long long>(seed));

  util::Table table({"Mix", "Strategy", "Jobs", "Preempt", "Retries",
                     "Wasted (s)", "Ckpt ovh (s)", "Goodput", "p99 (s)",
                     "$/job"});
  util::CsvWriter csv({"mix", "strategy", "jobs_completed", "preemptions",
                       "retries", "wasted_seconds",
                       "checkpoint_overhead_seconds", "goodput_fraction",
                       "latency_p99_s", "cost_per_job_usd", "total_cost_usd"});

  int checkpoint_wins = 0;
  for (const Scenario& scenario : scenarios) {
    double from_zero_cost = 0.0;
    double best_checkpoint_cost = std::numeric_limits<double>::infinity();
    for (const Strategy& strategy : strategies) {
      sched::ShardedFleetSimulator sim(
          {.base = scenario_config(scenario, strategy, seed, fast)},
          sched::builtin_templates(), "cost");
      const sched::FleetMetrics m = sim.run();
      m.export_to(obs::Registry::global(),
                  {{"mix", scenario.name}, {"strategy", strategy.name}});
      if (strategy.name == "from-zero") from_zero_cost = m.cost_per_job_usd;
      if (strategy.restart == sched::RestartModel::kCheckpoint &&
          m.cost_per_job_usd < best_checkpoint_cost) {
        best_checkpoint_cost = m.cost_per_job_usd;
      }

      table.add_row({scenario.name, strategy.name,
                     std::to_string(m.jobs_completed),
                     std::to_string(m.preemptions),
                     std::to_string(m.retries),
                     util::format_fixed(m.wasted_seconds, 0),
                     util::format_fixed(m.checkpoint_overhead_seconds, 0),
                     util::format_percent(m.goodput_fraction, 1),
                     util::format_fixed(m.latency_p99, 0),
                     util::format_fixed(m.cost_per_job_usd, 4)});
      csv.add_row({scenario.name, strategy.name,
                   std::to_string(m.jobs_completed),
                   std::to_string(m.preemptions), std::to_string(m.retries),
                   util::format_fixed(m.wasted_seconds, 1),
                   util::format_fixed(m.checkpoint_overhead_seconds, 1),
                   util::format_fixed(m.goodput_fraction, 4),
                   util::format_fixed(m.latency_p99, 1),
                   util::format_fixed(m.cost_per_job_usd, 5),
                   util::format_fixed(m.total_cost_usd, 2)});
    }
    if (best_checkpoint_cost < from_zero_cost) ++checkpoint_wins;
    table.add_separator();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "checkpoint+retry beats restart-from-zero on $/completed-job in "
      "%d of %zu mixes\n",
      checkpoint_wins, scenarios.size());

  bench::write_csv(csv, "ext_fault_tolerance.csv");
  bench::observability_flush(argc, argv);
  return checkpoint_wins >= 2 ? 0 : 1;
}
