// Fleet-simulation scenario sweep: three traffic mixes x three scheduling
// policies over the same seeded open-loop load, reporting the SLO / cost /
// utilization trade-off of each pairing. This is the dynamic counterpart
// of Table I: the MCKP recommendation becomes the routing decision of the
// cost-aware policy, and the win over FIFO-on-big-machines is the paper's
// optimizer-vs-over-provisioning gap measured under queueing, boot latency,
// autoscaling and spot preemption.

#include <cstdio>
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
  double spot_fraction = 0.0;
};

sched::SimConfig scenario_config(const Scenario& scenario,
                                 std::uint64_t seed, bool fast) {
  sched::SimConfig config;
  config.seed = seed;
  config.duration_seconds = (fast ? 2.0 : 6.0) * 3600.0;
  config.load.arrival_rate_per_hour = scenario.arrival_rate_per_hour;
  config.load.slo_multiplier = 4.0;
  config.load.scale_sigma = 0.25;
  config.load.mix = scenario.mix;
  config.fleet.boot_seconds = 45.0;
  config.fleet.spot_fraction = scenario.spot_fraction;
  config.autoscaler.interval_seconds = 15.0;
  config.autoscaler.target_utilization = 0.70;
  config.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  bench::observability_setup(argc, argv, obs::ClockMode::kVirtual);
  const std::uint64_t seed = 20260806;

  const std::vector<Scenario> scenarios = {
      {"uniform", sched::uniform_mix(), 90.0, 0.0},
      {"skewed", sched::skewed_mix(), 240.0, 0.0},
      {"bursty", sched::bursty_mix(), 60.0, 0.35},
  };
  const std::vector<std::string> policies = {"fifo", "cost", "edf"};

  std::printf(
      "=== Fleet scenarios: policy x traffic mix (%s mode, seed %llu) ===\n",
      fast ? "fast" : "full", static_cast<unsigned long long>(seed));

  util::Table table({"Mix", "Policy", "Jobs", "p50 (s)", "p99 (s)",
                     "Slowdown p99", "SLO viol", "Util", "$/job", "Preempt"});
  util::CsvWriter csv({"mix", "policy", "jobs", "latency_p50_s",
                       "latency_p99_s", "slowdown_p99", "slo_violation_rate",
                       "utilization", "cost_per_job_usd", "preemptions",
                       "total_cost_usd", "peak_vms"});

  // $/job per (mix, policy) for the acceptance check below.
  std::vector<std::vector<double>> cost_per_job(scenarios.size());

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    for (const std::string& policy_name : policies) {
      sched::ShardedFleetSimulator sim(
          {.base = scenario_config(scenario, seed, fast)},
          sched::builtin_templates(), policy_name);
      const sched::FleetMetrics m = sim.run();
      m.export_to(obs::Registry::global(),
                  {{"mix", scenario.name}, {"policy", policy_name}});
      cost_per_job[s].push_back(m.cost_per_job_usd);

      table.add_row({scenario.name, policy_name,
                     std::to_string(m.jobs_completed),
                     util::format_fixed(m.latency_p50, 0),
                     util::format_fixed(m.latency_p99, 0),
                     util::format_fixed(m.slowdown_p99, 2) + "x",
                     util::format_percent(m.slo_violation_rate, 1),
                     util::format_percent(m.utilization, 1),
                     util::format_fixed(m.cost_per_job_usd, 4),
                     std::to_string(m.preemptions)});
      csv.add_row({scenario.name, policy_name,
                   std::to_string(m.jobs_completed),
                   util::format_fixed(m.latency_p50, 1),
                   util::format_fixed(m.latency_p99, 1),
                   util::format_fixed(m.slowdown_p99, 3),
                   util::format_fixed(m.slo_violation_rate, 4),
                   util::format_fixed(m.utilization, 4),
                   util::format_fixed(m.cost_per_job_usd, 5),
                   std::to_string(m.preemptions),
                   util::format_fixed(m.total_cost_usd, 2),
                   std::to_string(m.peak_vms)});
    }
    table.add_separator();
  }
  std::printf("%s\n", table.render().c_str());

  int cost_wins = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (cost_per_job[s][1] < cost_per_job[s][0]) ++cost_wins;  // cost < fifo
  }
  std::printf("cost-aware beats FIFO-any on $/job in %d of %zu mixes\n",
              cost_wins, scenarios.size());

  bench::write_csv(csv, "fleet_scenarios.csv");
  bench::observability_flush(argc, argv);
  return cost_wins >= 2 ? 0 : 1;
}
