#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "nl/cell_library.hpp"
#include "sched/autoscaler.hpp"
#include "sched/fleet.hpp"
#include "sched/job.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "sched/sharded_simulator.hpp"

namespace edacloud::sched {
namespace {

// ---- JobTemplate ------------------------------------------------------------

TEST(JobTemplateTest, BuiltinTemplatesAreOrderedBySize) {
  const auto& templates = builtin_templates();
  ASSERT_EQ(templates.size(), 3u);
  EXPECT_LT(templates[0].best_total_runtime_seconds(),
            templates[1].best_total_runtime_seconds());
  EXPECT_LT(templates[1].best_total_runtime_seconds(),
            templates[2].best_total_runtime_seconds());
}

TEST(JobTemplateTest, RuntimeLaddersDecreaseWithVcpus) {
  for (const auto& tmpl : builtin_templates()) {
    for (core::JobKind job : core::kAllJobs) {
      double previous = 1e18;
      for (const int vcpus : perf::kVcpuOptions) {
        const double runtime =
            tmpl.runtime(job, perf::InstanceFamily::kGeneralPurpose, vcpus);
        EXPECT_GT(runtime, 0.0);
        EXPECT_LE(runtime, previous);
        previous = runtime;
      }
    }
  }
}

TEST(JobTemplateTest, UnmeasuredFamilyFallsBackToGeneralPurpose) {
  const auto& tmpl = builtin_templates()[0];
  EXPECT_DOUBLE_EQ(
      tmpl.runtime(core::JobKind::kSynthesis,
                   perf::InstanceFamily::kComputeOptimized, 4),
      tmpl.runtime(core::JobKind::kSynthesis,
                   perf::InstanceFamily::kGeneralPurpose, 4));
}

TEST(JobTemplateTest, RecommendedLaddersMatchRecommendedFamilies) {
  const auto& tmpl = builtin_templates()[2];
  const auto ladders = tmpl.recommended_ladders();
  for (core::JobKind job : core::kAllJobs) {
    const auto family = core::recommended_family(job);
    const auto idx = static_cast<std::size_t>(job);
    for (std::size_t i = 0; i < perf::kVcpuOptions.size(); ++i) {
      EXPECT_DOUBLE_EQ(ladders[idx][i],
                       tmpl.runtime(job, family, perf::kVcpuOptions[i]));
    }
  }
}

TEST(JobTemplateTest, FromDesignsCarriesCharacterizedRuntimes) {
  const auto library = nl::make_generic_14nm_library();
  const std::vector<workloads::NamedDesign> designs = {
      {"tiny", workloads::BenchmarkSpec{"dynamic_node", 4, 5}}};
  const auto templates = templates_from_designs(designs, library);
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0].name, "tiny");
  EXPECT_GT(templates[0].best_total_runtime_seconds(), 0.0);
  EXPECT_GT(templates[0].runtime(core::JobKind::kRouting,
                                 perf::InstanceFamily::kMemoryOptimized, 8),
            0.0);
}

// ---- LoadGenerator ----------------------------------------------------------

TEST(LoadGeneratorTest, DeterministicPerSeed) {
  LoadConfig config;
  config.mix = uniform_mix();
  LoadGenerator a(config, &builtin_templates(), 7);
  LoadGenerator b(config, &builtin_templates(), 7);
  double ta = 0.0, tb = 0.0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    ta = a.next_arrival_after(ta);
    tb = b.next_arrival_after(tb);
    EXPECT_DOUBLE_EQ(ta, tb);
    const Job ja = a.make_job(i, ta);
    const Job jb = b.make_job(i, tb);
    EXPECT_EQ(ja.template_index, jb.template_index);
    EXPECT_DOUBLE_EQ(ja.scale, jb.scale);
    EXPECT_DOUBLE_EQ(ja.slo_deadline, jb.slo_deadline);
  }
}

TEST(LoadGeneratorTest, MeanInterArrivalMatchesRate) {
  LoadConfig config;
  config.arrival_rate_per_hour = 3600.0;  // one per second
  config.mix = uniform_mix();
  LoadGenerator gen(config, &builtin_templates(), 3);
  double t = 0.0;
  constexpr int kArrivals = 20000;
  for (int i = 0; i < kArrivals; ++i) t = gen.next_arrival_after(t);
  EXPECT_NEAR(t / kArrivals, 1.0, 0.03);
}

TEST(LoadGeneratorTest, BurstyMixConcentratesArrivalsInsideBursts) {
  LoadConfig config;
  config.arrival_rate_per_hour = 720.0;
  config.mix = bursty_mix();
  LoadGenerator gen(config, &builtin_templates(), 5);
  int in_burst = 0, outside = 0;
  double t = 0.0;
  while (t < 100 * config.mix.burst_period_seconds) {
    t = gen.next_arrival_after(t);
    const double phase = std::fmod(t, config.mix.burst_period_seconds);
    if (phase < config.mix.burst_duty * config.mix.burst_period_seconds) {
      ++in_burst;
    } else {
      ++outside;
    }
  }
  // 25% of the timeline at 4x rate carries more traffic than the baseline
  // 75%; uniform arrivals would put only ~25% of jobs inside the window.
  const double fraction =
      static_cast<double>(in_burst) / static_cast<double>(in_burst + outside);
  EXPECT_GT(fraction, 0.45);
}

TEST(LoadGeneratorTest, SkewedMixDrawsMostlySmallJobs) {
  LoadConfig config;
  config.mix = skewed_mix();
  LoadGenerator gen(config, &builtin_templates(), 11);
  int small = 0;
  constexpr int kJobs = 2000;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    if (gen.make_job(i, 0.0).template_index == 0) ++small;
  }
  EXPECT_NEAR(static_cast<double>(small) / kJobs, 0.80, 0.03);
}

TEST(LoadGeneratorTest, SloDeadlineScalesWithBestCaseRuntime) {
  LoadConfig config;
  config.slo_multiplier = 4.0;
  config.scale_sigma = 0.0;  // scale == 1 exactly
  config.mix = uniform_mix();
  LoadGenerator gen(config, &builtin_templates(), 13);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const Job job = gen.make_job(i, 10.0);
    const double best =
        builtin_templates()[static_cast<std::size_t>(job.template_index)]
            .best_total_runtime_seconds();
    EXPECT_DOUBLE_EQ(job.slo_deadline, 10.0 + 4.0 * best);
  }
}

TEST(LoadGeneratorTest, MixByNameRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(mix_by_name("uniform").name, "uniform");
  EXPECT_EQ(mix_by_name("skewed").name, "skewed");
  EXPECT_EQ(mix_by_name("bursty").name, "bursty");
  EXPECT_THROW(mix_by_name("lumpy"), std::invalid_argument);
}

// ---- Fleet ------------------------------------------------------------------

TEST(FleetTest, BootAndBillingLifecycle) {
  FleetConfig config;
  config.boot_seconds = 60.0;
  Fleet fleet(config);
  util::Rng rng(1);
  const PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 4};
  const int id = fleet.launch(pool, 0.0, rng);
  EXPECT_EQ(fleet.vm(id).state, VmInstance::State::kBooting);
  EXPECT_EQ(fleet.idle_count(pool), 0);
  fleet.mark_ready(id);
  EXPECT_EQ(fleet.idle_count(pool), 1);

  fleet.assign(id, 42, 100.0, 50.0);
  EXPECT_EQ(fleet.busy_count(pool), 1);
  fleet.release(id, 150.0);
  EXPECT_DOUBLE_EQ(fleet.vm(id).busy_seconds, 50.0);

  fleet.retire(id, 200.0);
  EXPECT_EQ(fleet.alive_count(pool), 0);
  // 200 billed seconds of a 4-vCPU general-purpose machine.
  const double rate = fleet.hourly_rate_usd(fleet.vm(id));
  EXPECT_NEAR(fleet.total_cost_usd(500.0), rate * 200.0 / 3600.0, 1e-9);
  EXPECT_DOUBLE_EQ(fleet.alive_seconds_total(500.0), 200.0);
}

TEST(FleetTest, SpotInstancesGetDiscountedRate) {
  FleetConfig config;
  config.spot_fraction = 1.0;
  Fleet fleet(config);
  util::Rng rng(1);
  const PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 8};
  const int id = fleet.launch(pool, 0.0, rng);
  ASSERT_TRUE(fleet.vm(id).spot);

  Fleet on_demand(FleetConfig{});
  util::Rng rng2(1);
  const int od_id = on_demand.launch(pool, 0.0, rng2);
  ASSERT_FALSE(on_demand.vm(od_id).spot);
  EXPECT_NEAR(fleet.hourly_rate_usd(fleet.vm(id)),
              on_demand.hourly_rate_usd(on_demand.vm(od_id)) *
                  config.spot.price_multiplier,
              1e-12);
}

TEST(FleetTest, IdleListIsSortedAscending) {
  Fleet fleet(FleetConfig{});
  util::Rng rng(1);
  const PoolKey pool{perf::InstanceFamily::kMemoryOptimized, 2};
  for (int i = 0; i < 4; ++i) fleet.launch(pool, 0.0, rng, /*warm=*/true);
  const auto idle = fleet.idle_in(pool);
  ASSERT_EQ(idle.size(), 4u);
  for (std::size_t i = 1; i < idle.size(); ++i) {
    EXPECT_LT(idle[i - 1], idle[i]);
  }
}

// ---- Autoscaler -------------------------------------------------------------

TEST(AutoscalerTest, ScalesUpUnderQueuedDemand) {
  AutoscalerConfig config;
  config.target_utilization = 0.5;
  Autoscaler scaler(config);
  const PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 4};
  const PoolDemand demand{.queued = 4, .busy = 2, .alive = 2};
  EXPECT_GT(scaler.decide(pool, demand, 1000.0), 0);
}

TEST(AutoscalerTest, UpCooldownBlocksImmediateRepeat) {
  AutoscalerConfig config;
  config.scale_up_cooldown = 30.0;
  config.max_step_up = 1;
  Autoscaler scaler(config);
  const PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 1};
  const PoolDemand demand{.queued = 10, .busy = 0, .alive = 0};
  EXPECT_EQ(scaler.decide(pool, demand, 100.0), 1);
  EXPECT_EQ(scaler.decide(pool, demand, 110.0), 0);  // still cooling
  EXPECT_EQ(scaler.decide(pool, demand, 131.0), 1);
}

TEST(AutoscalerTest, ScalesDownIdleCapacityAfterCooldown) {
  AutoscalerConfig config;
  config.scale_down_cooldown = 60.0;
  Autoscaler scaler(config);
  const PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 1};
  const PoolDemand demand{.queued = 0, .busy = 0, .alive = 5};
  EXPECT_LT(scaler.decide(pool, demand, 1000.0), 0);
  EXPECT_EQ(scaler.decide(pool, demand, 1010.0), 0);  // cooling down
}

TEST(AutoscalerTest, RespectsMaxVms) {
  AutoscalerConfig config;
  config.max_vms = 4;
  Autoscaler scaler(config);
  const PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 1};
  const PoolDemand demand{.queued = 100, .busy = 4, .alive = 4};
  EXPECT_EQ(scaler.decide(pool, demand, 100.0), 0);
}

// ---- Policies ---------------------------------------------------------------

TEST(PolicyTest, FactoryKnowsAllNamesAndRejectsUnknown) {
  EXPECT_EQ(make_policy("fifo")->name(), "fifo");
  EXPECT_EQ(make_policy("cost")->name(), "cost");
  EXPECT_EQ(make_policy("edf")->name(), "edf");
  EXPECT_THROW(make_policy("lifo"), std::invalid_argument);
}

TEST(PolicyTest, FifoRoutesEverythingToTheDefaultPoolHead) {
  FifoAnyPolicy policy;
  Job job;
  const auto plan = policy.plan(job, builtin_templates()[0]);
  const PoolKey big{perf::InstanceFamily::kGeneralPurpose, 8};
  for (const auto& pool : plan) {
    EXPECT_EQ(pool, big);
  }
  std::deque<TaskRef> queue(3);
  EXPECT_EQ(policy.pick(queue, /*spot_vm=*/false), 0u);
  EXPECT_EQ(policy.pick({}, /*spot_vm=*/false), kNoTask);
}

TEST(PolicyTest, CostAwareLooseSloPicksFewerVcpusThanTightSlo) {
  CostAwarePolicy policy;
  const auto& tmpl = builtin_templates()[2];
  Job loose;
  loose.arrival_time = 0.0;
  loose.slo_deadline = 8.0 * tmpl.best_total_runtime_seconds();
  Job tight;
  tight.arrival_time = 0.0;
  tight.slo_deadline = 1.05 * tmpl.best_total_runtime_seconds();
  int loose_vcpus = 0, tight_vcpus = 0;
  for (const auto& pool : policy.plan(loose, tmpl)) loose_vcpus += pool.vcpus;
  for (const auto& pool : policy.plan(tight, tmpl)) tight_vcpus += pool.vcpus;
  EXPECT_LT(loose_vcpus, tight_vcpus);
}

TEST(PolicyTest, CostAwareWaitsForItsOwnPool) {
  // The queue a VM is handed is its own pool's; the oldest task it may run
  // goes first, and an on-demand-only task waits for on-demand capacity in
  // that pool rather than starting on a spot VM.
  CostAwarePolicy policy;
  std::deque<TaskRef> queue(2);
  queue[0].seq = 0;
  queue[0].require_on_demand = true;
  queue[1].seq = 1;
  EXPECT_EQ(policy.pick(queue, /*spot_vm=*/false), 0u);
  EXPECT_EQ(policy.pick(queue, /*spot_vm=*/true), 1u);
  queue[1].require_on_demand = true;
  EXPECT_EQ(policy.pick(queue, /*spot_vm=*/true), kNoTask);
}

TEST(PolicyTest, EdfPrefersEarliestDeadline) {
  EdfPolicy policy;
  std::deque<TaskRef> queue(3);
  queue[0] = TaskRef{0, 0, 0.0, 500.0, 0};
  queue[1] = TaskRef{1, 0, 0.0, 100.0, 1};
  queue[2] = TaskRef{2, 0, 0.0, 100.0, 2};
  // Earliest deadline first; equal deadlines drain in enqueue order.
  EXPECT_EQ(policy.pick(queue, /*spot_vm=*/false), 1u);
  queue[1].require_on_demand = true;
  EXPECT_EQ(policy.pick(queue, /*spot_vm=*/true), 2u);
  EXPECT_EQ(policy.pick({}, /*spot_vm=*/false), kNoTask);
}

// ---- Simulator end-to-end ---------------------------------------------------

SimConfig small_sim(std::uint64_t seed, const TrafficMix& mix,
                    double rate_per_hour) {
  SimConfig config;
  config.seed = seed;
  config.duration_seconds = 3600.0;
  config.load.arrival_rate_per_hour = rate_per_hour;
  config.load.slo_multiplier = 4.0;
  config.load.mix = mix;
  config.fleet.boot_seconds = 45.0;
  config.autoscaler.interval_seconds = 15.0;
  config.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  return config;
}

TEST(SimulatorTest, CompletesEveryAdmittedJob) {
  ShardedFleetSimulator sim({.base = small_sim(3, uniform_mix(), 60.0)},
                            builtin_templates(), "fifo");
  const FleetMetrics m = sim.run();
  EXPECT_GT(m.jobs_submitted, 0u);
  EXPECT_EQ(m.jobs_completed, m.jobs_submitted);
  EXPECT_GE(m.tasks_dispatched,
            m.jobs_completed * static_cast<std::uint64_t>(core::kJobCount));
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_GT(m.cost_per_job_usd, 0.0);
}

TEST(SimulatorTest, SameSeedGivesBitIdenticalMetrics) {
  const auto run_once = [] {
    ShardedFleetSimulator sim({.base = small_sim(99, skewed_mix(), 120.0)},
                              builtin_templates(), "cost");
    return sim.run();
  };
  const FleetMetrics a = run_once();
  const FleetMetrics b = run_once();
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.tasks_dispatched, b.tasks_dispatched);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.peak_vms, b.peak_vms);
  EXPECT_EQ(a.vms_launched, b.vms_launched);
  // Bit-identical doubles, not just approximately equal.
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p95, b.latency_p95);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.mean_queue_wait, b.mean_queue_wait);
  EXPECT_EQ(a.slowdown_p99, b.slowdown_p99);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);
  EXPECT_EQ(a.cost_per_job_usd, b.cost_per_job_usd);
  EXPECT_EQ(a.drained_at_seconds, b.drained_at_seconds);
}

TEST(SimulatorTest, DifferentSeedsDiverge) {
  const auto run_seed = [](std::uint64_t seed) {
    ShardedFleetSimulator sim({.base = small_sim(seed, uniform_mix(), 90.0)},
                              builtin_templates(), "fifo");
    return sim.run();
  };
  const FleetMetrics a = run_seed(1);
  const FleetMetrics b = run_seed(2);
  EXPECT_NE(a.total_cost_usd, b.total_cost_usd);
}

TEST(SimulatorTest, CostAwareIsStrictlyCheaperThanFifoOnSkewedMix) {
  const auto run_policy = [](const std::string& name) {
    ShardedFleetSimulator sim({.base = small_sim(7, skewed_mix(), 180.0)},
                              builtin_templates(), name);
    return sim.run();
  };
  const FleetMetrics fifo = run_policy("fifo");
  const FleetMetrics cost = run_policy("cost");
  ASSERT_GT(fifo.jobs_completed, 0u);
  ASSERT_GT(cost.jobs_completed, 0u);
  EXPECT_LT(cost.cost_per_job_usd, fifo.cost_per_job_usd);
}

TEST(SimulatorTest, ColdFleetPaysBootLatency) {
  SimConfig config = small_sim(5, uniform_mix(), 30.0);
  config.warm_pools.clear();  // nothing provisioned at t = 0
  config.fleet.boot_seconds = 120.0;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "fifo");
  const FleetMetrics m = sim.run();
  EXPECT_EQ(m.jobs_completed, m.jobs_submitted);
  // The first stage cannot start before the autoscaler notices the queue
  // and a machine boots, so queue wait reflects the boot penalty.
  EXPECT_GT(m.mean_queue_wait, 0.0);
  EXPECT_GT(m.vms_launched, 0);
}

TEST(SimulatorTest, SpotFleetSuffersPreemptionsButFinishes) {
  SimConfig config = small_sim(17, uniform_mix(), 60.0);
  config.fleet.spot_fraction = 1.0;
  config.fleet.spot.interruptions_per_hour = 6.0;  // brutal reclaim rate
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  const FleetMetrics m = sim.run();
  EXPECT_GT(m.preemptions, 0u);
  EXPECT_EQ(m.jobs_completed, m.jobs_submitted);
}

TEST(SimulatorTest, ZeroInterruptionRateMeansNoPreemptions) {
  SimConfig config = small_sim(17, uniform_mix(), 60.0);
  config.fleet.spot_fraction = 1.0;
  config.fleet.spot.interruptions_per_hour = 0.0;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  const FleetMetrics m = sim.run();
  EXPECT_EQ(m.preemptions, 0u);
  EXPECT_EQ(m.jobs_completed, m.jobs_submitted);
}

TEST(SimulatorTest, RunIsSingleShot) {
  ShardedFleetSimulator sim({.base = small_sim(1, uniform_mix(), 30.0)},
                            builtin_templates(), "fifo");
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(SimulatorTest, MetricsRenderMentionsKeyRows) {
  ShardedFleetSimulator sim({.base = small_sim(2, uniform_mix(), 30.0)},
                            builtin_templates(), "edf");
  const std::string out = sim.run().render();
  EXPECT_NE(out.find("latency p99"), std::string::npos);
  EXPECT_NE(out.find("cost per job"), std::string::npos);
  EXPECT_NE(out.find("fleet utilization"), std::string::npos);
}

}  // namespace
}  // namespace edacloud::sched
