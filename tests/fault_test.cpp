#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "cloud/pricing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/fault.hpp"
#include "sched/job.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "sched/sharded_simulator.hpp"
#include "util/rng.hpp"

namespace edacloud::sched {
namespace {

// ---- BackoffSchedule --------------------------------------------------------

TEST(BackoffTest, LadderIsCappedExponential) {
  BackoffSchedule schedule(BackoffConfig{});  // 30 * 2^(k-1), cap 600
  EXPECT_DOUBLE_EQ(schedule.base_delay_seconds(1), 30.0);
  EXPECT_DOUBLE_EQ(schedule.base_delay_seconds(2), 60.0);
  EXPECT_DOUBLE_EQ(schedule.base_delay_seconds(3), 120.0);
  EXPECT_DOUBLE_EQ(schedule.base_delay_seconds(4), 240.0);
  EXPECT_DOUBLE_EQ(schedule.base_delay_seconds(5), 480.0);
  EXPECT_DOUBLE_EQ(schedule.base_delay_seconds(6), 600.0);
  EXPECT_DOUBLE_EQ(schedule.base_delay_seconds(60), 600.0);
}

TEST(BackoffTest, JitterStaysWithinConfiguredBand) {
  BackoffConfig config;
  config.jitter_fraction = 0.25;
  BackoffSchedule schedule(config);
  util::Rng rng(99);
  for (int k = 1; k <= 8; ++k) {
    const double base = schedule.base_delay_seconds(k);
    for (int draw = 0; draw < 200; ++draw) {
      const double delay = schedule.delay_seconds(k, rng);
      EXPECT_GE(delay, base * 0.75);
      EXPECT_LE(delay, base * 1.25);
    }
  }
}

TEST(BackoffTest, DelaysAreDeterministicPerSeed) {
  BackoffSchedule schedule(BackoffConfig{});
  util::Rng a(7), b(7);
  for (int k = 1; k <= 12; ++k) {
    EXPECT_DOUBLE_EQ(schedule.delay_seconds(k, a),
                     schedule.delay_seconds(k, b));
  }
}

TEST(BackoffTest, ZeroJitterIsExactlyTheLadder) {
  BackoffConfig config;
  config.jitter_fraction = 0.0;
  BackoffSchedule schedule(config);
  util::Rng rng(5);
  for (int k = 1; k <= 8; ++k) {
    EXPECT_DOUBLE_EQ(schedule.delay_seconds(k, rng),
                     schedule.base_delay_seconds(k));
  }
}

TEST(BackoffTest, InvalidConfigThrows) {
  BackoffConfig negative;
  negative.base_seconds = -1.0;
  EXPECT_THROW(BackoffSchedule{negative}, std::invalid_argument);
  BackoffConfig shrinking;
  shrinking.multiplier = 0.5;
  EXPECT_THROW(BackoffSchedule{shrinking}, std::invalid_argument);
  BackoffConfig wild;
  wild.jitter_fraction = 1.0;  // would allow zero / negative delays
  EXPECT_THROW(BackoffSchedule{wild}, std::invalid_argument);
}

// ---- Checkpoint arithmetic --------------------------------------------------

TEST(CheckpointTest, SnapshotCountSkipsTheFinalSegment) {
  EXPECT_EQ(checkpoint::snapshots_for(1000.0, 300.0), 3);
  EXPECT_EQ(checkpoint::snapshots_for(900.0, 300.0), 2);  // exact multiple
  EXPECT_EQ(checkpoint::snapshots_for(200.0, 300.0), 0);  // single segment
  EXPECT_EQ(checkpoint::snapshots_for(1000.0, 0.0), 0);   // disabled
}

TEST(CheckpointTest, EffectiveSecondsAddsSnapshotOverhead) {
  EXPECT_DOUBLE_EQ(checkpoint::effective_seconds(1000.0, 300.0, 20.0), 1060.0);
  EXPECT_DOUBLE_EQ(checkpoint::effective_seconds(200.0, 300.0, 20.0), 200.0);
  EXPECT_DOUBLE_EQ(checkpoint::effective_seconds(1000.0, 0.0, 20.0), 1000.0);
}

TEST(CheckpointTest, CompletedCheckpointsFollowTheTimeline) {
  // Segments are [300 work, 20 snapshot] = 320 s of effective time each.
  EXPECT_EQ(checkpoint::completed_checkpoints(0.0, 300.0, 20.0), 0);
  EXPECT_EQ(checkpoint::completed_checkpoints(319.0, 300.0, 20.0), 0);
  EXPECT_EQ(checkpoint::completed_checkpoints(320.0, 300.0, 20.0), 1);
  EXPECT_EQ(checkpoint::completed_checkpoints(640.0, 300.0, 20.0), 2);
}

TEST(CheckpointTest, CreditedWorkIsCheckpointsTimesInterval) {
  EXPECT_DOUBLE_EQ(checkpoint::credited_work_seconds(640.0, 300.0, 20.0, 1e9),
                   600.0);
  EXPECT_DOUBLE_EQ(checkpoint::credited_work_seconds(100.0, 300.0, 20.0, 1e9),
                   0.0);
  // Never credits more than the attempt's total work.
  EXPECT_DOUBLE_EQ(checkpoint::credited_work_seconds(640.0, 300.0, 20.0,
                                                     450.0),
                   450.0);
}

// ---- cloud::FaultModel (the pricing hook) -----------------------------------

TEST(FaultModelTest, ZeroRateIsIdentityPlusSnapshots) {
  cloud::FaultModel model;
  EXPECT_DOUBLE_EQ(model.expected_runtime_seconds(5000.0), 5000.0);
  model.checkpoint_interval_seconds = 1000.0;
  model.checkpoint_overhead_seconds = 50.0;
  EXPECT_DOUBLE_EQ(model.expected_runtime_seconds(5000.0),
                   5000.0 + 4 * 50.0);
}

TEST(FaultModelTest, ExpectedRuntimeIsMonotonicInRate) {
  double previous = 3600.0;
  for (double rate : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    cloud::FaultModel model;
    model.interruptions_per_hour = rate;
    const double stretched = model.expected_runtime_seconds(3600.0);
    EXPECT_GT(stretched, previous);
    previous = stretched;
  }
}

TEST(FaultModelTest, CheckpointingBeatsRestartFromZeroOnLongWork) {
  cloud::FaultModel naive;
  naive.interruptions_per_hour = 1.0;
  cloud::FaultModel checkpointed = naive;
  checkpointed.checkpoint_interval_seconds = 600.0;
  checkpointed.checkpoint_overhead_seconds = 30.0;
  const double work = 4.0 * 3600.0;
  EXPECT_LT(checkpointed.expected_runtime_seconds(work),
            naive.expected_runtime_seconds(work));
}

TEST(FaultModelTest, FaultyJobCostInflatesWithRate) {
  const auto catalog = cloud::PricingCatalog::aws_like();
  cloud::FaultModel model;
  model.interruptions_per_hour = 2.0;
  const double clean = catalog.job_cost_usd(
      perf::InstanceFamily::kGeneralPurpose, 4, 3600.0);
  const double faulty = catalog.faulty_job_cost_usd(
      perf::InstanceFamily::kGeneralPurpose, 4, 3600.0, model);
  EXPECT_GT(faulty, clean);
  model.interruptions_per_hour = 0.0;
  EXPECT_DOUBLE_EQ(catalog.faulty_job_cost_usd(
                       perf::InstanceFamily::kGeneralPurpose, 4, 3600.0,
                       model),
                   clean);
}

// ---- Simulator fault injection ----------------------------------------------

SimConfig faulty_sim(std::uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  config.duration_seconds = 3600.0;
  config.load.arrival_rate_per_hour = 60.0;
  config.load.slo_multiplier = 4.0;
  config.load.mix = uniform_mix();
  config.fleet.boot_seconds = 45.0;
  config.autoscaler.interval_seconds = 15.0;
  config.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  config.fleet.spot_fraction = 0.5;
  config.fleet.spot.interruptions_per_hour = 3.0;
  config.fault.crash_rate_per_hour = 0.5;
  config.fault.boot_failure_probability = 0.1;
  config.fault.restart = RestartModel::kCheckpoint;
  config.fault.checkpoint_interval_seconds = 300.0;
  config.fault.checkpoint_overhead_seconds = 15.0;
  return config;
}

TEST(FaultInjectionTest, MetricsAndTraceAreByteIdenticalAcrossRuns) {
  const auto traced_run = [](std::string* trace_json) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.enable(obs::ClockMode::kVirtual);
    ShardedFleetSimulator sim({.base = faulty_sim(21)}, builtin_templates(),
                              "cost");
    const FleetMetrics metrics = sim.run();
    tracer.disable();
    *trace_json = tracer.to_json();
    obs::Registry registry;
    metrics.export_to(registry);
    return registry.to_json();
  };
  std::string trace_a;
  std::string trace_b;
  const std::string metrics_a = traced_run(&trace_a);
  const std::string metrics_b = traced_run(&trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  // The injected faults actually fired (otherwise this test proves nothing).
  EXPECT_NE(metrics_a.find("fleet.retries"), std::string::npos);
  EXPECT_NE(trace_a.find("/attempt-"), std::string::npos);
}

TEST(FaultInjectionTest, CrashesKillTasksButJobsStillFinish) {
  SimConfig config = faulty_sim(4);
  config.fleet.spot_fraction = 0.0;  // isolate the crash hazard
  config.fault.boot_failure_probability = 0.0;
  config.fault.crash_rate_per_hour = 2.0;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "fifo");
  const FleetMetrics m = sim.run();
  EXPECT_GT(m.crashes, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_GT(m.wasted_seconds, 0.0);
  EXPECT_LT(m.goodput_fraction, 1.0);
  EXPECT_EQ(m.jobs_completed + m.jobs_failed, m.jobs_submitted);
  EXPECT_EQ(m.jobs_failed, 0u);  // 10-attempt budget absorbs this rate
}

TEST(FaultInjectionTest, BootFailuresSelfHeal) {
  SimConfig config = faulty_sim(11);
  config.fleet.spot_fraction = 0.0;
  config.fault.crash_rate_per_hour = 0.0;
  config.fault.boot_failure_probability = 0.3;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  const FleetMetrics m = sim.run();
  EXPECT_GT(m.boot_failures, 0u);
  EXPECT_EQ(m.jobs_completed, m.jobs_submitted);
}

TEST(FaultInjectionTest, SingleAttemptBudgetFailsJobsUnderHeavyFaults) {
  SimConfig config = faulty_sim(8);
  config.fleet.spot_fraction = 1.0;
  config.fleet.spot.interruptions_per_hour = 8.0;
  config.fault.max_attempts_per_stage = 1;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  const FleetMetrics m = sim.run();
  EXPECT_GT(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs_completed + m.jobs_failed, m.jobs_submitted);
}

TEST(FaultInjectionTest, RepeatedEvictionsFallBackToOnDemand) {
  SimConfig config = faulty_sim(13);
  config.fault.crash_rate_per_hour = 0.0;
  config.fault.boot_failure_probability = 0.0;
  config.fleet.spot_fraction = 0.5;
  config.fleet.spot.interruptions_per_hour = 10.0;
  config.fault.spot_evictions_before_fallback = 1;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  const FleetMetrics m = sim.run();
  EXPECT_GT(m.spot_fallbacks, 0u);
  EXPECT_EQ(m.jobs_completed + m.jobs_failed, m.jobs_submitted);
}

TEST(FaultInjectionTest, AllSpotFleetNeverStrandsFallbackTasks) {
  // An all-spot fleet has no on-demand tier to degrade to; the fallback
  // must not trigger (a require_on_demand task could never dispatch).
  SimConfig config = faulty_sim(17);
  config.fault.crash_rate_per_hour = 0.0;
  config.fault.boot_failure_probability = 0.0;
  config.fleet.spot_fraction = 1.0;
  config.fleet.spot.interruptions_per_hour = 6.0;
  config.fault.spot_evictions_before_fallback = 1;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  const FleetMetrics m = sim.run();
  EXPECT_EQ(m.spot_fallbacks, 0u);
  EXPECT_EQ(m.jobs_completed + m.jobs_failed, m.jobs_submitted);
}

TEST(FaultInjectionTest, CheckpointingWastesLessThanRestartFromZero) {
  SimConfig config = faulty_sim(29);
  config.fault.boot_failure_probability = 0.0;
  config.fleet.spot.interruptions_per_hour = 4.0;

  config.fault.restart = RestartModel::kFromZero;
  ShardedFleetSimulator naive({.base = config}, builtin_templates(), "cost");
  const FleetMetrics from_zero = naive.run();

  config.fault.restart = RestartModel::kCheckpoint;
  ShardedFleetSimulator smart({.base = config}, builtin_templates(), "cost");
  const FleetMetrics checkpointed = smart.run();

  EXPECT_GT(from_zero.wasted_seconds, 0.0);
  EXPECT_LT(checkpointed.wasted_seconds, from_zero.wasted_seconds);
  EXPECT_GT(checkpointed.checkpoint_overhead_seconds, 0.0);
  EXPECT_DOUBLE_EQ(from_zero.checkpoint_overhead_seconds, 0.0);
}

TEST(FaultInjectionTest, AttemptSpansCarryTheAttemptNumber) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable(obs::ClockMode::kVirtual);
  SimConfig config = faulty_sim(21);
  config.fleet.spot.interruptions_per_hour = 6.0;
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  sim.run();
  tracer.disable();
  const std::string json = tracer.to_json();
  tracer.clear();
  EXPECT_NE(json.find("task/synthesis/attempt-1"), std::string::npos);
  EXPECT_NE(json.find("/attempt-2"), std::string::npos);  // some retry ran
}

TEST(FaultInjectionTest, CostAwarePolicyPricesTheFaultRate) {
  SimConfig config = faulty_sim(3);
  ShardedFleetSimulator sim({.base = config}, builtin_templates(), "cost");
  const auto* cost_aware = dynamic_cast<const CostAwarePolicy*>(&sim.policy());
  ASSERT_NE(cost_aware, nullptr);
  // set_fault_context ran in the constructor: effective rate combines the
  // crash hazard with the spot-share-weighted reclaim hazard.
  const cloud::FaultModel& model = cost_aware->fault_model();
  EXPECT_DOUBLE_EQ(model.interruptions_per_hour, 0.5 + 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(model.checkpoint_interval_seconds, 300.0);
  EXPECT_GT(model.expected_runtime_seconds(3600.0), 3600.0);
}

}  // namespace
}  // namespace edacloud::sched
