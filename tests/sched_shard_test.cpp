// Tests for the sharded fleet simulator (DESIGN.md §13): the byte-identity
// contract across shard and thread counts, cross-shard handoff accounting,
// conservative-lookahead violation detection, and the Fleet incremental
// counters the sharded dispatch path leans on.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "market/market.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/fleet.hpp"
#include "sched/load_gen.hpp"
#include "sched/shard.hpp"
#include "sched/sharded_simulator.hpp"

namespace edacloud::sched {
namespace {

// A run with every subsystem lit up: spot capacity with reclaims, boot
// failures, mid-task crashes and checkpointed restarts — the hardest
// configuration to keep deterministic.
ShardedSimConfig faulty_config(int shards) {
  ShardedSimConfig config;
  config.base.seed = 7;
  config.base.duration_seconds = 2 * 3600.0;
  config.base.load.arrival_rate_per_hour = 120.0;
  config.base.load.mix = bursty_mix();
  config.base.fleet.spot_fraction = 0.5;
  config.base.fleet.spot.interruptions_per_hour = 0.4;
  config.base.fault.restart = RestartModel::kCheckpoint;
  config.base.fault.checkpoint_interval_seconds = 120.0;
  config.base.fault.checkpoint_overhead_seconds = 5.0;
  config.base.fault.boot_failure_probability = 0.05;
  config.base.fault.crash_rate_per_hour = 0.1;
  config.shards = shards;
  config.handoff_latency_seconds = 2.0;
  return config;
}

FleetMetrics run_sharded(const ShardedSimConfig& config,
                         const std::string& policy = "cost") {
  ShardedFleetSimulator sim(config, builtin_templates(), policy);
  return sim.run();
}

// Field-by-field exact equality — doubles compared with ==, because the
// contract is bit-identity, not tolerance.
void expect_identical(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_failed, b.jobs_failed);
  EXPECT_EQ(a.tasks_dispatched, b.tasks_dispatched);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.boot_failures, b.boot_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.spot_fallbacks, b.spot_fallbacks);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.wasted_seconds, b.wasted_seconds);
  EXPECT_EQ(a.checkpoint_overhead_seconds, b.checkpoint_overhead_seconds);
  EXPECT_EQ(a.goodput_fraction, b.goodput_fraction);
  EXPECT_EQ(a.drained_at_seconds, b.drained_at_seconds);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p95, b.latency_p95);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.mean_queue_wait, b.mean_queue_wait);
  EXPECT_EQ(a.slowdown_p99, b.slowdown_p99);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);
  EXPECT_EQ(a.cost_per_job_usd, b.cost_per_job_usd);
  EXPECT_EQ(a.peak_vms, b.peak_vms);
  EXPECT_EQ(a.vms_launched, b.vms_launched);
  EXPECT_EQ(a.throughput_per_hour, b.throughput_per_hour);
}

// ---- ShardTopology ----------------------------------------------------------

TEST(ShardTopologyTest, PoolIndexRoundTrips) {
  for (int pool = 0; pool < ShardTopology::kPoolCount; ++pool) {
    EXPECT_EQ(ShardTopology::pool_index(ShardTopology::pool_at(pool)), pool);
  }
}

TEST(ShardTopologyTest, EveryPoolOwnedByExactlyOneShard) {
  for (int shards = 1; shards <= ShardTopology::kPoolCount; ++shards) {
    ShardTopology topology(shards);
    std::set<int> seen;
    for (int s = 0; s < shards; ++s) {
      for (const int pool : topology.pools_of_shard(s)) {
        EXPECT_EQ(topology.shard_of_pool(pool), s);
        EXPECT_TRUE(seen.insert(pool).second) << "pool owned twice";
      }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), ShardTopology::kPoolCount);
  }
}

TEST(ShardTopologyTest, RejectsOutOfRangeShardCounts) {
  EXPECT_THROW(ShardTopology(0), std::invalid_argument);
  EXPECT_THROW(ShardTopology(ShardTopology::kPoolCount + 1),
               std::invalid_argument);
}

TEST(ShardEventQueueTest, OrdersByIntrinsicKeyNotInsertion) {
  ShardEventQueue queue;
  queue.push({5.0, ShardEventType::kPoolTick, 3, 0, -1});
  queue.push({5.0, ShardEventType::kJobDeliver, 7, 2, -1});
  queue.push({5.0, ShardEventType::kJobDeliver, 2, 9, -1});
  queue.push({1.0, ShardEventType::kTaskComplete, 0, 1, 4});
  EXPECT_EQ(queue.pop().type, ShardEventType::kTaskComplete);
  const ShardEvent first = queue.pop();   // deliver beats tick at equal time
  EXPECT_EQ(first.type, ShardEventType::kJobDeliver);
  EXPECT_EQ(first.pool, 2);               // lower pool first at equal type
  EXPECT_EQ(queue.pop().pool, 7);
  EXPECT_EQ(queue.pop().type, ShardEventType::kPoolTick);
}

// ---- Byte-identity across shard counts --------------------------------------

TEST(SchedShardTest, MetricsByteIdenticalAcrossShardCounts) {
  const FleetMetrics one = run_sharded(faulty_config(1));
  const FleetMetrics four = run_sharded(faulty_config(4));
  const FleetMetrics eight = run_sharded(faulty_config(8));
  ASSERT_GT(one.jobs_submitted, 100u);
  ASSERT_GT(one.jobs_completed, 0u);
  ASSERT_GT(one.preemptions + one.crashes, 0u);  // faults actually fired
  expect_identical(one, four);
  expect_identical(one, eight);
}

TEST(SchedShardTest, RegistryExportByteIdenticalAcrossShardCounts) {
  std::vector<std::string> exports;
  for (const int shards : {1, 4, 8}) {
    obs::Registry registry;
    run_sharded(faulty_config(shards))
        .export_to(registry, {{"policy", "cost"}});
    exports.push_back(registry.to_json());
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(exports[0], exports[2]);
}

TEST(SchedShardTest, MetricsByteIdenticalAcrossThreadCounts) {
  ShardedSimConfig serial = faulty_config(8);
  serial.threads = 1;
  ShardedSimConfig wide = faulty_config(8);
  wide.threads = 4;
  expect_identical(run_sharded(serial), run_sharded(wide));
}

TEST(SchedShardTest, TraceByteIdenticalAcrossShardCounts) {
  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<std::string> traces;
  for (const int shards : {1, 8}) {
    tracer.enable(obs::ClockMode::kVirtual);
    tracer.clear();
    ShardedSimConfig config = faulty_config(shards);
    config.base.duration_seconds = 3600.0;
    run_sharded(config);
    traces.push_back(tracer.to_json());
    tracer.disable();
  }
  EXPECT_GT(traces[0].size(), 1000u);  // spans were actually recorded
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(SchedShardTest, PoliciesAgreeAcrossShardCounts) {
  for (const std::string policy : {"fifo", "cost"}) {
    ShardedSimConfig config = faulty_config(1);
    config.base.duration_seconds = 3600.0;
    const FleetMetrics one = run_sharded(config, policy);
    config.shards = 6;
    expect_identical(one, run_sharded(config, policy));
  }
}

// ---- Handoff accounting -----------------------------------------------------

TEST(SchedShardTest, EveryStageTransitionIsAHandoff) {
  // Fault-free: every job completes, and a 4-stage flow makes exactly 3
  // stage transitions. Admission deliveries are pushed directly by the
  // coordinator, so they never count as handoffs.
  ShardedSimConfig config;
  config.base.seed = 11;
  config.base.duration_seconds = 3600.0;
  config.base.load.arrival_rate_per_hour = 60.0;
  config.shards = 4;
  ShardedFleetSimulator sim(config, builtin_templates(), "cost");
  const FleetMetrics metrics = sim.run();
  ASSERT_GT(metrics.jobs_completed, 0u);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_submitted);

  std::uint64_t out = 0;
  std::uint64_t in = 0;
  for (const ShardStats& stats : sim.shard_stats()) {
    out += stats.handoffs_out;
    in += stats.handoffs_in;
  }
  EXPECT_EQ(out, in);  // the barrier delivers everything that was sent
  EXPECT_EQ(out, 3 * metrics.jobs_completed);
  EXPECT_GT(sim.windows(), 0u);
  EXPECT_GT(sim.total_events(), metrics.jobs_submitted);
}

TEST(SchedShardTest, ExportsShardStats) {
  ShardedSimConfig config = faulty_config(4);
  config.base.duration_seconds = 1800.0;
  ShardedFleetSimulator sim(config, builtin_templates(), "cost");
  sim.run();
  obs::Registry registry;
  sim.export_shard_stats(registry, {{"policy", "cost"}});
  EXPECT_NE(registry.find_counter("fleet_shard.windows", {{"policy", "cost"}}),
            nullptr);
  EXPECT_NE(registry.find_counter(
                "fleet_shard.events",
                {{"policy", "cost"}, {"shard", "0"}}),
            nullptr);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// The benchmark's fleet shape for six simulated hours: a diurnal mix at
// 700 jobs/h under the storm market, 40% spot with re-bid and migrate on,
// checkpointed crashes, six warm VMs, 4 shards x 2 threads. Six hours,
// not three: only from the fourth hour on does the storm push queued tasks
// onto on-demand capacity while spot VMs sit idle.
ShardedSimConfig benchmark_fleet_config() {
  ShardedSimConfig config;
  config.base.seed = 1;
  config.base.duration_seconds = 6 * 3600.0;
  config.base.load.arrival_rate_per_hour = 700.0;
  config.base.load.mix = diurnal_mix();
  config.base.fleet.spot_fraction = 0.4;
  config.base.fleet.market =
      market::make_preset_market("storm", 20260807, 25 * 3600.0);
  config.base.market.enabled = true;
  config.base.autoscaler.interval_seconds = 15.0;
  config.base.fault.restart = RestartModel::kCheckpoint;
  config.base.fault.checkpoint_interval_seconds = 150.0;
  config.base.fault.checkpoint_overhead_seconds = 15.0;
  config.base.fault.crash_rate_per_hour = 0.05;
  config.base.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  config.shards = 4;
  config.threads = 2;
  config.handoff_latency_seconds = 1.0;
  return config;
}

// scripts/check.sh's fault smoke: `fleet-sim --seed 42 --duration 3600
// --spot 0.6 --interruption-rate 3 --crash-rate 0.5 --boot-fail 0.1
// --restart checkpoint --checkpoint-interval 300 --checkpoint-overhead 15
// --threads 1` on the CLI's defaults. It has no market ticks and no task
// that needs on-demand capacity, so it takes neither new path; it pins the
// retry, crash and boot-failure handling around them.
ShardedSimConfig fault_smoke_config() {
  ShardedSimConfig config;
  config.base.seed = 42;
  config.base.duration_seconds = 3600.0;
  config.base.load.arrival_rate_per_hour = 60.0;
  config.base.load.mix = uniform_mix();
  config.base.fleet.boot_seconds = 45.0;
  config.base.fleet.spot_fraction = 0.6;
  config.base.fleet.spot.interruptions_per_hour = 3.0;
  config.base.fault.crash_rate_per_hour = 0.5;
  config.base.fault.boot_failure_probability = 0.1;
  config.base.fault.restart = RestartModel::kCheckpoint;
  config.base.fault.checkpoint_interval_seconds = 300.0;
  config.base.fault.checkpoint_overhead_seconds = 15.0;
  config.base.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  config.threads = 1;
  return config;
}

TEST(SchedShardTest, PinnedExportDigests) {
  // The shape-agreement tests above would pass a drift that moved every
  // shape alike; these FNV-1a digests of the FleetMetrics export pin the
  // engine's output itself, as recorded before market ticks certified
  // keeps and dispatch skipped unusable spot VMs.
  struct Pin {
    const char* name;
    ShardedSimConfig config;
    std::uint64_t digest;
    bool new_paths;  // certified keeps and spot-VM skips both occur
  };
  const Pin pins[] = {
      {"benchmark fleet, 6 h", benchmark_fleet_config(), 4181928780923305124ULL,
       true},
      {"fault smoke", fault_smoke_config(), 12902426160149100894ULL, false},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    ShardedFleetSimulator sim(pin.config, builtin_templates(), "cost");
    const FleetMetrics metrics = sim.run();
    obs::Registry exported;
    metrics.export_to(exported);
    EXPECT_EQ(fnv1a(exported.to_json()), pin.digest);
    EXPECT_GT(metrics.retries, 0u);
    if (!pin.new_paths) continue;

    // The counters show the pin covers the certified and skip paths, and
    // being pool-local they agree with a 1-shard, 1-thread run.
    ShardedSimConfig serial_config = pin.config;
    serial_config.shards = 1;
    serial_config.threads = 1;
    ShardedFleetSimulator serial(serial_config, builtin_templates(), "cost");
    serial.run();
    obs::Registry stats[2];
    sim.export_shard_stats(stats[0]);
    serial.export_shard_stats(stats[1]);
    const auto counter = [&stats](int run, const char* name,
                                  const obs::Labels& labels) {
      const obs::Counter* found = stats[run].find_counter(name, labels);
      return found != nullptr ? found->value() : std::uint64_t{0};
    };
    const std::pair<const char*, obs::Labels> work[] = {
        {"fleet_shard.spot_vm_skips", {}},
        {"fleet_shard.market_decisions", {{"path", "certified"}}},
        {"fleet_shard.market_decisions", {{"path", "exact"}}},
    };
    for (const auto& [name, labels] : work) {
      EXPECT_GT(counter(0, name, labels), 0u) << name;
      EXPECT_EQ(counter(0, name, labels), counter(1, name, labels)) << name;
    }
    EXPECT_GT(metrics.market_fallbacks, 0u);
    EXPECT_GT(metrics.market_migrations, 0u);
  }
}

// ---- Conservative lookahead -------------------------------------------------

TEST(SchedShardTest, OversizedLookaheadViolationThrows) {
  // Claiming more lookahead than the real handoff latency breaks the
  // conservative guarantee: a shard can advance past another shard's
  // in-flight message. The barrier must detect that, not corrupt the run.
  ShardedSimConfig config;
  config.base.seed = 3;
  config.base.duration_seconds = 3600.0;
  config.base.load.arrival_rate_per_hour = 120.0;
  config.shards = 4;
  config.handoff_latency_seconds = 0.05;
  config.lookahead_seconds = 50.0;  // >> handoff latency: unsafe window
  ShardedFleetSimulator sim(config, builtin_templates(), "cost");
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(SchedShardTest, RejectsInvalidConfig) {
  ShardedSimConfig config;
  config.handoff_latency_seconds = 0.0;
  EXPECT_THROW(ShardedFleetSimulator(config, builtin_templates(), "cost"),
               std::invalid_argument);
  ShardedSimConfig negative;
  negative.lookahead_seconds = -1.0;
  EXPECT_THROW(ShardedFleetSimulator(negative, builtin_templates(), "cost"),
               std::invalid_argument);
}

TEST(SchedShardTest, RejectsConfigItCannotFinish) {
  const auto throws = [](const auto& mutate) {
    ShardedSimConfig config;
    mutate(config.base);
    EXPECT_THROW(ShardedFleetSimulator(config, builtin_templates(), "cost"),
                 std::invalid_argument);
  };
  throws([](SimConfig& c) { c.fault.boot_failure_probability = 1.0; });
  throws([](SimConfig& c) { c.fault.boot_failure_probability = -0.1; });
  throws([](SimConfig& c) { c.fleet.spot_fraction = 1.7; });
  throws([](SimConfig& c) { c.fleet.spot_fraction = -0.1; });
  throws([](SimConfig& c) { c.fault.crash_rate_per_hour = -1.0; });
  throws([](SimConfig& c) { c.fleet.spot.interruptions_per_hour = -1.0; });
  throws([](SimConfig& c) { c.load.arrival_rate_per_hour = 0.0; });
  throws([](SimConfig& c) { c.duration_seconds = 0.0; });
  throws([](SimConfig& c) { c.duration_seconds = -60.0; });

  // The edges of each range are still valid.
  ShardedSimConfig edges;
  edges.base.duration_seconds = 600.0;
  edges.base.fault.boot_failure_probability = 0.99;
  edges.base.fleet.spot_fraction = 1.0;
  EXPECT_NO_THROW(ShardedFleetSimulator(edges, builtin_templates(), "cost"));
}

TEST(SchedShardTest, RunIsSingleShot) {
  ShardedSimConfig config;
  config.base.duration_seconds = 600.0;
  ShardedFleetSimulator sim(config, builtin_templates(), "fifo");
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

// ---- Fleet incremental counters ---------------------------------------------

TEST(FleetCountersTest, IncrementalCountsMatchInstanceScan) {
  FleetConfig config;
  config.spot_fraction = 0.5;
  Fleet fleet(config);
  util::Rng rng(42);
  const PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 4};
  const PoolKey other{perf::InstanceFamily::kMemoryOptimized, 8};

  std::vector<int> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(fleet.launch(pool, 0.0, rng, true));
  fleet.launch(other, 0.0, rng, true);
  const int booting = fleet.launch(pool, 10.0, rng);  // not idle yet

  fleet.assign(ids[0], 1, 20.0, 100.0);
  fleet.assign(ids[1], 2, 20.0, 100.0);
  fleet.retire(ids[2], 25.0);   // idle retire
  fleet.release(ids[0], 30.0);  // busy -> idle
  fleet.retire(ids[1], 35.0);   // busy retire
  fleet.mark_ready(booting);

  const auto scan = [&](const PoolKey& key) {
    int alive = 0;
    int busy = 0;
    int idle = 0;
    for (const auto& vm : fleet.instances()) {
      if (vm.pool != key || vm.state == VmInstance::State::kRetired) continue;
      ++alive;
      if (vm.state == VmInstance::State::kBusy) ++busy;
      if (vm.state == VmInstance::State::kIdle) ++idle;
    }
    EXPECT_EQ(fleet.alive_count(key), alive);
    EXPECT_EQ(fleet.busy_count(key), busy);
    EXPECT_EQ(fleet.idle_count(key), idle);
    return alive;
  };
  const int total = scan(pool) + scan(other);
  EXPECT_EQ(fleet.total_alive(), total);

  // idle_set view agrees with idle_in and only holds idle members.
  const std::set<int>& idle = fleet.idle_set(pool);
  const std::vector<int> listed = fleet.idle_in(pool);
  EXPECT_EQ(std::vector<int>(idle.begin(), idle.end()), listed);
  for (const int id : idle) {
    EXPECT_EQ(fleet.vm(id).state, VmInstance::State::kIdle);
  }
  // Unknown pools answer empty, not throw.
  const PoolKey unused{perf::InstanceFamily::kComputeOptimized, 1};
  EXPECT_TRUE(fleet.idle_set(unused).empty());
  EXPECT_EQ(fleet.alive_count(unused), 0);
}

}  // namespace
}  // namespace edacloud::sched
