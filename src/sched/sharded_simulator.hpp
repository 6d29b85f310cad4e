#pragma once
// The discrete-event cloud fleet simulator (the dynamic half of the paper's
// problem; DESIGN.md §7/§13, docs/SIMULATION.md): an open-loop stream of
// EDA flow jobs arrives at an autoscaled fleet of priced VM pools; a
// pluggable policy routes each flow stage to a pool; spot instances get
// reclaimed mid-run, VMs can fail to boot or crash mid-task (FaultConfig),
// and killed stages retry with deterministic exponential backoff, resuming
// from their last checkpoint.
//
// The fleet is partitioned by (family, vCPU) pool: every pool — its VMs,
// queue, autoscaler, RNG streams and metrics — is owned by exactly one
// shard, and shards execute their event queues concurrently on
// util::thread_pool inside conservative synchronization windows:
//
//   LBTS       = min over shards (and the pending arrival) of the next
//                event time — no shard may ever see an event earlier;
//   window     = [LBTS, LBTS + lookahead);
//   guarantee  = a job handed off inside the window is delivered at
//                send_time + handoff_latency >= window end, so delivering
//                all handoffs at the barrier after the window can never
//                create an event in a shard's past (when the configured
//                lookahead <= the real handoff latency; the barrier
//                asserts this and throws on violation).
//
// The hard contract: for a fixed (config, seed), metrics and traces are
// byte-identical at ANY shard count and ANY thread count. What makes this
// hold (and what to preserve when editing):
//   * pool-local determinism — every RNG stream, VM id space, task
//     sequence and autoscaler tick is per-pool, derived only from the
//     master seed and the canonical pool index;
//   * uniform handoff latency — stage handoffs pay handoff_latency even
//     when source and destination pools share a shard, so event times are
//     independent of the pool -> shard map;
//   * intrinsic event ordering — ShardEventLater orders simultaneous
//     events by content, never by insertion order;
//   * canonical merges — per-pool metrics, fleet stats and trace buffers
//     are folded in pool-index order by the coordinator, single-threaded.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/autoscaler.hpp"
#include "sched/fault.hpp"
#include "sched/fleet.hpp"
#include "sched/job.hpp"
#include "sched/load_gen.hpp"
#include "sched/market_policy.hpp"
#include "sched/metrics.hpp"
#include "sched/policy.hpp"
#include "sched/shard.hpp"

namespace edacloud::sched {

/// Full parameterization of one simulated run. A (SimConfig, seed) pair —
/// the seed lives inside — determines every event, metric and trace byte.
struct SimConfig {
  /// Arrivals stop after this much sim time; in-flight jobs then drain.
  double duration_seconds = 4 * 3600.0;
  /// Hard stop for the drain phase (0 = drain until every job finishes).
  double drain_limit_seconds = 0.0;
  /// Master seed. Every RNG stream (arrivals, spot assignment, reclaim /
  /// crash / boot hazards, backoff jitter) derives from it via salted
  /// splitmix64, so streams never alias each other.
  std::uint64_t seed = 1;
  LoadConfig load;
  FleetConfig fleet;
  AutoscalerConfig autoscaler;
  FaultConfig fault;
  /// Re-bid/migrate market policy; disabled by default (no market ticks).
  MarketPolicyConfig market;
  /// Pools pre-provisioned (already booted, idle) at t = 0.
  std::vector<std::pair<PoolKey, int>> warm_pools;
};

struct ShardedSimConfig {
  /// Base simulation parameters (load, fleet, autoscaler, faults, seed).
  SimConfig base;
  /// Logical processes; clamped to [1, ShardTopology::kPoolCount].
  int shards = 1;
  /// Simulated seconds a job spends in transit between stages (result
  /// upload + scheduler round trip). Must be > 0: it is the lookahead the
  /// conservative windows run on.
  double handoff_latency_seconds = 1.0;
  /// Synchronization window width; 0 = handoff_latency_seconds (the
  /// largest safe value). Values above the handoff latency break the
  /// conservative guarantee — the barrier detects that and throws.
  double lookahead_seconds = 0.0;
  /// Worker threads for window execution (0 = the global default).
  int threads = 0;
  /// Emit per-shard window spans on dedicated trace lanes. Off by default:
  /// the lanes depend on the shard count, so runs that must be
  /// byte-comparable across shard counts leave this off.
  bool shard_window_spans = false;
};

/// Per-shard execution accounting (events_processed is also the bench's
/// events/sec numerator when summed over shards).
struct ShardStats {
  std::uint64_t events_processed = 0;
  std::uint64_t handoffs_out = 0;  // messages this shard's pools sent
  std::uint64_t handoffs_in = 0;   // messages delivered to this shard
  int pools_owned = 0;
};

class ShardedFleetSimulator {
 public:
  /// `policy_name` is the make_policy() name ("fifo" | "cost" | "edf");
  /// each pool (and each admission-planning worker slot) gets its own
  /// instance, configured identically and told the fleet/fault context.
  /// A pool's queue only ever holds tasks routed to that pool, so picks
  /// are pool-local at every shard count.
  /// Throws std::invalid_argument on an unknown policy, a non-positive
  /// handoff latency or retry budget, or a negative lookahead.
  ShardedFleetSimulator(ShardedSimConfig config,
                        std::vector<JobTemplate> templates,
                        std::string policy_name);
  ~ShardedFleetSimulator();  // out of line: PoolRuntime/Shard are private

  /// Run to completion (arrival window + drain) and return the merged
  /// metrics. Single-shot: a second call throws std::logic_error. If the
  /// global tracer is enabled in kVirtual mode, the virtual clock is
  /// advanced to the drain time and task attempts / per-pool queue depths
  /// are emitted as spans and counters.
  FleetMetrics run();

  /// The admission-planning policy (worker slot 0); every other instance
  /// is configured identically.
  [[nodiscard]] const SchedulerPolicy& policy() const {
    return *plan_policies_.front();
  }

  [[nodiscard]] const std::vector<ShardStats>& shard_stats() const {
    return shard_stats_;
  }
  [[nodiscard]] std::uint64_t total_events() const;
  /// Synchronization windows executed (== barriers).
  [[nodiscard]] std::uint64_t windows() const { return windows_; }

  /// Export fleet_shard.* counters/gauges per shard plus the window count
  /// (labels get a "shard" key). Shard-count-dependent by construction, so
  /// callers that need cross-shard-count byte-identity skip this.
  void export_shard_stats(obs::Registry& registry,
                          const obs::Labels& labels = {}) const;

 private:
  struct PoolRuntime;
  struct Shard;

  void admit_jobs(double window_end);
  void execute_window(double window_end);
  void deliver_handoffs();
  void run_shard(Shard& shard, double window_end);

  void handle_deliver(PoolRuntime& pool, const ShardEvent& event);
  void handle_boot(PoolRuntime& pool, const ShardEvent& event);
  void handle_task_complete(Shard& shard, PoolRuntime& pool,
                            const ShardEvent& event);
  void handle_attempt_killed(PoolRuntime& pool, const ShardEvent& event,
                             bool spot_reclaim);
  void handle_task_retry(PoolRuntime& pool, const ShardEvent& event);
  void handle_pool_tick(PoolRuntime& pool, const ShardEvent& event);
  /// Pool-local market tick: re-evaluate the pool's queued tasks against
  /// current prices; migrations leave through the shard outbox as ordinary
  /// JobHandoffs (paying the uniform handoff latency), so event times stay
  /// independent of the pool -> shard map.
  void handle_market_tick(PoolRuntime& pool, const ShardEvent& event);

  void enqueue_stage(PoolRuntime& pool, std::uint64_t job_id, double now);
  void dispatch(PoolRuntime& pool, double now);
  void start_task(PoolRuntime& pool, int vm_id, const TaskRef& task,
                  double now);
  void arm_tick(PoolRuntime& pool, double now);
  void arm_market_tick(PoolRuntime& pool, double now);
  void note_queue_depth(PoolRuntime& pool, double now);
  void note_market_price(PoolRuntime& pool, double now);
  void trace_attempt(PoolRuntime& pool, const Job& job, const VmInstance& vm,
                     int vm_id, double now, bool killed);

  [[nodiscard]] Shard& shard_of(const PoolRuntime& pool);
  [[nodiscard]] double service_seconds(const Job& job,
                                       const VmInstance& vm) const;

  ShardedSimConfig config_;
  std::vector<JobTemplate> templates_;
  ShardTopology topology_;
  double lookahead_ = 0.0;

  std::vector<std::unique_ptr<PoolRuntime>> pools_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<SchedulerPolicy>> plan_policies_;  // per slot
  LoadGenerator generator_;
  BackoffSchedule backoff_;
  MetricsCollector admission_metrics_;  // jobs_submitted lives here

  bool arrivals_open_ = true;
  double next_arrival_ = 0.0;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t windows_ = 0;
  std::vector<ShardStats> shard_stats_;
  bool tracing_ = false;
  bool ran_ = false;
};

}  // namespace edacloud::sched
