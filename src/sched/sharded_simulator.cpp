#include "sched/sharded_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "util/thread_pool.hpp"

namespace edacloud::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return util::splitmix64(state);
}

/// Per-pool RNG stream seeds. Streams are split from the master seed by
/// canonical pool index (never by shard), so a pool draws the same sequence
/// whether it shares a shard with 11 other pools or runs alone.
std::uint64_t pool_stream_seed(std::uint64_t seed, int pool, int stream) {
  return derive_seed(seed, 16 + static_cast<std::uint64_t>(pool) * 8 +
                               static_cast<std::uint64_t>(stream));
}

/// Trace lane of (pool, vm): pools get disjoint 2^20-wide lane bands, VM
/// ids are pool-local. Deterministic across shard and thread counts.
std::uint32_t vm_lane(int pool, int vm_id) {
  constexpr std::uint32_t kBand = 1u << 20;
  return static_cast<std::uint32_t>(pool) * kBand +
         static_cast<std::uint32_t>(vm_id) % kBand;
}

/// Lane band for per-shard window spans (opt-in telemetry), far above any
/// plausible VM lane.
constexpr std::uint32_t kShardLaneBase = 0xFFFE0000u;

}  // namespace

/// A job resident in a pool (queued, running or backing off) with the
/// per-stage routing plan it carries between pools.
struct PoolJob {
  Job job;
  std::array<PoolKey, core::kJobCount> plan{};
};

/// All simulation state owned by one (family, vCPU) pool. Everything in
/// here is touched only by the owning shard during a window (and by the
/// single-threaded coordinator between windows), so no locking is needed.
struct ShardedFleetSimulator::PoolRuntime {
  PoolRuntime(int pool_index, const ShardedSimConfig& config,
              std::unique_ptr<SchedulerPolicy> pick_policy)
      : key(ShardTopology::pool_at(pool_index)),
        index(pool_index),
        fleet(config.base.fleet),
        scaler(config.base.autoscaler),
        policy(std::move(pick_policy)),
        fleet_rng(pool_stream_seed(config.base.seed, pool_index, 0)),
        spot_rng(pool_stream_seed(config.base.seed, pool_index, 1)),
        crash_rng(pool_stream_seed(config.base.seed, pool_index, 2)),
        boot_rng(pool_stream_seed(config.base.seed, pool_index, 3)),
        backoff_rng(pool_stream_seed(config.base.seed, pool_index, 4)),
        queue_counter_name("fleet/queue/" + to_string(key)),
        market_counter_name("market/price/" + to_string(key)) {}

  PoolKey key;
  int index;
  Fleet fleet;
  Autoscaler scaler;
  std::unique_ptr<SchedulerPolicy> policy;  // pick() only; plan() is global
  std::vector<TaskRef> queue;
  /// Resident jobs by id. Lookup only: never iterate this table — hash
  /// order is not canonical, and letting it reach an event, metric or trace
  /// would break the byte-identity contract.
  std::unordered_map<std::uint64_t, PoolJob> jobs;
  std::uint64_t next_task_seq = 0;
  util::Rng fleet_rng;    // spot-tier assignment on launch
  util::Rng spot_rng;     // reclaim timing on spot VMs
  util::Rng crash_rng;    // mid-task crash timing
  util::Rng boot_rng;     // boot-failure coin flips
  util::Rng backoff_rng;  // retry jitter
  bool tick_armed = false;
  bool market_tick_armed = false;
  int peak_alive = 0;
  MetricsCollector metrics;
  std::vector<obs::TraceEvent> trace_buffer;
  std::string queue_counter_name;
  std::string market_counter_name;

  /// The table entry of resident job `id`; throws std::out_of_range if the
  /// job is not in this pool.
  std::unordered_map<std::uint64_t, PoolJob>::iterator resident(
      std::uint64_t id) {
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
      throw std::out_of_range("job " + std::to_string(id) +
                              " is not resident in pool " + to_string(key));
    }
    return it;
  }
};

/// One logical process: an event queue over its pools, the outbox of
/// handoffs produced during the current window, and its clock.
struct ShardedFleetSimulator::Shard {
  int index = 0;
  ShardEventQueue events;
  std::vector<JobHandoff> outbox;
  double now = 0.0;  // time of the last processed event
  std::vector<obs::TraceEvent> window_spans;
};

ShardedFleetSimulator::ShardedFleetSimulator(ShardedSimConfig config,
                                             std::vector<JobTemplate> templates,
                                             std::string policy_name)
    : config_(std::move(config)),
      templates_(std::move(templates)),
      topology_(std::clamp(config_.shards, 1, ShardTopology::kPoolCount)),
      generator_(config_.base.load, &templates_,
                 derive_seed(config_.base.seed, 1)),
      backoff_(config_.base.fault.backoff) {
  if (config_.handoff_latency_seconds <= 0.0) {
    throw std::invalid_argument("handoff_latency_seconds must be > 0");
  }
  if (config_.lookahead_seconds < 0.0) {
    throw std::invalid_argument("lookahead_seconds must be >= 0");
  }
  if (config_.base.fault.max_attempts_per_stage < 1) {
    throw std::invalid_argument("max_attempts_per_stage must be >= 1");
  }
  // Configs the event loop cannot finish: no arrivals or no window, a VM
  // that never boots (the autoscaler replaces it forever), a spot share
  // that is not a probability, negative Poisson rates.
  const SimConfig& base = config_.base;
  if (!(base.load.arrival_rate_per_hour > 0.0) ||
      !(base.duration_seconds > 0.0)) {
    throw std::invalid_argument("arrival rate and duration must be > 0");
  }
  const double boot_fail = base.fault.boot_failure_probability;
  if (!(boot_fail >= 0.0 && boot_fail < 1.0)) {
    throw std::invalid_argument("boot_failure_probability must be in [0, 1)");
  }
  const double spot = base.fleet.spot_fraction;
  if (!(spot >= 0.0 && spot <= 1.0)) {
    throw std::invalid_argument("spot_fraction must be in [0, 1]");
  }
  if (!(base.fault.crash_rate_per_hour >= 0.0) ||
      !(base.fleet.spot.interruptions_per_hour >= 0.0)) {
    throw std::invalid_argument(
        "crash and interruption rates must be >= 0");
  }
  lookahead_ = config_.lookahead_seconds > 0.0 ? config_.lookahead_seconds
                                               : config_.handoff_latency_seconds;
  // Normalize the market seam before any pool copies the fleet config: a
  // null market becomes a StaticMarket over the flat spot model, shared by
  // every pool (markets are immutable, so sharing is thread-safe).
  config_.base.fleet.market = cloud::ensure_market(config_.base.fleet.market,
                                                   config_.base.fleet.spot);

  pools_.reserve(ShardTopology::kPoolCount);
  for (int pool = 0; pool < ShardTopology::kPoolCount; ++pool) {
    auto policy = make_policy(policy_name);
    policy->set_fault_context(config_.base.fleet, config_.base.fault);
    pools_.push_back(
        std::make_unique<PoolRuntime>(pool, config_, std::move(policy)));
  }
  for (int s = 0; s < topology_.shard_count(); ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = s;
  }
  shard_stats_.resize(static_cast<std::size_t>(topology_.shard_count()));
  for (int s = 0; s < topology_.shard_count(); ++s) {
    shard_stats_[static_cast<std::size_t>(s)].pools_owned =
        static_cast<int>(topology_.pools_of_shard(s).size());
  }
  const int slots = util::parallel_slot_count(config_.threads);
  for (int slot = 0; slot < slots; ++slot) {
    auto policy = make_policy(policy_name);
    policy->set_fault_context(config_.base.fleet, config_.base.fault);
    plan_policies_.push_back(std::move(policy));
  }
}

ShardedFleetSimulator::~ShardedFleetSimulator() = default;

ShardedFleetSimulator::Shard& ShardedFleetSimulator::shard_of(
    const PoolRuntime& pool) {
  return *shards_[static_cast<std::size_t>(topology_.shard_of_pool(pool.index))];
}

FleetMetrics ShardedFleetSimulator::run() {
  if (ran_) throw std::logic_error("ShardedFleetSimulator::run is single-shot");
  ran_ = true;

  obs::Tracer& tracer = obs::Tracer::global();
  tracing_ = tracer.enabled();

  for (const auto& [key, count] : config_.base.warm_pools) {
    PoolRuntime& pool = *pools_[static_cast<std::size_t>(
        ShardTopology::pool_index(key))];
    for (int i = 0; i < count; ++i) {
      pool.fleet.launch(key, 0.0, pool.fleet_rng, /*warm=*/true);
    }
    pool.peak_alive = pool.fleet.total_alive();
    // Warm pools tick from t = 0 so an unused pre-provisioned pool still
    // scales itself down.
    arm_tick(pool, 0.0);
  }

  next_arrival_ = generator_.next_arrival_after(0.0);
  arrivals_open_ = next_arrival_ <= config_.base.duration_seconds;

  const double hard_stop =
      config_.base.drain_limit_seconds > 0.0
          ? config_.base.duration_seconds + config_.base.drain_limit_seconds
          : 0.0;
  double stop_time = -1.0;

  while (true) {
    double lbts = arrivals_open_ ? next_arrival_ : kInf;
    for (const auto& shard : shards_) {
      if (!shard->events.empty()) {
        lbts = std::min(lbts, shard->events.peek().time);
      }
    }
    if (lbts == kInf) break;
    if (hard_stop > 0.0 && lbts > hard_stop) {
      stop_time = lbts;
      break;
    }
    const double window_end = lbts + lookahead_;
    admit_jobs(window_end);
    execute_window(window_end);
    deliver_handoffs();
    ++windows_;
  }

  double drained = std::max(stop_time, 0.0);
  for (const auto& shard : shards_) drained = std::max(drained, shard->now);

  // Canonical-order merges: metrics samples, fleet money and trace buffers
  // all fold by ascending pool index, so float accumulation order — and the
  // tracer's insertion-order tie-break — are shard-count-independent.
  MetricsCollector::FleetStats stats;
  for (const auto& pool : pools_) {
    admission_metrics_.merge_from(pool->metrics);
    stats.busy_seconds += pool->fleet.busy_seconds_total();
    stats.alive_seconds += pool->fleet.alive_seconds_total(drained);
    stats.total_cost_usd += pool->fleet.total_cost_usd(drained);
    // Global instantaneous peak is not pool-decomposable; report the sum of
    // per-pool peaks (an upper bound, and a pure function of pool-local
    // trajectories).
    stats.peak_vms += pool->peak_alive;
    stats.vms_launched += static_cast<int>(pool->fleet.instances().size());
  }

  if (tracing_) {
    for (const auto& pool : pools_) {
      tracer.emit_batch(std::move(pool->trace_buffer));
    }
    if (config_.shard_window_spans) {
      for (const auto& shard : shards_) {
        tracer.emit_batch(std::move(shard->window_spans));
      }
    }
    if (tracer.clock_mode() == obs::ClockMode::kVirtual) {
      tracer.set_virtual_time_seconds(drained);
    }
  }

  return admission_metrics_.finalize(config_.base.duration_seconds, drained,
                                     stats);
}

void ShardedFleetSimulator::admit_jobs(double window_end) {
  // Admission is coordinator work: arrivals are drawn from the one global
  // generator stream (alternating make_job / next_arrival_after draws), so
  // the admitted job sequence is identical at every shard count.
  std::vector<Job> jobs;
  while (arrivals_open_ && next_arrival_ < window_end) {
    jobs.push_back(generator_.make_job(next_job_id_++, next_arrival_));
    admission_metrics_.record_submitted();
    next_arrival_ = generator_.next_arrival_after(next_arrival_);
    if (next_arrival_ > config_.base.duration_seconds) arrivals_open_ = false;
  }
  if (jobs.empty()) return;

  // Route plans in parallel. Each worker slot owns a policy instance; plan
  // is a pure function of (job, template, fault context), so which slot
  // computes a plan never changes it.
  std::vector<std::array<PoolKey, core::kJobCount>> plans(jobs.size());
  util::parallel_for(
      config_.threads, 0, jobs.size(), 8,
      [&](std::size_t begin, std::size_t end, std::size_t, unsigned slot) {
        SchedulerPolicy& policy = *plan_policies_[slot];
        for (std::size_t i = begin; i < end; ++i) {
          plans[i] = policy.plan(jobs[i], templates_[jobs[i].template_index]);
        }
      });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const int dest = ShardTopology::pool_index(plans[i][0]);
    PoolRuntime& pool = *pools_[static_cast<std::size_t>(dest)];
    const std::uint64_t id = jobs[i].id;
    const double arrival = jobs[i].arrival_time;
    pool.jobs.emplace(id, PoolJob{std::move(jobs[i]), plans[i]});
    shard_of(pool).events.push(
        {arrival, ShardEventType::kJobDeliver, dest, id, -1});
  }
}

void ShardedFleetSimulator::execute_window(double window_end) {
  // Only shards with an event before window_end have work. Most windows
  // hold work for one shard, which parallel_for then runs inline on this
  // thread with no thread-pool round trip; which thread runs a shard never
  // changes what it computes.
  std::vector<Shard*> busy;
  for (const auto& shard : shards_) {
    if (!shard->events.empty() && shard->events.peek().time < window_end) {
      busy.push_back(shard.get());
    }
  }
  // Grain 1: each chunk is exactly one shard, so a shard's events are
  // processed by one thread per window (single-writer pool state), and the
  // work a chunk does depends only on its index — the thread-pool
  // bit-identity contract.
  util::parallel_for(config_.threads, 0, busy.size(), 1,
                     [&](std::size_t begin, std::size_t end, std::size_t,
                         unsigned) {
                       for (std::size_t s = begin; s < end; ++s) {
                         run_shard(*busy[s], window_end);
                       }
                     });
}

void ShardedFleetSimulator::run_shard(Shard& shard, double window_end) {
  ShardStats& stats = shard_stats_[static_cast<std::size_t>(shard.index)];
  const double window_start =
      shard.events.empty() ? window_end : shard.events.peek().time;
  std::uint64_t processed = 0;
  while (!shard.events.empty() && shard.events.peek().time < window_end) {
    const ShardEvent event = shard.events.pop();
    shard.now = event.time;
    ++processed;
    PoolRuntime& pool = *pools_[static_cast<std::size_t>(event.pool)];
    switch (event.type) {
      case ShardEventType::kJobDeliver:
        handle_deliver(pool, event);
        break;
      case ShardEventType::kVmBootComplete:
        handle_boot(pool, event);
        break;
      case ShardEventType::kTaskComplete:
        handle_task_complete(shard, pool, event);
        break;
      case ShardEventType::kSpotInterruption:
        handle_attempt_killed(pool, event, /*spot_reclaim=*/true);
        break;
      case ShardEventType::kVmCrash:
        handle_attempt_killed(pool, event, /*spot_reclaim=*/false);
        break;
      case ShardEventType::kTaskRetry:
        handle_task_retry(pool, event);
        break;
      case ShardEventType::kPoolTick:
        handle_pool_tick(pool, event);
        break;
      case ShardEventType::kMarketTick:
        handle_market_tick(pool, event);
        break;
    }
    pool.peak_alive = std::max(pool.peak_alive, pool.fleet.total_alive());
  }
  stats.events_processed += processed;
  if (tracing_ && config_.shard_window_spans && processed > 0) {
    obs::TraceEvent span;
    span.name = "shard/window";
    span.category = "sim";
    span.ts_us = window_start * 1e6;
    span.dur_us = std::max(0.0, shard.now - window_start) * 1e6;
    span.tid = kShardLaneBase + static_cast<std::uint32_t>(shard.index);
    span.args = {{"events", static_cast<double>(processed)}};
    shard.window_spans.push_back(std::move(span));
  }
}

void ShardedFleetSimulator::deliver_handoffs() {
  for (const auto& source : shards_) {
    ShardStats& source_stats =
        shard_stats_[static_cast<std::size_t>(source->index)];
    for (JobHandoff& msg : source->outbox) {
      ++source_stats.handoffs_out;
      PoolRuntime& dest = *pools_[static_cast<std::size_t>(msg.dest_pool)];
      Shard& dest_shard = shard_of(dest);
      if (msg.deliver_time < dest_shard.now) {
        throw std::logic_error(
            "lookahead violation: handoff into pool " + to_string(dest.key) +
            " at t=" + std::to_string(msg.deliver_time) +
            "s but its shard already advanced to t=" +
            std::to_string(dest_shard.now) +
            "s; lookahead_seconds must not exceed handoff_latency_seconds");
      }
      const std::uint64_t id = msg.job.id;
      dest.jobs.emplace(id, PoolJob{std::move(msg.job), msg.plan});
      dest_shard.events.push(
          {msg.deliver_time, ShardEventType::kJobDeliver, msg.dest_pool, id,
           -1});
      ++shard_stats_[static_cast<std::size_t>(dest_shard.index)].handoffs_in;
    }
    source->outbox.clear();
  }
}

void ShardedFleetSimulator::handle_deliver(PoolRuntime& pool,
                                           const ShardEvent& event) {
  enqueue_stage(pool, event.job_id, event.time);
  arm_tick(pool, event.time);
  arm_market_tick(pool, event.time);
  dispatch(pool, event.time);
}

void ShardedFleetSimulator::handle_boot(PoolRuntime& pool,
                                        const ShardEvent& event) {
  if (config_.base.fault.boot_failure_probability > 0.0 &&
      pool.boot_rng.next_bool(config_.base.fault.boot_failure_probability)) {
    pool.metrics.record_boot_failure();
    pool.fleet.retire(event.vm_id, event.time);
    return;
  }
  pool.fleet.mark_ready(event.vm_id);
  dispatch(pool, event.time);
}

void ShardedFleetSimulator::handle_task_complete(Shard& shard,
                                                 PoolRuntime& pool,
                                                 const ShardEvent& event) {
  VmInstance& vm = pool.fleet.vm(event.vm_id);
  const auto resident = pool.resident(event.job_id);
  Job& job = resident->second.job;
  trace_attempt(pool, job, vm, event.vm_id, event.time, /*killed=*/false);

  const double service = vm.run_service;
  pool.metrics.record_checkpoint_overhead(
      std::max(0.0, vm.run_service - vm.run_work));
  double cost = config_.base.fleet.catalog.job_cost_usd(vm.pool.family,
                                                        vm.pool.vcpus, service);
  if (vm.spot) {
    // Prevailing mean spot price over the run window; the static market's
    // mean is the flat multiplier, bit-for-bit.
    cost *= config_.base.fleet.market->mean_price(
        vm.pool.family, vm.pool.vcpus, vm.run_start, event.time);
  }
  job.cost_usd += cost;

  pool.fleet.release(event.vm_id, event.time);
  job.advance_stage();
  if (job.done()) {
    job.completion_time = event.time;
    const JobTemplate& tmpl = templates_[job.template_index];
    pool.metrics.record_completion(
        job, job.scale * tmpl.best_total_runtime_seconds());
  } else {
    // Stage handoff. Every handoff — including to a pool on the same shard,
    // even the same pool — pays the same latency and goes through the
    // outbox, so event times never depend on the pool -> shard map.
    JobHandoff msg;
    msg.deliver_time = event.time + config_.handoff_latency_seconds;
    msg.plan = resident->second.plan;
    msg.dest_pool = ShardTopology::pool_index(msg.plan[job.stage]);
    msg.job = std::move(job);
    shard.outbox.push_back(std::move(msg));
  }
  pool.jobs.erase(resident);
  dispatch(pool, event.time);
}

void ShardedFleetSimulator::handle_attempt_killed(PoolRuntime& pool,
                                                  const ShardEvent& event,
                                                  bool spot_reclaim) {
  const auto resident = pool.resident(event.job_id);
  Job& job = resident->second.job;
  VmInstance& vm = pool.fleet.vm(event.vm_id);
  trace_attempt(pool, job, vm, event.vm_id, event.time, /*killed=*/true);

  const FaultConfig& fault = config_.base.fault;
  const double elapsed = event.time - vm.run_start;
  const double attempt_share = 1.0 - job.stage_progress;
  const double full_work =
      attempt_share > 0.0 ? vm.run_work / attempt_share : 0.0;

  double credited_work = 0.0;
  double overhead_spent = 0.0;
  switch (fault.restart) {
    case RestartModel::kFractionCredit: {
      const double done =
          vm.run_service > 0.0 ? elapsed / vm.run_service : 1.0;
      credited_work =
          vm.run_work * done *
          (1.0 - config_.base.fleet.spot.restart_overhead_fraction);
      break;
    }
    case RestartModel::kFromZero:
      break;
    case RestartModel::kCheckpoint: {
      credited_work = checkpoint::credited_work_seconds(
          elapsed, fault.checkpoint_interval_seconds,
          fault.checkpoint_overhead_seconds, vm.run_work);
      overhead_spent =
          static_cast<double>(checkpoint::completed_checkpoints(
              elapsed, fault.checkpoint_interval_seconds,
              fault.checkpoint_overhead_seconds)) *
          std::max(0.0, fault.checkpoint_overhead_seconds);
      break;
    }
  }
  if (full_work > 0.0) {
    job.stage_progress = std::clamp(
        job.stage_progress + credited_work / full_work, 0.0, 0.999999);
  }
  pool.metrics.record_checkpoint_overhead(overhead_spent);
  pool.metrics.record_wasted(
      std::max(0.0, elapsed - credited_work - overhead_spent));

  ++job.stage_kills;
  if (spot_reclaim) {
    ++job.preemptions;
    ++job.stage_evictions;
    pool.metrics.record_preemption();
    // Re-bid: an evicted job raises its bid (a pure function of the old
    // bid) for all later attempts.
    if (config_.base.market.enabled) {
      const double current =
          std::max(config_.base.fleet.spot_bid_fraction, job.bid);
      const double raised = std::min(
          config_.base.market.max_bid_fraction,
          current * config_.base.market.rebid_multiplier);
      if (raised > current) {
        job.bid = raised;
        pool.metrics.record_market_rebid();
      }
    }
  } else {
    pool.metrics.record_crash();
  }

  pool.fleet.retire(event.vm_id, event.time);

  if (spot_reclaim && fault.spot_evictions_before_fallback > 0 &&
      config_.base.fleet.spot_fraction < 1.0 &&
      job.stage_evictions >= fault.spot_evictions_before_fallback &&
      !job.require_on_demand) {
    job.require_on_demand = true;
    pool.metrics.record_spot_fallback();
  }

  if (job.stage_kills >= fault.max_attempts_per_stage) {
    pool.metrics.record_failure();
    pool.jobs.erase(resident);
    dispatch(pool, event.time);
    return;
  }

  const double delay =
      backoff_.delay_seconds(job.stage_kills, pool.backoff_rng);
  pool.metrics.record_retry();
  shard_of(pool).events.push({event.time + delay, ShardEventType::kTaskRetry,
                              pool.index, job.id, -1});
  dispatch(pool, event.time);
}

void ShardedFleetSimulator::handle_task_retry(PoolRuntime& pool,
                                              const ShardEvent& event) {
  if (pool.jobs.find(event.job_id) == pool.jobs.end()) return;  // defensive
  enqueue_stage(pool, event.job_id, event.time);
  arm_tick(pool, event.time);
  arm_market_tick(pool, event.time);
  dispatch(pool, event.time);
}

void ShardedFleetSimulator::handle_pool_tick(PoolRuntime& pool,
                                             const ShardEvent& event) {
  pool.tick_armed = false;
  PoolDemand demand;
  demand.queued = static_cast<int>(pool.queue.size());
  demand.busy = pool.fleet.busy_count(pool.key);
  demand.alive = pool.fleet.alive_count(pool.key);
  const int delta = pool.scaler.decide(pool.key, demand, event.time);
  if (delta > 0) {
    for (int i = 0; i < delta; ++i) {
      const int id = pool.fleet.launch(pool.key, event.time, pool.fleet_rng);
      shard_of(pool).events.push({event.time + config_.base.fleet.boot_seconds,
                                  ShardEventType::kVmBootComplete, pool.index,
                                  0, id});
    }
  } else if (delta < 0) {
    // Retire newest idle machines first; re-read the set each round since
    // retire() mutates it.
    const std::set<int>& idle = pool.fleet.idle_set(pool.key);
    int retire = std::min(-delta, static_cast<int>(idle.size()));
    while (retire-- > 0) pool.fleet.retire(*idle.rbegin(), event.time);
  }
  dispatch(pool, event.time);

  // Keep ticking while pool-local work can still change the fleet: queued
  // or running tasks, or surplus machines the scaler may yet retire. All
  // pool-local signals, so tick cadence survives resharding.
  if (!pool.queue.empty() || pool.fleet.busy_count(pool.key) > 0 ||
      pool.fleet.alive_count(pool.key) > config_.base.autoscaler.min_vms) {
    shard_of(pool).events.push(
        {event.time + config_.base.autoscaler.interval_seconds,
         ShardEventType::kPoolTick, pool.index, 0, -1});
    pool.tick_armed = true;
  }
}

void ShardedFleetSimulator::handle_market_tick(PoolRuntime& pool,
                                               const ShardEvent& event) {
  pool.market_tick_armed = false;
  Shard& shard = shard_of(pool);
  // One quote per tick: prices depend only on the tick time, so every
  // queued task is decided against the same 12 prices.
  const MarketQuote quote =
      quote_market(*config_.base.fleet.market, config_.base.fleet, event.time);

  std::vector<TaskRef> kept;
  kept.reserve(pool.queue.size());
  for (TaskRef& task : pool.queue) {
    const auto resident = pool.resident(task.job_id);
    Job& job = resident->second.job;
    const MarketDecision decision =
        market_decide(quote, config_.base.fleet, config_.base.market,
                      templates_[job.template_index], job, pool.key);
    switch (decision.action) {
      case MarketAction::kKeep:
        break;
      case MarketAction::kFallback:
        job.require_on_demand = true;
        task.require_on_demand = true;
        pool.metrics.record_market_fallback();
        break;
      case MarketAction::kMigrate: {
        // Migration is an ordinary stage handoff to the cheaper pool: it
        // pays the uniform handoff latency through the shard outbox, which
        // both keeps event times independent of the pool -> shard map and
        // guarantees barrier-safe delivery. Checkpoint credit rides along
        // in job.stage_progress.
        JobHandoff msg;
        msg.deliver_time = event.time + config_.handoff_latency_seconds;
        msg.dest_pool = ShardTopology::pool_index(decision.pool);
        msg.plan = resident->second.plan;
        msg.plan[job.stage] = decision.pool;
        msg.job = std::move(job);
        shard.outbox.push_back(std::move(msg));
        pool.jobs.erase(resident);
        pool.metrics.record_market_migration();
        continue;  // leave the task out of the kept queue
      }
    }
    kept.push_back(task);
  }
  if (kept.size() != pool.queue.size()) {
    pool.queue = std::move(kept);
    note_queue_depth(pool, event.time);
  }
  note_market_price(pool, event.time);

  dispatch(pool, event.time);
  if (!pool.queue.empty()) {
    arm_market_tick(pool, event.time);
  }
}

void ShardedFleetSimulator::enqueue_stage(PoolRuntime& pool,
                                          std::uint64_t job_id, double now) {
  const Job& job = pool.resident(job_id)->second.job;
  TaskRef task;
  task.job_id = job_id;
  task.stage = job.stage;
  task.enqueue_time = now;
  task.deadline = job.slo_deadline;
  task.seq = pool.next_task_seq++;
  task.require_on_demand = job.require_on_demand;
  pool.queue.push_back(task);
  note_queue_depth(pool, now);
}

void ShardedFleetSimulator::dispatch(PoolRuntime& pool, double now) {
  if (pool.queue.empty()) return;
  const std::set<int>& idle = pool.fleet.idle_set(pool.key);
  auto it = idle.begin();
  while (it != idle.end() && !pool.queue.empty()) {
    const int vm_id = *it;
    ++it;  // advance first: a successful pick erases vm_id from the set
    const bool spot_vm = pool.fleet.vm(vm_id).spot;
    const std::size_t index = pool.policy->pick(pool.queue, spot_vm);
    if (index == kNoTask) continue;
    const TaskRef task = pool.queue[index];
    pool.queue.erase(pool.queue.begin() + static_cast<std::ptrdiff_t>(index));
    start_task(pool, vm_id, task, now);
  }
}

void ShardedFleetSimulator::start_task(PoolRuntime& pool, int vm_id,
                                       const TaskRef& task, double now) {
  Job& job = pool.resident(task.job_id)->second.job;
  VmInstance& vm = pool.fleet.vm(vm_id);
  const double work = service_seconds(job, vm);
  const double service =
      config_.base.fault.restart == RestartModel::kCheckpoint
          ? checkpoint::effective_seconds(
                work, config_.base.fault.checkpoint_interval_seconds,
                config_.base.fault.checkpoint_overhead_seconds)
          : work;
  pool.fleet.assign(vm_id, job.id, now, service, work);
  ++job.stage_attempts;
  note_queue_depth(pool, now);
  if (job.first_dispatch_time < 0.0) job.first_dispatch_time = now;
  pool.metrics.record_dispatch(now - task.enqueue_time);

  // Hazard draws happen whenever their hazard is armed, never
  // conditionally on another draw.
  double reclaim_in = kInf;
  if (vm.spot) {
    // The attempt bids the higher of the fleet default and the job's own
    // (re-bid-raised) bid. Static markets draw the classic exponential
    // from the pool's spot stream; trace markets return the first price
    // crossing above the bid and consume no randomness — either way the
    // draw discipline is pool-local and shard-count-independent.
    const double bid = std::max(config_.base.fleet.spot_bid_fraction, job.bid);
    reclaim_in = config_.base.fleet.market->reclaim_draw(
        vm.pool.family, vm.pool.vcpus, now, bid, pool.spot_rng);
  }
  double crash_in = kInf;
  if (config_.base.fault.crash_rate_per_hour > 0.0) {
    cloud::SpotModel crash_hazard;
    crash_hazard.interruptions_per_hour =
        config_.base.fault.crash_rate_per_hour;
    crash_in = crash_hazard.sample_time_to_interruption(pool.crash_rng);
  }
  Shard& shard = shard_of(pool);
  if (reclaim_in < service && reclaim_in <= crash_in) {
    shard.events.push({now + reclaim_in, ShardEventType::kSpotInterruption,
                       pool.index, job.id, vm_id});
    return;
  }
  if (crash_in < service) {
    shard.events.push(
        {now + crash_in, ShardEventType::kVmCrash, pool.index, job.id, vm_id});
    return;
  }
  shard.events.push({now + service, ShardEventType::kTaskComplete, pool.index,
                     job.id, vm_id});
}

void ShardedFleetSimulator::arm_tick(PoolRuntime& pool, double now) {
  if (pool.tick_armed) return;
  const double interval = config_.base.autoscaler.interval_seconds;
  // Ticks land on multiples of the interval, strictly after `now` — a pure
  // function of (now, interval), so per-pool tick trains are identical at
  // every shard count.
  double next = (std::floor(now / interval) + 1.0) * interval;
  if (next <= now) next += interval;
  shard_of(pool).events.push(
      {next, ShardEventType::kPoolTick, pool.index, 0, -1});
  pool.tick_armed = true;
}

void ShardedFleetSimulator::arm_market_tick(PoolRuntime& pool, double now) {
  if (!config_.base.market.enabled || pool.market_tick_armed) return;
  const double interval = config_.base.market.interval_seconds;
  // Like arm_tick: market ticks land on interval multiples strictly after
  // `now` — a pure function of (now, interval), identical at every shard
  // count.
  double next = (std::floor(now / interval) + 1.0) * interval;
  if (next <= now) next += interval;
  shard_of(pool).events.push(
      {next, ShardEventType::kMarketTick, pool.index, 0, -1});
  pool.market_tick_armed = true;
}

void ShardedFleetSimulator::note_market_price(PoolRuntime& pool, double now) {
  if (!tracing_) return;
  obs::TraceEvent event;
  event.name = pool.market_counter_name;
  event.phase = 'C';
  event.ts_us = now * 1e6;
  event.tid = 0;
  event.args.push_back(
      {"value", config_.base.fleet.market->price_at(pool.key.family,
                                                    pool.key.vcpus, now)});
  pool.trace_buffer.push_back(std::move(event));
}

void ShardedFleetSimulator::note_queue_depth(PoolRuntime& pool, double now) {
  if (!tracing_) return;
  obs::TraceEvent event;
  event.name = pool.queue_counter_name;
  event.phase = 'C';
  event.ts_us = now * 1e6;
  event.tid = 0;
  event.args.push_back(
      {"value", static_cast<double>(pool.queue.size())});
  pool.trace_buffer.push_back(std::move(event));
}

void ShardedFleetSimulator::trace_attempt(PoolRuntime& pool, const Job& job,
                                          const VmInstance& vm, int vm_id,
                                          double now, bool killed) {
  if (!tracing_) return;
  obs::TraceEvent event;
  event.name =
      "task/" + core::job_name(static_cast<core::JobKind>(job.stage)) +
      "/attempt-" + std::to_string(job.stage_attempts);
  event.category = "fleet";
  event.phase = 'X';
  event.ts_us = vm.run_start * 1e6;
  event.dur_us = (now - vm.run_start) * 1e6;
  event.tid = vm_lane(pool.index, vm_id);
  event.args = {
      {"job", static_cast<double>(job.id)},
      {"attempt", static_cast<double>(job.stage_attempts)},
      {"preempted", killed ? 1.0 : 0.0},
  };
  pool.trace_buffer.push_back(std::move(event));
}

double ShardedFleetSimulator::service_seconds(const Job& job,
                                              const VmInstance& vm) const {
  const JobTemplate& tmpl = templates_[job.template_index];
  const double full =
      tmpl.runtime(static_cast<core::JobKind>(job.stage), vm.pool.family,
                   vm.pool.vcpus) *
      job.scale;
  return std::max(1e-9, full * (1.0 - job.stage_progress));
}

std::uint64_t ShardedFleetSimulator::total_events() const {
  std::uint64_t total = 0;
  for (const ShardStats& stats : shard_stats_) total += stats.events_processed;
  return total;
}

void ShardedFleetSimulator::export_shard_stats(obs::Registry& registry,
                                               const obs::Labels& labels) const {
  registry.counter("fleet_shard.windows", labels).add(windows_);
  registry.counter("fleet_shard.events_total", labels).add(total_events());
  for (std::size_t s = 0; s < shard_stats_.size(); ++s) {
    obs::Labels shard_labels = labels;
    shard_labels.emplace_back("shard", std::to_string(s));
    const ShardStats& stats = shard_stats_[s];
    registry.counter("fleet_shard.events", shard_labels)
        .add(stats.events_processed);
    registry.counter("fleet_shard.handoffs_out", shard_labels)
        .add(stats.handoffs_out);
    registry.counter("fleet_shard.handoffs_in", shard_labels)
        .add(stats.handoffs_in);
    registry.gauge("fleet_shard.pools_owned", shard_labels)
        .set(static_cast<double>(stats.pools_owned));
  }
}

}  // namespace edacloud::sched
