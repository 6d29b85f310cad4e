#include "sched/sharded_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "util/thread_pool.hpp"

namespace edacloud::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Events before the window's end that a shard must hold for its window to
/// be worth a thread-pool round trip; execute_window splits a window only
/// when two shards reach it. micro_kernels' BM_ParallelForSmall times a
/// 2-chunk parallel_for at ~17-20 us more than its larger chunk, so a
/// split pays only once the smaller chunk holds more work than that
/// (EXPERIMENTS.md, "Fleet windows that pay for the pool"). A fleet event
/// costs ~0.5-1 us, so 48 events (~25-50 us) clear the round trip with a
/// margin for its run-to-run spread.
constexpr std::size_t kSplitEvents = 48;

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

/// Index of a task's (template, stage) group — the unit a market tick
/// certifies at once.
std::size_t group_of(const TaskRef& task) {
  return static_cast<std::size_t>(task.template_index) * core::kJobCount +
         static_cast<std::size_t>(task.stage);
}

/// The first multiple of `interval` strictly after `now`: a pure function
/// of (now, interval), so per-pool tick trains are identical at every
/// shard count.
double next_multiple_after(double now, double interval) {
  double next = (std::floor(now / interval) + 1.0) * interval;
  if (next <= now) next += interval;
  return next;
}

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
              std::unique_ptr<SchedulerPolicy> pick_policy,
              std::size_t template_count)
      : key(ShardTopology::pool_at(pool_index)),
        index(pool_index),
        fleet(key, config.base.fleet),
        scaler(config.base.autoscaler),
        policy(std::move(pick_policy)),
        queued_by_group(template_count * core::kJobCount, 0),
        keep_certain(queued_by_group.size(), 0),
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
  std::deque<TaskRef> queue;
  /// Queued tasks a spot VM may run (require_on_demand unset). While it is
  /// 0, dispatch does not ask a spot VM to pick.
  std::size_t spot_runnable = 0;
  /// Queued tasks per (template, stage) group (group_of). A market tick
  /// whose every nonzero group is certified to keep skips the queue scan.
  std::vector<std::size_t> queued_by_group;
  /// This market tick's certify_keeps bytes, one per group; reused.
  std::vector<std::uint8_t> keep_certain;
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
  // Work counters for export_shard_stats; never part of FleetMetrics.
  std::uint64_t certified_decisions = 0;  // tick keeps proved per group
  std::uint64_t exact_decisions = 0;      // market_decide calls
  std::uint64_t group_ticks = 0;          // ticks settled per group
  std::uint64_t scan_ticks = 0;           // ticks that scanned the queue
  std::uint64_t spot_vm_skips = 0;        // spot VMs not asked to pick
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
  // Normalize the market seam before any pool copies the fleet config: a
  // null market becomes a StaticMarket over the flat spot model, shared by
  // every pool (markets are immutable, so sharing is thread-safe).
  config_.base.fleet.market = cloud::ensure_market(config_.base.fleet.market,
                                                   config_.base.fleet.spot);

  pools_.reserve(ShardTopology::kPoolCount);
  for (int pool = 0; pool < ShardTopology::kPoolCount; ++pool) {
    auto policy = make_policy(policy_name);
    policy->set_fault_context(config_.base.fleet, config_.base.fault);
    pools_.push_back(std::make_unique<PoolRuntime>(
        pool, config_, std::move(policy), templates_.size()));
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
      pool.fleet.launch(0.0, pool.fleet_rng, /*warm=*/true);
    }
    pool.peak_alive = pool.fleet.alive_count();
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
    const double window_end = lbts + config_.handoff_latency_seconds;
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
  std::vector<Job>& jobs = admitted_;
  jobs.clear();
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
  std::vector<std::array<PoolKey, core::kJobCount>>& plans = plans_;
  plans.resize(jobs.size());
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
  // Only shards with an event before window_end have work, and a
  // thread-pool round trip costs more than a light shard's whole window.
  // So the window goes to the pool only when two busy shards each hold
  // kSplitEvents events before window_end; otherwise every busy shard runs
  // right here, in ascending shard order. A shard's window is single-writer
  // and never depends on which thread runs it, so both paths compute the
  // same bytes.
  std::vector<Shard*>& busy = busy_shards_;
  busy.clear();
  for (const auto& shard : shards_) {
    if (!shard->events.empty() && shard->events.peek().time < window_end) {
      busy.push_back(shard.get());
    }
  }
  int heavy = 0;
  if (busy.size() >= 2) {
    for (const Shard* shard : busy) {
      if (shard->events.count_before(window_end, kSplitEvents) <
          kSplitEvents) {
        continue;
      }
      if (++heavy == 2) break;
    }
  }
  if (heavy < 2) {
    for (Shard* shard : busy) run_shard(*shard, window_end);
    return;
  }
  ++pooled_windows_;
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
  std::uint64_t processed = 0;
  while (!shard.events.empty() && shard.events.peek().time < window_end) {
    const ShardEvent event = shard.events.pop();
    shard.now = event.time;
    ++processed;
    PoolRuntime& pool = *pools_[static_cast<std::size_t>(event.pool)];
    switch (event.type) {
      case ShardEventType::kJobDeliver:
      case ShardEventType::kTaskRetry:
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
      case ShardEventType::kPoolTick:
        handle_pool_tick(pool, event);
        break;
      case ShardEventType::kMarketTick:
        handle_market_tick(pool, event);
        break;
    }
    pool.peak_alive = std::max(pool.peak_alive, pool.fleet.alive_count());
  }
  shard_stats_[static_cast<std::size_t>(shard.index)].events_processed +=
      processed;
}

void ShardedFleetSimulator::deliver_handoffs() {
  for (const auto& source : shards_) {
    ShardStats& source_stats =
        shard_stats_[static_cast<std::size_t>(source->index)];
    for (JobHandoff& msg : source->outbox) {
      ++source_stats.handoffs_out;
      PoolRuntime& dest = *pools_[static_cast<std::size_t>(msg.dest_pool)];
      Shard& dest_shard = shard_of(dest);
      // Invariant: a handoff pays the handoff latency, the window's width,
      // so it can never land in its destination shard's past.
      if (msg.deliver_time < dest_shard.now) {
        throw std::logic_error(
            "lookahead violation: handoff into pool " + to_string(dest.key) +
            " at t=" + std::to_string(msg.deliver_time) +
            "s but its shard already advanced to t=" +
            std::to_string(dest_shard.now) + "s");
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
  double cost = config_.base.fleet.catalog.job_cost_usd(
      pool.key.family, pool.key.vcpus, service);
  if (vm.spot) {
    // Prevailing mean spot price over the run window; the static market's
    // mean is the flat multiplier, bit-for-bit.
    cost *= config_.base.fleet.market->mean_price(
        pool.key.family, pool.key.vcpus, vm.run_start, event.time);
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

void ShardedFleetSimulator::handle_pool_tick(PoolRuntime& pool,
                                             const ShardEvent& event) {
  pool.tick_armed = false;
  PoolDemand demand;
  demand.queued = static_cast<int>(pool.queue.size());
  demand.busy = pool.fleet.busy_count();
  demand.alive = pool.fleet.alive_count();
  const int delta = pool.scaler.decide(demand, event.time);
  if (delta > 0) {
    for (int i = 0; i < delta; ++i) {
      const int id = pool.fleet.launch(event.time, pool.fleet_rng);
      shard_of(pool).events.push({event.time + config_.base.fleet.boot_seconds,
                                  ShardEventType::kVmBootComplete, pool.index,
                                  0, id});
    }
  } else if (delta < 0) {
    // Retire newest idle machines first; re-read the set each round since
    // retire() mutates it.
    const std::set<int>& idle = pool.fleet.idle_set();
    int retire = std::min(-delta, static_cast<int>(idle.size()));
    while (retire-- > 0) pool.fleet.retire(*idle.rbegin(), event.time);
  }
  dispatch(pool, event.time);

  // Keep ticking while pool-local work can still change the fleet: queued
  // or running tasks, or surplus machines the scaler may yet retire. All
  // pool-local signals, so tick cadence survives resharding.
  if (!pool.queue.empty() || pool.fleet.busy_count() > 0 ||
      pool.fleet.alive_count() > config_.base.autoscaler.min_vms) {
    shard_of(pool).events.push(
        {event.time + config_.base.autoscaler.interval_seconds,
         ShardEventType::kPoolTick, pool.index, 0, -1});
    pool.tick_armed = true;
  }
}

void ShardedFleetSimulator::handle_market_tick(PoolRuntime& pool,
                                               const ShardEvent& event) {
  pool.market_tick_armed = false;
  // One quote per tick: prices depend only on the tick time, so every
  // queued task is decided against the same 12 prices.
  const MarketQuote quote =
      quote_market(*config_.base.fleet.market, config_.base.fleet, event.time);

  const MarketPolicyConfig& policy = config_.base.market;
  // All a task of a certified group needs besides its own flag.
  const bool fallback_priced =
      market_fallback_priced(quote, config_.base.fleet, policy, pool.key);
  certify_keeps(quote, policy, templates_, pool.key, pool.queued_by_group,
                pool.keep_certain);

  // Every task keeps its place when every queued group is certified and no
  // queued task can take the fallback (it is not priced, or every task is
  // on-demand-only already): the scan below would then only count.
  bool every_task_keeps = !fallback_priced || pool.spot_runnable == 0;
  for (std::size_t group = 0;
       every_task_keeps && group < pool.queued_by_group.size(); ++group) {
    every_task_keeps =
        pool.queued_by_group[group] == 0 || pool.keep_certain[group] != 0;
  }
  if (every_task_keeps) {
    ++pool.group_ticks;
    pool.certified_decisions += pool.queue.size();
  } else {
    ++pool.scan_ticks;
    scan_market_queue(pool, quote, fallback_priced, event.time);
  }
  note_counter(pool, pool.market_counter_name, event.time,
               quote.spot_price[static_cast<std::size_t>(pool.index)]);

  dispatch(pool, event.time);
  if (!pool.queue.empty()) {
    arm_market_tick(pool, event.time);
  }
}

void ShardedFleetSimulator::scan_market_queue(PoolRuntime& pool,
                                              const MarketQuote& quote,
                                              bool fallback_priced,
                                              double now) {
  const MarketPolicyConfig& policy = config_.base.market;
  Shard& shard = shard_of(pool);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pool.queue.size(); ++i) {
    TaskRef& task = pool.queue[i];
    auto resident = pool.jobs.end();
    MarketDecision decision;
    if (pool.keep_certain[group_of(task)] != 0) {
      ++pool.certified_decisions;
      if (fallback_priced && !task.require_on_demand) {
        decision.action = MarketAction::kFallback;
      }
    } else {
      ++pool.exact_decisions;
      resident = pool.resident(task.job_id);
      decision = market_decide(
          quote, config_.base.fleet, policy,
          templates_[static_cast<std::size_t>(task.template_index)],
          resident->second.job, pool.key);
    }
    if (decision.action != MarketAction::kKeep &&
        resident == pool.jobs.end()) {
      resident = pool.resident(task.job_id);
    }
    switch (decision.action) {
      case MarketAction::kKeep:
        break;
      case MarketAction::kFallback:
        resident->second.job.require_on_demand = true;
        task.require_on_demand = true;
        --pool.spot_runnable;
        pool.metrics.record_market_fallback();
        break;
      case MarketAction::kMigrate: {
        // Migration is an ordinary stage handoff to the cheaper pool: it
        // pays the uniform handoff latency through the shard outbox, which
        // both keeps event times independent of the pool -> shard map and
        // guarantees barrier-safe delivery. Checkpoint credit rides along
        // in job.stage_progress.
        Job& job = resident->second.job;
        JobHandoff msg;
        msg.deliver_time = now + config_.handoff_latency_seconds;
        msg.dest_pool = ShardTopology::pool_index(decision.pool);
        msg.plan = resident->second.plan;
        msg.plan[job.stage] = decision.pool;
        msg.job = std::move(job);
        shard.outbox.push_back(std::move(msg));
        pool.jobs.erase(resident);
        if (!task.require_on_demand) --pool.spot_runnable;
        --pool.queued_by_group[group_of(task)];
        pool.metrics.record_market_migration();
        continue;  // leave the task out of the kept queue
      }
    }
    pool.queue[kept++] = task;
  }
  if (kept != pool.queue.size()) {
    pool.queue.resize(kept);
    note_counter(pool, pool.queue_counter_name, now,
                 static_cast<double>(pool.queue.size()));
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
  task.template_index = job.template_index;
  pool.queue.push_back(task);
  if (!task.require_on_demand) ++pool.spot_runnable;
  ++pool.queued_by_group[group_of(task)];
  note_counter(pool, pool.queue_counter_name, now,
               static_cast<double>(pool.queue.size()));
}

void ShardedFleetSimulator::dispatch(PoolRuntime& pool, double now) {
  if (pool.queue.empty()) return;
  const std::set<int>& idle = pool.fleet.idle_set();
  auto it = idle.begin();
  while (it != idle.end() && !pool.queue.empty()) {
    const int vm_id = *it;
    ++it;  // advance first: a successful pick erases vm_id from the set
    const bool spot_vm = pool.fleet.vm(vm_id).spot;
    // No queued task may run on spot capacity (task_runnable_on), so a
    // policy's pick could only return kNoTask here.
    if (spot_vm && pool.spot_runnable == 0) {
      ++pool.spot_vm_skips;
      continue;
    }
    const std::size_t index = pool.policy->pick(pool.queue, spot_vm);
    if (index == kNoTask) continue;
    const TaskRef task = pool.queue[index];
    pool.queue.erase(pool.queue.begin() + static_cast<std::ptrdiff_t>(index));
    if (!task.require_on_demand) --pool.spot_runnable;
    --pool.queued_by_group[group_of(task)];
    start_task(pool, vm_id, task, now);
  }
}

void ShardedFleetSimulator::start_task(PoolRuntime& pool, int vm_id,
                                       const TaskRef& task, double now) {
  Job& job = pool.resident(task.job_id)->second.job;
  VmInstance& vm = pool.fleet.vm(vm_id);
  const double work = service_seconds(job, pool.key);
  const double service =
      config_.base.fault.restart == RestartModel::kCheckpoint
          ? checkpoint::effective_seconds(
                work, config_.base.fault.checkpoint_interval_seconds,
                config_.base.fault.checkpoint_overhead_seconds)
          : work;
  pool.fleet.assign(vm_id, job.id, now, service, work);
  ++job.stage_attempts;
  note_counter(pool, pool.queue_counter_name, now,
               static_cast<double>(pool.queue.size()));
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
        pool.key.family, pool.key.vcpus, now, bid, pool.spot_rng);
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
  shard_of(pool).events.push(
      {next_multiple_after(now, config_.base.autoscaler.interval_seconds),
       ShardEventType::kPoolTick, pool.index, 0, -1});
  pool.tick_armed = true;
}

void ShardedFleetSimulator::arm_market_tick(PoolRuntime& pool, double now) {
  if (!config_.base.market.enabled || pool.market_tick_armed) return;
  shard_of(pool).events.push(
      {next_multiple_after(now, config_.base.market.interval_seconds),
       ShardEventType::kMarketTick, pool.index, 0, -1});
  pool.market_tick_armed = true;
}

void ShardedFleetSimulator::note_counter(PoolRuntime& pool,
                                         const std::string& name, double now,
                                         double value) {
  if (!tracing_) return;
  obs::TraceEvent event;
  event.name = name;
  event.phase = 'C';
  event.ts_us = now * 1e6;
  event.tid = 0;
  event.args.push_back({"value", value});
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
                                              const PoolKey& pool) const {
  const JobTemplate& tmpl = templates_[job.template_index];
  const double full =
      tmpl.runtime(static_cast<core::JobKind>(job.stage), pool.family,
                   pool.vcpus) *
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
  registry.counter("fleet_shard.pooled_windows", labels).add(pooled_windows_);
  registry.counter("fleet_shard.events_total", labels).add(total_events());
  // Pool-local work counters, folded in canonical pool order.
  std::uint64_t certified = 0;
  std::uint64_t exact = 0;
  std::uint64_t group_ticks = 0;
  std::uint64_t scan_ticks = 0;
  std::uint64_t skips = 0;
  for (const auto& pool : pools_) {
    certified += pool->certified_decisions;
    exact += pool->exact_decisions;
    group_ticks += pool->group_ticks;
    scan_ticks += pool->scan_ticks;
    skips += pool->spot_vm_skips;
  }
  const auto with_path = [&labels](const char* path) {
    obs::Labels path_labels = labels;
    path_labels.emplace_back("path", path);
    return path_labels;
  };
  registry.counter("fleet_shard.market_decisions", with_path("certified"))
      .add(certified);
  registry.counter("fleet_shard.market_decisions", with_path("exact"))
      .add(exact);
  registry.counter("fleet_shard.market_ticks", with_path("group"))
      .add(group_ticks);
  registry.counter("fleet_shard.market_ticks", with_path("scan"))
      .add(scan_ticks);
  registry.counter("fleet_shard.spot_vm_skips", labels).add(skips);
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
