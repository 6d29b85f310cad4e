#include "sched/policy.hpp"

#include <stdexcept>

namespace edacloud::sched {

std::size_t SchedulerPolicy::pick(const std::deque<TaskRef>& queue,
                                  bool spot_vm) const {
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (task_runnable_on(queue[i], spot_vm)) return i;
  }
  return kNoTask;
}

std::array<PoolKey, core::kJobCount> FifoAnyPolicy::plan(
    const Job& job, const JobTemplate& tmpl) {
  (void)job;
  (void)tmpl;
  std::array<PoolKey, core::kJobCount> pools;
  pools.fill(default_pool_);
  return pools;
}

void CostAwarePolicy::set_fault_context(const FleetConfig& fleet,
                                        const FaultConfig& faults) {
  // The rate a dispatched task actually experiences: machine crashes hit
  // every VM; spot reclaims hit the spot_fraction share of capacity. The
  // reclaim rate comes from the market's planning view — a static market's
  // view IS its SpotModel, so flat-spot runs keep their exact numbers.
  const cloud::SpotModel view = fleet.market != nullptr
                                    ? fleet.market->planning_view()
                                    : fleet.spot;
  cloud::FaultModel model;
  model.interruptions_per_hour =
      faults.crash_rate_per_hour +
      fleet.spot_fraction * view.interruptions_per_hour;
  if (faults.restart == RestartModel::kCheckpoint) {
    model.checkpoint_interval_seconds = faults.checkpoint_interval_seconds;
    model.checkpoint_overhead_seconds = faults.checkpoint_overhead_seconds;
  }
  model.restart_delay_seconds = faults.backoff.base_seconds;
  fault_model_ = model;
}

std::array<PoolKey, core::kJobCount> CostAwarePolicy::plan(
    const Job& job, const JobTemplate& tmpl) {
  // Scale the template's recommended-family ladders by the job's size
  // jitter and stretch them to retry-inflated expected runtimes, then ask
  // the MCKP for the cheapest per-stage configuration that fits inside the
  // service share of the SLO budget (the rest is reserved for queueing and
  // boot).
  core::RuntimeLadders ladders = tmpl.recommended_ladders();
  for (auto& ladder : ladders) {
    for (double& runtime : ladder) {
      runtime = fault_model_.expected_runtime_seconds(runtime * job.scale);
    }
  }
  const double slo_budget = job.slo_deadline - job.arrival_time;
  const double service_budget = headroom_ * slo_budget;

  optimizer_.build_stages(ladders, stages_);
  cloud::solve_mckp_greedy(stages_, service_budget, greedy_scratch_,
                           selection_);

  std::array<PoolKey, core::kJobCount> pools;
  for (core::JobKind job_kind : core::kAllJobs) {
    const int stage = static_cast<int>(job_kind);
    // Infeasible budget: run every stage at full width (the fastest item).
    const int choice = selection_.feasible
                           ? selection_.choice[stage]
                           : static_cast<int>(perf::kVcpuOptions.size()) - 1;
    pools[stage] = PoolKey{core::recommended_family(job_kind),
                           perf::kVcpuOptions[choice]};
  }
  return pools;
}

std::size_t EdfPolicy::pick(const std::deque<TaskRef>& queue,
                            bool spot_vm) const {
  std::size_t best = kNoTask;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const TaskRef& task = queue[i];
    if (!task_runnable_on(task, spot_vm)) continue;
    if (best == kNoTask || task.deadline < queue[best].deadline ||
        (task.deadline == queue[best].deadline && task.seq < queue[best].seq)) {
      best = i;
    }
  }
  return best;
}

std::unique_ptr<SchedulerPolicy> make_policy(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoAnyPolicy>();
  if (name == "cost") return std::make_unique<CostAwarePolicy>();
  if (name == "edf") return std::make_unique<EdfPolicy>();
  throw std::invalid_argument("unknown policy '" + name +
                              "' (expected fifo | cost | edf)");
}

}  // namespace edacloud::sched
