#pragma once
// Pluggable scheduling policies. A policy makes two decisions:
//   plan() — at admission, pick the target (family, vCPU) pool for every
//            stage of the job;
//   pick() — when a VM in some pool goes idle, choose which task waiting in
//            that pool's queue it should run next (or none). A pool's queue
//            only ever holds stages plan() routed to that pool.
// Running tasks are never preempted by a policy (spot reclaims are the
// fleet's doing, not the scheduler's).

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "core/optimizer.hpp"
#include "sched/fault.hpp"
#include "sched/fleet.hpp"
#include "sched/job.hpp"

namespace edacloud::sched {

/// A stage task waiting in a pool's queue.
struct TaskRef {
  std::uint64_t job_id = 0;
  int stage = 0;
  double enqueue_time = 0.0;
  double deadline = 0.0;  // absolute SLO deadline of the owning job
  std::uint64_t seq = 0;  // pool-local enqueue order; the EDF tie-break
  /// Graceful-degradation flag: this stage burned its spot-eviction budget
  /// and may only start on on-demand VMs.
  bool require_on_demand = false;
  /// The owning job's JobTemplate index (declared last so positional
  /// initialisers keep their meaning). With `stage` it names the group a
  /// market tick certifies at once.
  int template_index = 0;
};

constexpr std::size_t kNoTask = ~std::size_t{0};

/// True when `task` may start on a VM whose spot-ness is `spot_vm` — the
/// one dispatch rule every policy must respect.
[[nodiscard]] inline bool task_runnable_on(const TaskRef& task, bool spot_vm) {
  return !(task.require_on_demand && spot_vm);
}

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// The simulator announces the fleet + fault configuration once before
  /// the run, so planning policies can price retry-inflated effective cost
  /// into their routing. Default: ignore it.
  virtual void set_fault_context(const FleetConfig& fleet,
                                 const FaultConfig& faults) {
    (void)fleet;
    (void)faults;
  }

  /// Route every stage of a newly admitted job to a pool.
  [[nodiscard]] virtual std::array<PoolKey, core::kJobCount> plan(
      const Job& job, const JobTemplate& tmpl) = 0;

  /// Index into `queue` — the idle VM's own pool queue, in enqueue order —
  /// of the task the VM should run next (kNoTask = leave the VM idle).
  /// `spot_vm` says whether the VM is spot capacity — tasks whose
  /// require_on_demand flag is set must not be picked for a spot VM
  /// (task_runnable_on). The simulator relies on that rule alone: it does
  /// not ask a spot VM to pick while every queued task is on-demand-only.
  /// The queue is a deque because nearly every pick takes the head, which
  /// the simulator then removes in O(1). Default: the oldest runnable task.
  [[nodiscard]] virtual std::size_t pick(const std::deque<TaskRef>& queue,
                                         bool spot_vm) const;
};

/// FIFO-any: every stage targets a single big default pool, whose VMs take
/// the oldest waiting task. This is the "just give everyone large machines"
/// baseline the paper's Fig. 6 calls over-provisioning.
class FifoAnyPolicy : public SchedulerPolicy {
 public:
  explicit FifoAnyPolicy(
      PoolKey default_pool = {perf::InstanceFamily::kGeneralPurpose, 8})
      : default_pool_(default_pool) {}

  [[nodiscard]] std::string name() const override { return "fifo"; }
  [[nodiscard]] std::array<PoolKey, core::kJobCount> plan(
      const Job& job, const JobTemplate& tmpl) override;

 private:
  PoolKey default_pool_;
};

/// Cost-aware: at admission, solve the job's MCKP (greedy heuristic over
/// the DeploymentOptimizer's stages) against its SLO budget, then route
/// every stage to the recommended (family, size). Stages wait for their
/// own pool, oldest first — the autoscaler grows pools that have queued
/// demand. When the simulator announces a fault context, the ladders the
/// MCKP prices are stretched to the retry-inflated *expected* runtimes
/// (cloud::FaultModel), so unreliable capacity is charged what it actually
/// costs.
class CostAwarePolicy : public SchedulerPolicy {
 public:
  explicit CostAwarePolicy(
      cloud::PricingCatalog catalog = cloud::PricingCatalog::aws_like(),
      double queueing_headroom = 0.75)
      : optimizer_(catalog), headroom_(queueing_headroom) {}

  [[nodiscard]] std::string name() const override { return "cost"; }
  void set_fault_context(const FleetConfig& fleet,
                         const FaultConfig& faults) override;
  [[nodiscard]] std::array<PoolKey, core::kJobCount> plan(
      const Job& job, const JobTemplate& tmpl) override;

  /// The effective-runtime model plan() stretches ladders with (identity
  /// until set_fault_context is called with a lossy configuration).
  [[nodiscard]] const cloud::FaultModel& fault_model() const {
    return fault_model_;
  }

 private:
  core::DeploymentOptimizer optimizer_;
  double headroom_;  // fraction of the SLO budget MCKP may spend on service
  cloud::FaultModel fault_model_;  // zero-rate default: no stretch
};

/// Deadline-aware EDF: MCKP routing like the cost-aware policy, but each
/// pool's queue drains in earliest-deadline order (ties by enqueue order).
class EdfPolicy : public CostAwarePolicy {
 public:
  using CostAwarePolicy::CostAwarePolicy;

  [[nodiscard]] std::string name() const override { return "edf"; }
  [[nodiscard]] std::size_t pick(const std::deque<TaskRef>& queue,
                                 bool spot_vm) const override;
};

/// Factory for the CLI / bench: "fifo" | "cost" | "edf"; throws on unknown.
std::unique_ptr<SchedulerPolicy> make_policy(const std::string& name);

}  // namespace edacloud::sched
