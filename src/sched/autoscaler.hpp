#pragma once
// Target-utilization autoscaler of one (family, vCPU) pool, sized so that
// busy + queued demand sits at `target_utilization` of capacity; scale-ups
// react quickly (short cooldown, bounded step) while scale-downs are slow
// and only ever retire idle machines — the classic asymmetric policy that
// absorbs bursts without flapping.

namespace edacloud::sched {

struct AutoscalerConfig {
  double interval_seconds = 15.0;    // decision cadence
  double target_utilization = 0.70;  // desired (busy+queued)/capacity
  double scale_up_cooldown = 15.0;
  double scale_down_cooldown = 180.0;
  int max_step_up = 8;  // VMs launched per pool per decision
  int min_vms = 0;      // per-pool floor
  int max_vms = 64;     // per-pool ceiling
};

/// Demand snapshot for one pool at decision time.
struct PoolDemand {
  int queued = 0;  // waiting tasks routed to this pool
  int busy = 0;
  int alive = 0;  // booting + idle + busy
};

class Autoscaler {
 public:
  explicit Autoscaler(AutoscalerConfig config) : config_(config) {}

  /// Signed VM delta for the pool: > 0 launch, < 0 retire idle machines,
  /// 0 hold. Cooldown state advances only when a move is made.
  int decide(const PoolDemand& demand, double now);

 private:
  AutoscalerConfig config_;
  double last_up_ = -1e18;
  double last_down_ = -1e18;
};

}  // namespace edacloud::sched
