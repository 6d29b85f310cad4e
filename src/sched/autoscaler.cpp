#include "sched/autoscaler.hpp"

#include <algorithm>
#include <cmath>

namespace edacloud::sched {

int Autoscaler::decide(const PoolDemand& demand, double now) {
  const double active = static_cast<double>(demand.busy + demand.queued);
  int desired = static_cast<int>(
      std::ceil(active / std::max(0.05, config_.target_utilization)));
  desired = std::clamp(desired, config_.min_vms, config_.max_vms);

  if (desired > demand.alive) {
    if (now - last_up_ < config_.scale_up_cooldown) return 0;
    last_up_ = now;
    return std::min(desired - demand.alive, config_.max_step_up);
  }
  if (desired < demand.alive) {
    if (now - last_down_ < config_.scale_down_cooldown) return 0;
    last_down_ = now;
    return desired - demand.alive;  // caller retires at most the idle ones
  }
  return 0;
}

}  // namespace edacloud::sched
