#pragma once
// Cost-savings analysis vs. naive provisioning (Fig. 6): the optimizer's
// cost against over-provisioning (fastest configuration everywhere) and
// under-provisioning (1 vCPU everywhere).

#include "cloud/mckp.hpp"

namespace edacloud::cloud {

struct SavingsReport {
  bool feasible = false;
  double deadline_seconds = 0.0;
  double optimized_cost_usd = 0.0;
  double optimized_time_seconds = 0.0;
  double over_provision_cost_usd = 0.0;   // all-fastest
  double over_provision_time_seconds = 0.0;
  double under_provision_cost_usd = 0.0;  // all-1-vCPU
  double under_provision_time_seconds = 0.0;
  double saving_vs_over = 0.0;   // fraction of over-provisioning cost saved
  double saving_vs_under = 0.0;  // fraction (negative if optimizer costs more)
};

/// Items within each stage must be ordered smallest (1 vCPU) to largest
/// (8 vCPUs) machine, as DeploymentOptimizer produces them.
SavingsReport analyze_savings(const std::vector<MckpStage>& stages,
                              double deadline_seconds);

}  // namespace edacloud::cloud
