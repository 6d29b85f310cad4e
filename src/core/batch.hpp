#pragma once
// Multi-design batch planning — the situation a real team faces before a
// tapeout: several blocks must each run the full flow, sharing one
// deadline, and every (block, stage) pair can go on its own VM. The MCKP
// formulation extends directly (one stage per block-and-job pair), and the
// same frontier stays exact because block flows run back-to-back per plan.

#include <string>
#include <vector>

#include "core/optimizer.hpp"

namespace edacloud::core {

struct BatchDesign {
  std::string name;
  RuntimeLadders ladders{};  // per-job runtimes on the recommended family
};

struct BatchPlanEntry {
  std::string design;
  JobKind job = JobKind::kSynthesis;
  perf::InstanceFamily family = perf::InstanceFamily::kGeneralPurpose;
  int vcpus = 1;
  double runtime_seconds = 0.0;
  double cost_usd = 0.0;
};

struct BatchPlan {
  bool feasible = false;
  double deadline_seconds = 0.0;
  std::vector<BatchPlanEntry> entries;  // 4 per design, flow order
  double total_runtime_seconds = 0.0;
  double total_cost_usd = 0.0;
};

class BatchPlanner {
 public:
  explicit BatchPlanner(
      cloud::PricingCatalog catalog = cloud::PricingCatalog::aws_like())
      : optimizer_(catalog) {}

  /// Stage list across all designs (4 stages each, in design order).
  [[nodiscard]] std::vector<cloud::MckpStage> build_stages(
      const std::vector<BatchDesign>& designs) const;

  /// Cheapest joint plan finishing the whole batch within the deadline.
  [[nodiscard]] BatchPlan plan(const std::vector<BatchDesign>& designs,
                               double deadline_seconds) const;

  /// Savings vs naive provisioning for the whole batch.
  [[nodiscard]] cloud::SavingsReport savings(
      const std::vector<BatchDesign>& designs,
      double deadline_seconds) const;

 private:
  DeploymentOptimizer optimizer_;
};

}  // namespace edacloud::core
