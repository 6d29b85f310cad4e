#include "core/batch.hpp"

namespace edacloud::core {

std::vector<cloud::MckpStage> BatchPlanner::build_stages(
    const std::vector<BatchDesign>& designs) const {
  std::vector<cloud::MckpStage> stages;
  stages.reserve(designs.size() * kJobCount);
  for (const BatchDesign& design : designs) {
    auto design_stages = optimizer_.build_stages(design.ladders);
    for (std::size_t j = 0; j < design_stages.size(); ++j) {
      design_stages[j].name = design.name + ":" + design_stages[j].name;
      stages.push_back(std::move(design_stages[j]));
    }
  }
  return stages;
}

BatchPlan BatchPlanner::plan(const std::vector<BatchDesign>& designs,
                             double deadline_seconds) const {
  const auto stages = build_stages(designs);
  const cloud::MckpSelection selection =
      cloud::solve_mckp(stages, deadline_seconds);

  BatchPlan plan;
  plan.deadline_seconds = deadline_seconds;
  plan.feasible = selection.feasible && !selection.choice.empty();
  if (!plan.feasible) return plan;

  for (std::size_t l = 0; l < stages.size(); ++l) {
    const int j = selection.choice[l];
    const cloud::MckpItem& item =
        stages[l].items[static_cast<std::size_t>(j)];
    BatchPlanEntry entry;
    entry.design = designs[l / kJobCount].name;
    entry.job = kAllJobs[l % kJobCount];
    entry.family = recommended_family(entry.job);
    entry.vcpus = perf::kVcpuOptions[static_cast<std::size_t>(j)];
    entry.runtime_seconds = item.time_seconds;
    entry.cost_usd = item.cost_usd;
    plan.entries.push_back(std::move(entry));
  }
  plan.total_runtime_seconds = selection.total_time_seconds;
  plan.total_cost_usd = selection.total_cost_usd;
  return plan;
}

cloud::SavingsReport BatchPlanner::savings(
    const std::vector<BatchDesign>& designs, double deadline_seconds) const {
  return cloud::analyze_savings(build_stages(designs), deadline_seconds);
}

}  // namespace edacloud::core
