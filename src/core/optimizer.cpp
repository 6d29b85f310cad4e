#include "core/optimizer.hpp"

namespace edacloud::core {

std::vector<cloud::MckpStage> DeploymentOptimizer::build_stages(
    const RuntimeLadders& ladders) const {
  std::vector<cloud::MckpStage> stages;
  build_stages(ladders, stages);
  return stages;
}

void DeploymentOptimizer::build_stages(
    const RuntimeLadders& ladders,
    std::vector<cloud::MckpStage>& stages) const {
  constexpr std::size_t kSizes = perf::kVcpuOptions.size();
  stages.resize(kAllJobs.size());
  for (std::size_t l = 0; l < kAllJobs.size(); ++l) {
    const JobKind job = kAllJobs[l];
    cloud::MckpStage& stage = stages[l];
    stage.name = job_name(job);
    const perf::InstanceFamily family = recommended_family(job);
    stage.items.resize(market_ != nullptr ? 2 * kSizes : kSizes);
    for (std::size_t i = 0; i < kSizes; ++i) {
      const int vcpus = perf::kVcpuOptions[i];
      const double runtime = ladders[static_cast<int>(job)][i];
      cloud::MckpItem& item = stage.items[i];
      item.time_seconds = runtime;
      item.cost_usd = catalog_.job_cost_usd(family, vcpus, runtime);
      item.label = perf::ladder_label(family, i);
      if (market_ == nullptr) continue;
      // Each shape prices against the market's planning view for that
      // shape (a static market returns its wrapped SpotModel, so the
      // classic flat-spot numbers survive unchanged).
      const cloud::SpotModel view = market_->planning_view(family, vcpus);
      cloud::MckpItem& spot_item = stage.items[kSizes + i];
      spot_item.time_seconds = view.expected_runtime_seconds(runtime);
      spot_item.cost_usd =
          catalog_.spot_job_cost_usd(family, vcpus, runtime, view);
      spot_item.label = perf::ladder_label(family, i, /*spot=*/true);
    }
  }
}

DeploymentPlan DeploymentOptimizer::optimize(const RuntimeLadders& ladders,
                                             double deadline_seconds) const {
  const auto stages = build_stages(ladders);
  return to_plan(stages, cloud::solve_mckp(stages, deadline_seconds),
                 deadline_seconds);
}

DeploymentPlan DeploymentOptimizer::to_plan(
    const std::vector<cloud::MckpStage>& stages,
    const cloud::MckpSelection& selection, double deadline_seconds) {
  DeploymentPlan plan;
  plan.deadline_seconds = deadline_seconds;
  plan.feasible = selection.feasible && !selection.choice.empty();
  if (!plan.feasible) return plan;

  for (std::size_t l = 0; l < stages.size(); ++l) {
    const int j = selection.choice[l];
    const cloud::MckpItem& item =
        stages[l].items[static_cast<std::size_t>(j)];
    DeploymentPlanEntry entry;
    entry.job = kAllJobs[l];
    entry.family = recommended_family(entry.job);
    entry.vcpus =
        perf::kVcpuOptions[static_cast<std::size_t>(j) % 4];
    entry.spot = static_cast<std::size_t>(j) >= 4;
    entry.runtime_seconds = item.time_seconds;
    entry.cost_usd = item.cost_usd;
    plan.entries.push_back(entry);
  }
  plan.total_runtime_seconds = selection.total_time_seconds;
  plan.total_cost_usd = selection.total_cost_usd;
  return plan;
}

cloud::SavingsReport DeploymentOptimizer::savings(
    const RuntimeLadders& ladders, double deadline_seconds) const {
  return cloud::analyze_savings(build_stages(ladders), deadline_seconds);
}

}  // namespace edacloud::core
