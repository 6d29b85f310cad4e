#include "cloud/savings.hpp"

#include <algorithm>

namespace edacloud::cloud {

SavingsReport analyze_savings(const std::vector<MckpStage>& stages,
                              double deadline_seconds) {
  SavingsReport report;
  report.deadline_seconds = deadline_seconds;

  const MckpSelection optimized = solve_mckp(stages, deadline_seconds);
  report.feasible = optimized.feasible && !optimized.choice.empty();

  int max_items = 0;
  for (const MckpStage& stage : stages) {
    max_items = std::max(max_items, static_cast<int>(stage.items.size()));
  }
  const MckpSelection over = fixed_choice(stages, max_items - 1);
  const MckpSelection under = fixed_choice(stages, 0);
  report.over_provision_cost_usd = over.total_cost_usd;
  report.over_provision_time_seconds = over.total_time_seconds;
  report.under_provision_cost_usd = under.total_cost_usd;
  report.under_provision_time_seconds = under.total_time_seconds;

  if (report.feasible) {
    report.optimized_cost_usd = optimized.total_cost_usd;
    report.optimized_time_seconds = optimized.total_time_seconds;
    if (over.total_cost_usd > 0.0) {
      report.saving_vs_over =
          1.0 - optimized.total_cost_usd / over.total_cost_usd;
    }
    if (under.total_cost_usd > 0.0) {
      report.saving_vs_under =
          1.0 - optimized.total_cost_usd / under.total_cost_usd;
    }
  }
  return report;
}

}  // namespace edacloud::cloud
