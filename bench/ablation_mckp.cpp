// Ablation — the paper's Eq. (2) objective (maximize sum of 1/cost) vs the
// prose objective (minimize total cost), which are NOT the same problem
// (see DESIGN.md). Compares the two on the flagship deployment instance
// and on random synthetic MCKP instances, and cross-checks both DP solvers
// against brute force.

#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"
#include "cloud/heuristics.hpp"
#include "cloud/mckp.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace edacloud;

namespace {

std::vector<cloud::MckpStage> random_instance(util::Rng& rng, int stages,
                                              int items) {
  std::vector<cloud::MckpStage> out;
  for (int l = 0; l < stages; ++l) {
    cloud::MckpStage stage;
    stage.name = "stage" + std::to_string(l);
    double time = rng.next_double(200.0, 4000.0);
    double cost = rng.next_double(0.05, 0.6);
    for (int j = 0; j < items; ++j) {
      cloud::MckpItem item;
      item.time_seconds = time;
      item.cost_usd = cost;
      stage.items.push_back(item);
      // Bigger machines: faster and usually costlier — but superlinear
      // speedups occasionally make an upgrade cheaper overall, which is
      // exactly what creates dominated items (paper Table I shows the
      // effect: routing's 2-vCPU option is cheaper than 1 vCPU).
      time *= rng.next_double(0.45, 0.75);
      cost *= rng.next_double(0.85, 1.7);
    }
    out.push_back(std::move(stage));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  const int trials = fast ? 20 : 100;

  std::printf("=== Ablation: MCKP objective functions (%d instances) ===\n",
              trials);

  util::Rng rng(20210201);
  util::Table table({"Metric", "Value"});
  int agree = 0;
  int min_cost_cheaper = 0;
  double avg_regret = 0.0;
  int feasible = 0;

  for (int t = 0; t < trials; ++t) {
    const auto stages = random_instance(rng, 4, 4);
    const double fastest = cloud::fastest_completion_seconds(stages);
    const double slowest = cloud::fixed_choice(stages, 0).total_time_seconds;
    const double deadline = rng.next_double(fastest * 1.05, slowest);

    const auto min_cost = cloud::solve_mckp_dp(
        stages, deadline, cloud::Objective::kMinTotalCost);
    const auto inverse = cloud::solve_mckp_dp(
        stages, deadline, cloud::Objective::kMaxInverseCost);
    if (!min_cost.feasible || !inverse.feasible) continue;
    ++feasible;
    if (min_cost.choice == inverse.choice) ++agree;
    if (min_cost.total_cost_usd < inverse.total_cost_usd - 1e-9) {
      ++min_cost_cheaper;
    }
    if (min_cost.total_cost_usd > 0.0) {
      avg_regret += inverse.total_cost_usd / min_cost.total_cost_usd - 1.0;
    }
  }

  table.add_row({"feasible instances", std::to_string(feasible)});
  table.add_row({"identical selections", std::to_string(agree)});
  table.add_row(
      {"min-cost strictly cheaper", std::to_string(min_cost_cheaper)});
  table.add_row({"avg. cost regret of max-(1/p) objective",
                 util::format_percent(
                     feasible > 0 ? avg_regret / feasible : 0.0, 2)});
  std::printf("%s\n", table.render().c_str());

  // Greedy heuristic vs exact DP: feasibility parity + optimality gap.
  {
    int greedy_feasible_mismatch = 0;
    int greedy_optimal = 0;
    int compared = 0;
    double gap_sum = 0.0, gap_worst = 0.0;
    for (int t = 0; t < trials; ++t) {
      const auto stages = random_instance(rng, 4, 4);
      const double fastest = cloud::fastest_completion_seconds(stages);
      const double slowest =
          cloud::fixed_choice(stages, 0).total_time_seconds;
      const double deadline = rng.next_double(fastest * 1.02, slowest);
      const auto dp = cloud::solve_mckp_dp(stages, deadline);
      const auto greedy = cloud::solve_mckp_greedy(stages, deadline);
      if (dp.feasible != greedy.feasible) {
        ++greedy_feasible_mismatch;
        continue;
      }
      if (!dp.feasible || dp.total_cost_usd <= 0.0) continue;
      ++compared;
      const double gap = greedy.total_cost_usd / dp.total_cost_usd - 1.0;
      gap_sum += gap;
      gap_worst = std::max(gap_worst, gap);
      if (gap < 1e-9) ++greedy_optimal;
    }
    util::Table greedy_table({"Greedy-vs-DP metric", "Value"});
    greedy_table.add_row({"feasibility mismatches",
                          std::to_string(greedy_feasible_mismatch)});
    greedy_table.add_row(
        {"instances compared", std::to_string(compared)});
    greedy_table.add_row({"greedy found the optimum",
                          std::to_string(greedy_optimal)});
    greedy_table.add_row(
        {"avg cost gap",
         util::format_percent(compared > 0 ? gap_sum / compared : 0.0, 2)});
    greedy_table.add_row({"worst cost gap",
                          util::format_percent(gap_worst, 2)});
    std::printf("%s\n", greedy_table.render().c_str());
  }

  // Dominance preprocessing: items survive, optimum preserved.
  {
    std::size_t items_before = 0, items_after = 0;
    for (int t = 0; t < trials; ++t) {
      const auto stages = random_instance(rng, 4, 4);
      const auto filtered = cloud::dominance_filter(stages);
      for (const auto& stage : stages) items_before += stage.items.size();
      for (const auto& stage : filtered) items_after += stage.items.size();
    }
    std::printf("dominance filter kept %zu / %zu items (%.1f%%)\n\n",
                items_after, items_before,
                100.0 * static_cast<double>(items_after) /
                    static_cast<double>(items_before));
  }

  // DP vs brute force cross-check (both objectives).
  int mismatches = 0;
  for (int t = 0; t < trials; ++t) {
    const auto stages = random_instance(rng, 3, 3);
    const double deadline =
        rng.next_double(cloud::fastest_completion_seconds(stages),
                        cloud::fixed_choice(stages, 0).total_time_seconds);
    for (auto objective : {cloud::Objective::kMinTotalCost,
                           cloud::Objective::kMaxInverseCost}) {
      const auto dp = cloud::solve_mckp_dp(stages, deadline, objective);
      const auto bf =
          cloud::solve_mckp_brute_force(stages, deadline, objective);
      if (dp.feasible != bf.feasible ||
          (dp.feasible &&
           std::abs(dp.objective_value - bf.objective_value) > 1e-6)) {
        ++mismatches;
      }
    }
  }
  std::printf("DP vs brute-force mismatches: %d (expect 0)\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}
