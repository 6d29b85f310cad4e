// Ablation — the paper's MCKP method against the exact frontier. The paper
// solves Problem 3 with the Dudzinski–Walukiewicz DP over integer seconds;
// that DP, with both of its objectives, lives here and nowhere else:
//  - the literal Eq. (2) objective (maximize sum of 1/cost) vs the prose
//    objective (minimize total cost), which are NOT the same problem (see
//    DESIGN.md);
//  - the fleet's greedy heuristic vs the exact frontier;
//  - the DP's whole-second rounding vs the exact frontier on real
//    runtimes: late plans, overpaid plans and plans wrongly called
//    infeasible;
//  - a check that exits nonzero unless the DP and the frontier agree on
//    every integer-second instance, where rounding is exact.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "bench/common.hpp"
#include "cloud/heuristics.hpp"
#include "cloud/mckp.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace edacloud;

namespace {

enum class Objective : std::uint8_t {
  kMinTotalCost,    // the prose semantics of Table I and Fig. 6
  kMaxInverseCost,  // the literal Eq. (2)
};

/// Item value under `objective` (the DP maximizes; min-cost maps to -cost).
double item_value(const cloud::MckpItem& item, Objective objective) {
  if (objective == Objective::kMinTotalCost) return -item.cost_usd;
  // Zero-cost items would be infinitely attractive; clamp so sums stay
  // well-defined.
  return item.cost_usd > 0.0 ? 1.0 / item.cost_usd : 1e18;
}

long long rounded_seconds(double seconds) {
  return std::max<long long>(0, std::llround(seconds));
}

/// The paper's DP: runtimes rounded to whole seconds (per-second billing),
/// the deadline truncated to an integer budget, z_l(C) := -inf marking "no
/// assignment fits in C". Time and memory grow with the deadline.
cloud::MckpSelection paper_dp(const std::vector<cloud::MckpStage>& stages,
                              double deadline_seconds, Objective objective) {
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  const auto budget = static_cast<long long>(std::floor(deadline_seconds));
  if (budget < 0) return {};
  const auto columns = static_cast<std::size_t>(budget) + 1;
  std::vector<double> dp(columns, 0.0);  // zero stages fit any budget
  std::vector<double> next(columns);
  std::vector<std::vector<int>> picked(stages.size(),
                                       std::vector<int>(columns, -1));
  for (std::size_t l = 0; l < stages.size(); ++l) {
    std::fill(next.begin(), next.end(), kNone);
    for (std::size_t c = 0; c < columns; ++c) {
      for (std::size_t j = 0; j < stages[l].items.size(); ++j) {
        const cloud::MckpItem& item = stages[l].items[j];
        const auto t = static_cast<std::size_t>(
            rounded_seconds(item.time_seconds));
        if (c < t || dp[c - t] == kNone) continue;
        const double candidate = dp[c - t] + item_value(item, objective);
        if (candidate > next[c]) {
          next[c] = candidate;
          picked[l][c] = static_cast<int>(j);
        }
      }
    }
    dp.swap(next);
  }
  const auto best = std::max_element(dp.begin(), dp.end());
  if (*best == kNone) return {};
  cloud::MckpSelection selection;
  selection.feasible = true;
  selection.choice.resize(stages.size());
  auto c = static_cast<std::size_t>(best - dp.begin());
  for (std::size_t l = stages.size(); l-- > 0;) {
    const int j = picked[l][c];
    selection.choice[l] = j;
    c -= static_cast<std::size_t>(rounded_seconds(
        stages[l].items[static_cast<std::size_t>(j)].time_seconds));
  }
  for (std::size_t l = 0; l < stages.size(); ++l) {
    const cloud::MckpItem& item =
        stages[l].items[static_cast<std::size_t>(selection.choice[l])];
    selection.total_time_seconds += item.time_seconds;
    selection.total_cost_usd += item.cost_usd;
  }
  return selection;
}

std::vector<cloud::MckpStage> random_instance(util::Rng& rng, int stages,
                                              int items, double time_lo,
                                              double time_hi) {
  std::vector<cloud::MckpStage> out;
  for (int l = 0; l < stages; ++l) {
    cloud::MckpStage stage;
    stage.name = "stage" + std::to_string(l);
    double time = rng.next_double(time_lo, time_hi);
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

double deadline_between(util::Rng& rng,
                        const std::vector<cloud::MckpStage>& stages,
                        double low_factor) {
  return rng.next_double(
      cloud::fastest_completion_seconds(stages) * low_factor,
      cloud::fixed_choice(stages, 0).total_time_seconds);
}

std::string percent(double sum, int count) {
  return util::format_percent(count > 0 ? sum / count : 0.0, 2);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  const int trials = fast ? 20 : 100;

  std::printf("=== Ablation: the paper's MCKP DP vs the exact frontier "
              "(%d instances per table) ===\n",
              trials);
  util::Rng rng(20210201);
  // Every table row also lands in the CSV, under its table's title.
  util::CsvWriter csv({"table", "metric", "value"});
  const auto add = [&csv](util::Table& table, const std::string& title,
                          const std::string& metric,
                          const std::string& value) {
    table.add_row({metric, value});
    csv.add_row({title, metric, value});
  };

  // Objective ablation, both sides solved by the paper's DP.
  {
    int agree = 0, min_cost_cheaper = 0, feasible = 0;
    double regret_sum = 0.0;
    for (int t = 0; t < trials; ++t) {
      const auto stages = random_instance(rng, 4, 4, 200.0, 4000.0);
      const double deadline = deadline_between(rng, stages, 1.05);
      const auto min_cost =
          paper_dp(stages, deadline, Objective::kMinTotalCost);
      const auto inverse =
          paper_dp(stages, deadline, Objective::kMaxInverseCost);
      if (!min_cost.feasible || !inverse.feasible) continue;
      ++feasible;
      if (min_cost.choice == inverse.choice) ++agree;
      if (min_cost.total_cost_usd < inverse.total_cost_usd) {
        ++min_cost_cheaper;
      }
      if (min_cost.total_cost_usd > 0.0) {
        regret_sum += inverse.total_cost_usd / min_cost.total_cost_usd - 1.0;
      }
    }
    const std::string title = "Objective metric (paper DP)";
    util::Table table({title, "Value"});
    add(table, title, "feasible instances", std::to_string(feasible));
    add(table, title, "identical selections", std::to_string(agree));
    add(table, title, "min-cost strictly cheaper",
        std::to_string(min_cost_cheaper));
    add(table, title, "avg. cost regret of max-(1/p) objective",
        percent(regret_sum, feasible));
    std::printf("%s\n", table.render().c_str());
  }

  // The fleet's greedy heuristic vs the exact frontier.
  {
    int feasibility_mismatch = 0, late = 0, optimal = 0, compared = 0;
    double gap_sum = 0.0, gap_worst = 0.0;
    for (int t = 0; t < trials; ++t) {
      const auto stages = random_instance(rng, 4, 4, 200.0, 4000.0);
      const double deadline = deadline_between(rng, stages, 1.02);
      const auto exact = cloud::solve_mckp(stages, deadline);
      const auto greedy = cloud::solve_mckp_greedy(stages, deadline);
      if (exact.feasible != greedy.feasible) {
        ++feasibility_mismatch;
        continue;
      }
      if (!exact.feasible || exact.total_cost_usd <= 0.0) continue;
      if (greedy.total_time_seconds > deadline) ++late;
      ++compared;
      const double gap = greedy.total_cost_usd / exact.total_cost_usd - 1.0;
      gap_sum += gap;
      gap_worst = std::max(gap_worst, gap);
      if (greedy.total_cost_usd == exact.total_cost_usd) ++optimal;
    }
    const std::string title = "Greedy-vs-frontier metric";
    util::Table table({title, "Value"});
    add(table, title, "feasibility mismatches",
        std::to_string(feasibility_mismatch));
    add(table, title, "instances compared", std::to_string(compared));
    add(table, title, "greedy plans past the deadline", std::to_string(late));
    add(table, title, "greedy found the optimum", std::to_string(optimal));
    add(table, title, "avg cost gap", percent(gap_sum, compared));
    add(table, title, "worst cost gap", util::format_percent(gap_worst, 2));
    std::printf("%s\n", table.render().c_str());
  }

  // Whole-second rounding vs the exact frontier, on stage runtimes of the
  // size this repository's flows take (0.1-10 s per stage).
  {
    int late = 0, overpaid = 0, false_infeasible = 0, compared = 0;
    double overpay_worst = 0.0;
    for (int t = 0; t < trials; ++t) {
      const auto stages = random_instance(rng, 4, 4, 1.0, 10.0);
      const double deadline = deadline_between(rng, stages, 0.95);
      const auto dp = paper_dp(stages, deadline, Objective::kMinTotalCost);
      const auto exact = cloud::solve_mckp(stages, deadline);
      if (exact.feasible && !dp.feasible) ++false_infeasible;
      if (!dp.feasible) continue;
      ++compared;
      if (dp.total_time_seconds > deadline) {
        ++late;
      } else if (dp.total_cost_usd > exact.total_cost_usd) {
        ++overpaid;
        overpay_worst = std::max(
            overpay_worst, dp.total_cost_usd / exact.total_cost_usd - 1.0);
      }
    }
    const std::string title = "Paper DP on real runtimes";
    util::Table table({title, "Value"});
    add(table, title, "plans compared", std::to_string(compared));
    add(table, title, "plans past the deadline", std::to_string(late));
    add(table, title, "on-time plans dearer than the optimum",
        std::to_string(overpaid));
    add(table, title, "worst overpayment",
        util::format_percent(overpay_worst, 2));
    add(table, title, "feasible instances called infeasible",
        std::to_string(false_infeasible));
    std::printf("%s\n", table.render().c_str());
  }

  // The frontier's size: every deadline's answer from one merge.
  {
    std::size_t points = 0;
    for (int t = 0; t < trials; ++t) {
      points += cloud::MckpFrontier(random_instance(rng, 4, 8, 200.0, 4000.0))
                    .points()
                    .size();
    }
    std::printf("frontier points per 4 x 8 instance: %.1f\n\n",
                static_cast<double>(points) / trials);
  }

  // Check: on integer-second instances the DP's rounding is exact, so the
  // paper's method and the frontier must agree on feasibility and cost
  // (choices may differ between equal-cost plans), and the frontier must
  // match the brute force plan for plan.
  int mismatches = 0;
  for (int t = 0; t < trials; ++t) {
    auto stages = random_instance(rng, 4, 4, 20.0, 400.0);
    for (auto& stage : stages) {
      for (auto& item : stage.items) {
        item.time_seconds = std::max(1.0, std::round(item.time_seconds));
      }
    }
    const double deadline =
        std::round(deadline_between(rng, stages, 0.98));
    const auto dp = paper_dp(stages, deadline, Objective::kMinTotalCost);
    const auto exact = cloud::solve_mckp(stages, deadline);
    const auto brute = cloud::solve_mckp_brute_force(stages, deadline);
    if (dp.feasible != exact.feasible || exact.feasible != brute.feasible ||
        dp.total_cost_usd != exact.total_cost_usd ||
        exact.choice != brute.choice ||
        exact.total_cost_usd != brute.total_cost_usd) {
      ++mismatches;
    }
  }
  std::printf(
      "integer-second instances where the paper DP, the frontier and the "
      "brute force disagree: %d (expect 0)\n",
      mismatches);
  csv.add_row({"check", "integer-second disagreements",
               std::to_string(mismatches)});
  bench::write_csv(csv, "ablation_mckp.csv");
  return mismatches == 0 ? 0 : 1;
}
