#include <gtest/gtest.h>

#include "cloud/heuristics.hpp"
#include "util/rng.hpp"

namespace edacloud::cloud {
namespace {

std::vector<MckpStage> random_instance(util::Rng& rng, int stage_count,
                                       int item_count) {
  std::vector<MckpStage> stages(static_cast<std::size_t>(stage_count));
  for (auto& stage : stages) {
    double time = rng.next_double(200.0, 5000.0);
    double cost = rng.next_double(0.05, 0.5);
    for (int j = 0; j < item_count; ++j) {
      stage.items.push_back({time, cost, ""});
      time *= rng.next_double(0.45, 0.8);
      cost *= rng.next_double(1.05, 1.6);
    }
  }
  return stages;
}

// The frontier's first step drops the items another item of the same
// stage dominates; a one-stage frontier is exactly what survives.
TEST(DominanceFilterTest, DropsDominatedItems) {
  std::vector<MckpStage> stages(1);
  stages[0].items = {
      {100, 1.0, "good-slow"},
      {100, 2.0, "dominated (same time, pricier)"},
      {50, 3.0, "good-fast"},
      {60, 3.5, "dominated (slower and pricier than 50s/$3)"},
  };
  const MckpFrontier frontier(stages);
  ASSERT_EQ(frontier.points().size(), 2u);
  EXPECT_EQ(frontier.cheapest_within(1000.0).choice, std::vector<int>{0});
  EXPECT_EQ(frontier.cheapest_within(99.0).choice, std::vector<int>{2});
}

TEST(DominanceFilterTest, KeepsEfficientFrontierOrdered) {
  std::vector<MckpStage> stages(1);
  stages[0].items = {{100, 1.0, ""}, {50, 2.0, ""}, {25, 4.0, ""}};
  const auto points = MckpFrontier(stages).points();
  ASSERT_EQ(points.size(), 3u);
  // Fast-to-slow, dear-to-cheap.
  EXPECT_EQ(points.front().deadline_seconds, 25.0);
  EXPECT_EQ(points.back().deadline_seconds, 100.0);
  EXPECT_EQ(points.back().cost_usd, 1.0);
}

TEST(DominanceFilterTest, FilteredOptimumUnchanged) {
  // Appending a slower, dearer copy of every item changes no plan.
  util::Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    const auto stages = random_instance(rng, 4, 4);
    auto padded = stages;
    for (auto& stage : padded) {
      for (std::size_t j = 0; j < 4; ++j) {
        const MckpItem item = stage.items[j];
        stage.items.push_back({item.time_seconds * 1.1, item.cost_usd * 1.1,
                               "dominated"});
      }
    }
    const double deadline =
        rng.next_double(fastest_completion_seconds(stages) * 1.05,
                        fixed_choice(stages, 0).total_time_seconds);
    const auto full = solve_mckp(padded, deadline);
    const auto reduced = solve_mckp(stages, deadline);
    ASSERT_EQ(full.feasible, reduced.feasible);
    EXPECT_EQ(full.choice, reduced.choice);
    EXPECT_EQ(full.total_cost_usd, reduced.total_cost_usd);
  }
}

TEST(GreedyTest, RelaxedDeadlinePicksCheapest) {
  std::vector<MckpStage> stages(2);
  stages[0].items = {{100, 1.0, ""}, {40, 3.0, ""}};
  stages[1].items = {{200, 2.0, ""}, {80, 5.0, ""}};
  const auto selection = solve_mckp_greedy(stages, 1000.0);
  ASSERT_TRUE(selection.feasible);
  EXPECT_DOUBLE_EQ(selection.total_cost_usd, 3.0);
}

TEST(GreedyTest, InfeasibleMatchesDp) {
  std::vector<MckpStage> stages(2);
  stages[0].items = {{100, 1.0, ""}, {40, 3.0, ""}};
  stages[1].items = {{200, 2.0, ""}, {80, 5.0, ""}};
  EXPECT_FALSE(solve_mckp_greedy(stages, 100.0).feasible);
  EXPECT_TRUE(solve_mckp_greedy(stages, 120.0).feasible);
}

TEST(GreedyTest, MeetsDeadlineWheneverDpDoes) {
  util::Rng rng(72);
  for (int trial = 0; trial < 60; ++trial) {
    const auto stages = random_instance(rng, 4, 4);
    const double fastest = fastest_completion_seconds(stages);
    const double slowest = fixed_choice(stages, 0).total_time_seconds;
    const double deadline = rng.next_double(fastest * 0.9, slowest * 1.1);
    const auto dp = solve_mckp(stages, deadline);
    const auto greedy = solve_mckp_greedy(stages, deadline);
    ASSERT_EQ(dp.feasible, greedy.feasible) << "trial " << trial;
    if (dp.feasible) {
      EXPECT_LE(greedy.total_time_seconds, std::floor(deadline) + 1e-9);
      // Heuristic cost is never better than the optimum.
      EXPECT_GE(greedy.total_cost_usd, dp.total_cost_usd - 1e-9);
    }
  }
}

TEST(GreedyTest, GapIsModestOnTypicalInstances) {
  util::Rng rng(73);
  double gap_sum = 0.0;
  int feasible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto stages = random_instance(rng, 4, 4);
    const double fastest = fastest_completion_seconds(stages);
    const double slowest = fixed_choice(stages, 0).total_time_seconds;
    const double deadline = rng.next_double(fastest * 1.02, slowest);
    const auto dp = solve_mckp(stages, deadline);
    const auto greedy = solve_mckp_greedy(stages, deadline);
    if (!dp.feasible || !greedy.feasible || dp.total_cost_usd <= 0.0) {
      continue;
    }
    gap_sum += greedy.total_cost_usd / dp.total_cost_usd - 1.0;
    ++feasible;
  }
  ASSERT_GT(feasible, 20);
  EXPECT_LT(gap_sum / feasible, 0.25);  // avg gap under 25%
}

TEST(GreedyTest, EmptyInstanceFeasible) {
  EXPECT_TRUE(solve_mckp_greedy({}, 10.0).feasible);
}

}  // namespace
}  // namespace edacloud::cloud
