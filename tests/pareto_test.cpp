#include <gtest/gtest.h>

#include <cmath>

#include "cloud/mckp.hpp"
#include "util/rng.hpp"

namespace edacloud::cloud {
namespace {

std::vector<MckpStage> simple_instance() {
  std::vector<MckpStage> stages(2);
  stages[0].items = {{100, 1.0, "a1"}, {40, 3.0, "a2"}};
  stages[1].items = {{200, 2.0, "b1"}, {80, 5.0, "b2"}};
  return stages;
}

TEST(ParetoTest, FrontierEndpointsCorrect) {
  const auto frontier = cost_deadline_frontier(simple_instance());
  ASSERT_FALSE(frontier.empty());
  // First point: the fastest completion (120 s) at its cost (8.0).
  EXPECT_DOUBLE_EQ(frontier.front().deadline_seconds, 120.0);
  EXPECT_DOUBLE_EQ(frontier.front().cost_usd, 8.0);
  // Last point: the global cost minimum (3.0) at its earliest budget (300).
  EXPECT_DOUBLE_EQ(frontier.back().deadline_seconds, 300.0);
  EXPECT_DOUBLE_EQ(frontier.back().cost_usd, 3.0);
}

TEST(ParetoTest, StrictlyMonotone) {
  const auto frontier = cost_deadline_frontier(simple_instance());
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].deadline_seconds,
              frontier[i - 1].deadline_seconds);
    EXPECT_LT(frontier[i].cost_usd, frontier[i - 1].cost_usd);
  }
}

TEST(ParetoTest, PointsMatchDpSolutions) {
  const auto stages = simple_instance();
  for (const auto& point : cost_deadline_frontier(stages)) {
    const auto selection = solve_mckp(stages, point.deadline_seconds);
    ASSERT_TRUE(selection.feasible);
    EXPECT_EQ(selection.total_cost_usd, point.cost_usd);
    EXPECT_EQ(selection.total_time_seconds, point.deadline_seconds);
    // Any earlier deadline must be strictly dearer (or infeasible).
    const auto earlier =
        solve_mckp(stages, std::nextafter(point.deadline_seconds, 0.0));
    if (earlier.feasible) {
      EXPECT_GT(earlier.total_cost_usd, point.cost_usd);
    }
  }
}

TEST(ParetoTest, EmptyInstance) {
  EXPECT_TRUE(cost_deadline_frontier({}).empty());
}

TEST(ParetoTest, RandomInstancesConsistentWithDp) {
  util::Rng rng(91);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<MckpStage> stages(3);
    for (auto& stage : stages) {
      double time = rng.next_double(50.0, 800.0);
      double cost = rng.next_double(0.1, 1.0);
      for (int j = 0; j < 3; ++j) {
        stage.items.push_back({time, cost, ""});
        time *= rng.next_double(0.4, 0.8);
        cost *= rng.next_double(0.9, 1.8);
      }
    }
    const auto frontier = cost_deadline_frontier(stages);
    ASSERT_FALSE(frontier.empty());
    EXPECT_EQ(frontier.front().deadline_seconds,
              fastest_completion_seconds(stages));
    for (const auto& point : frontier) {
      const auto selection = solve_mckp(stages, point.deadline_seconds);
      ASSERT_TRUE(selection.feasible);
      EXPECT_EQ(selection.total_cost_usd, point.cost_usd);
    }
  }
}

}  // namespace
}  // namespace edacloud::cloud
