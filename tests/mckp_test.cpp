#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "cloud/mckp.hpp"
#include "cloud/savings.hpp"
#include "util/rng.hpp"

namespace edacloud::cloud {
namespace {

std::vector<MckpStage> simple_instance() {
  // Two stages, two options each:
  //   stage A: slow-cheap (100 s, $1) / fast-pricey (40 s, $3)
  //   stage B: slow-cheap (200 s, $2) / fast-pricey (80 s, $5)
  std::vector<MckpStage> stages(2);
  stages[0].name = "A";
  stages[0].items = {{100, 1.0, "a1"}, {40, 3.0, "a2"}};
  stages[1].name = "B";
  stages[1].items = {{200, 2.0, "b1"}, {80, 5.0, "b2"}};
  return stages;
}

TEST(MckpTest, RelaxedDeadlinePicksCheapest) {
  const auto selection = solve_mckp(simple_instance(), 1000.0);
  ASSERT_TRUE(selection.feasible);
  EXPECT_EQ(selection.choice, (std::vector<int>{0, 0}));
  EXPECT_DOUBLE_EQ(selection.total_cost_usd, 3.0);
}

TEST(MckpTest, TightDeadlineForcesUpgrade) {
  // 240 allows (40, 200) or (100, 80) but not (100, 200).
  const auto selection = solve_mckp(simple_instance(), 240.0);
  ASSERT_TRUE(selection.feasible);
  EXPECT_DOUBLE_EQ(selection.total_cost_usd, 5.0);  // (40,$3)+(200,$2)
  EXPECT_EQ(selection.choice, (std::vector<int>{1, 0}));
}

TEST(MckpTest, InfeasibleDeadlineReturnsNa) {
  const auto selection = solve_mckp(simple_instance(), 100.0);
  EXPECT_FALSE(selection.feasible);
  EXPECT_TRUE(selection.choice.empty());
}

TEST(MckpTest, ExactlyFeasibleBoundary) {
  // Fastest total = 120 s.
  const auto selection = solve_mckp(simple_instance(), 120.0);
  ASSERT_TRUE(selection.feasible);
  EXPECT_DOUBLE_EQ(selection.total_time_seconds, 120.0);
}

TEST(MckpTest, EmptyStagesAreFeasible) {
  const auto selection = solve_mckp({}, 10.0);
  EXPECT_TRUE(selection.feasible);
  EXPECT_DOUBLE_EQ(selection.total_cost_usd, 0.0);
}

TEST(MckpTest, StageWithoutItemsThrows) {
  std::vector<MckpStage> stages(1);
  EXPECT_THROW(solve_mckp(stages, 10.0), std::invalid_argument);
}

TEST(MckpTest, NanItemThrows) {
  auto stages = simple_instance();
  stages[1].items[0].time_seconds = std::nan("");
  EXPECT_THROW(solve_mckp(stages, 1000.0), std::invalid_argument);
}

TEST(MckpTest, NegativeDeadlineInfeasible) {
  EXPECT_FALSE(solve_mckp(simple_instance(), -5.0).feasible);
}

TEST(MckpTest, RealRuntimesAreNotRounded) {
  // Whole-second budgeting gets both of these wrong: rounding 10.4 s down
  // admits a plan 0.3 s late, and rounding 10.6 s up rejects one that
  // meets its deadline exactly.
  std::vector<MckpStage> late(2);
  late[0].items = {{10.4, 1.0, "slow"}, {9.6, 2.0, "fast"}};
  late[1].items = late[0].items;
  const auto on_time = solve_mckp(late, 20.5);
  ASSERT_TRUE(on_time.feasible);
  EXPECT_EQ(on_time.choice, (std::vector<int>{0, 1}));
  EXPECT_EQ(on_time.total_cost_usd, 3.0);
  EXPECT_LE(on_time.total_time_seconds, 20.5);

  std::vector<MckpStage> overpaid(2);
  overpaid[0].items = {{10.6, 1.0, "slow"}, {9.0, 2.0, "fast"}};
  overpaid[1].items = overpaid[0].items;
  const auto cheapest = solve_mckp(overpaid, 21.2);
  ASSERT_TRUE(cheapest.feasible);
  EXPECT_EQ(cheapest.choice, (std::vector<int>{0, 0}));
  EXPECT_EQ(cheapest.total_cost_usd, 2.0);
}

TEST(MckpTest, FixedChoiceBaselines) {
  const auto stages = simple_instance();
  const auto under = fixed_choice(stages, 0);
  EXPECT_DOUBLE_EQ(under.total_time_seconds, 300.0);
  EXPECT_DOUBLE_EQ(under.total_cost_usd, 3.0);
  const auto over = fixed_choice(stages, 1);
  EXPECT_DOUBLE_EQ(over.total_time_seconds, 120.0);
  EXPECT_DOUBLE_EQ(over.total_cost_usd, 8.0);
}

TEST(MckpTest, FastestCompletion) {
  EXPECT_DOUBLE_EQ(fastest_completion_seconds(simple_instance()), 120.0);
}

TEST(MckpTest, CostMonotoneInDeadline) {
  const auto stages = simple_instance();
  double previous = 0.0;
  for (double deadline : {1000.0, 400.0, 280.0, 240.0, 180.0, 120.0}) {
    const auto selection = solve_mckp(stages, deadline);
    ASSERT_TRUE(selection.feasible) << deadline;
    EXPECT_GE(selection.total_cost_usd, previous);
    previous = selection.total_cost_usd;
  }
}

// Property sweep: the frontier (a stage-wise DP over Pareto sets) equals
// the real-runtime brute force, plan for plan. Four stages of 4 items
// (on-demand) or 8 (on-demand plus spot), 1-vCPU runtimes in 0.1-10 s or
// 10-500 s, deadlines from just below the fastest plan to past the
// slowest, every frontier breakpoint and the deadline just below it.
class MckpRandomTest : public ::testing::TestWithParam<int> {};

std::vector<MckpStage> random_ladders(util::Rng& rng, bool spot, double lo,
                                      double hi) {
  std::vector<MckpStage> stages(4);
  for (auto& stage : stages) {
    const double usd_per_vcpu_second = rng.next_double(1e-5, 5e-5);
    double time = rng.next_double(lo, hi);
    for (const int vcpus : {1, 2, 4, 8}) {
      stage.items.push_back({time, time * usd_per_vcpu_second * vcpus, ""});
      time *= rng.next_double(0.45, 1.0);
    }
    if (!spot) continue;
    for (int j = 0; j < 4; ++j) {
      const MckpItem on_demand = stage.items[static_cast<std::size_t>(j)];
      stage.items.push_back({on_demand.time_seconds * rng.next_double(1.0, 1.5),
                             on_demand.cost_usd * rng.next_double(0.25, 0.45),
                             ""});
    }
  }
  return stages;
}

TEST_P(MckpRandomTest, DpMatchesBruteForce) {
  util::Rng rng(GetParam());
  for (const bool spot : {false, true}) {
    for (const auto& [lo, hi] :
         {std::pair{0.1, 10.0}, std::pair{10.0, 500.0}}) {
      const auto stages = random_ladders(rng, spot, lo, hi);
      double slowest = 0.0;
      for (const auto& stage : stages) {
        double stage_max = 0.0;
        for (const auto& item : stage.items) {
          stage_max = std::max(stage_max, item.time_seconds);
        }
        slowest += stage_max;
      }
      const double fastest = fastest_completion_seconds(stages);
      std::vector<double> deadlines = {std::nextafter(fastest, 0.0), fastest,
                                       slowest, slowest * 1.1};
      for (int i = 0; i < 8; ++i) {
        deadlines.push_back(rng.next_double(fastest, slowest));
      }
      for (const auto& point : cost_deadline_frontier(stages)) {
        deadlines.push_back(point.deadline_seconds);
        deadlines.push_back(std::nextafter(point.deadline_seconds, 0.0));
      }
      for (const double deadline : deadlines) {
        SCOPED_TRACE(testing::Message() << "spot " << spot << " runtimes "
                                        << lo << "-" << hi << " deadline "
                                        << deadline);
        const auto got = solve_mckp(stages, deadline);
        const auto want = solve_mckp_brute_force(stages, deadline);
        ASSERT_EQ(got.feasible, want.feasible);
        EXPECT_EQ(got.total_cost_usd, want.total_cost_usd);
        EXPECT_EQ(got.total_time_seconds, want.total_time_seconds);
        EXPECT_EQ(got.choice, want.choice);
        if (!got.feasible) continue;
        double time = 0.0;
        for (std::size_t l = 0; l < stages.size(); ++l) {
          time += stages[l].items[static_cast<std::size_t>(got.choice[l])]
                      .time_seconds;
        }
        EXPECT_EQ(time, got.total_time_seconds);
        EXPECT_LE(time, deadline);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpRandomTest,
                         ::testing::Range(100, 120));

TEST(SavingsTest, OptimizerNeverWorseThanBaselines) {
  const auto stages = simple_instance();
  for (double deadline : {120.0, 240.0, 300.0, 1000.0}) {
    const SavingsReport report = analyze_savings(stages, deadline);
    ASSERT_TRUE(report.feasible);
    EXPECT_LE(report.optimized_cost_usd,
              report.over_provision_cost_usd + 1e-9);
    EXPECT_LE(report.optimized_time_seconds, deadline);
    if (report.under_provision_time_seconds <= deadline) {
      EXPECT_LE(report.optimized_cost_usd,
                report.under_provision_cost_usd + 1e-9);
    }
  }
}

TEST(SavingsTest, InfeasibleReportNotFeasible) {
  const SavingsReport report = analyze_savings(simple_instance(), 50.0);
  EXPECT_FALSE(report.feasible);
}

TEST(SavingsTest, SavingFractionsComputed) {
  const SavingsReport report = analyze_savings(simple_instance(), 1000.0);
  ASSERT_TRUE(report.feasible);
  EXPECT_NEAR(report.saving_vs_over, 1.0 - 3.0 / 8.0, 1e-9);
  EXPECT_NEAR(report.saving_vs_under, 0.0, 1e-9);
}

}  // namespace
}  // namespace edacloud::cloud
