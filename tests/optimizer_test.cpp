#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/heuristics.hpp"
#include "core/optimizer.hpp"
#include "util/rng.hpp"

namespace edacloud::core {
namespace {

RuntimeLadders sample_ladders() {
  RuntimeLadders ladders{};
  // Magnitudes echo Table I: synthesis / placement / routing / STA.
  ladders[static_cast<int>(JobKind::kSynthesis)] = {6100, 4342, 3449, 3352};
  ladders[static_cast<int>(JobKind::kPlacement)] = {1206, 905, 644, 519};
  ladders[static_cast<int>(JobKind::kRouting)] = {10461, 5514, 2894, 1692};
  ladders[static_cast<int>(JobKind::kSta)] = {183, 119, 90, 82};
  return ladders;
}

TEST(OptimizerTest, BuildsFourStagesWithFourItems) {
  DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(sample_ladders());
  ASSERT_EQ(stages.size(), 4u);
  for (const auto& stage : stages) {
    EXPECT_EQ(stage.items.size(), 4u);
    for (const auto& item : stage.items) {
      EXPECT_GT(item.cost_usd, 0.0);
    }
  }
  EXPECT_EQ(stages[0].name, "synthesis");
  EXPECT_EQ(stages[3].name, "sta");
}

TEST(OptimizerTest, FamiliesFollowRecommendations) {
  DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(sample_ladders());
  EXPECT_NE(stages[0].items[0].label.find("general-purpose"),
            std::string::npos);
  EXPECT_NE(stages[1].items[0].label.find("memory-optimized"),
            std::string::npos);
  EXPECT_NE(stages[2].items[0].label.find("memory-optimized"),
            std::string::npos);
}

TEST(OptimizerTest, LooseDeadlineStaysFeasibleAndCheap) {
  DeploymentOptimizer optimizer;
  const auto ladders = sample_ladders();
  const auto loose = optimizer.optimize(ladders, 1e6);
  ASSERT_TRUE(loose.feasible);
  const auto tight = optimizer.optimize(ladders, 6000.0);
  ASSERT_TRUE(tight.feasible);
  EXPECT_LE(loose.total_cost_usd, tight.total_cost_usd);
  EXPECT_LE(tight.total_runtime_seconds, 6000.0);
}

TEST(OptimizerTest, TighteningPromotesSomeStages) {
  DeploymentOptimizer optimizer;
  const auto ladders = sample_ladders();
  const auto loose = optimizer.optimize(ladders, 30000.0);
  const auto tight = optimizer.optimize(ladders, 8000.0);
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(tight.feasible);
  int promotions = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (tight.entries[i].vcpus > loose.entries[i].vcpus) ++promotions;
  }
  EXPECT_GT(promotions, 0);
}

TEST(OptimizerTest, BelowFastestIsNa) {
  DeploymentOptimizer optimizer;
  const auto ladders = sample_ladders();
  // Fastest total = 3352 + 519 + 1692 + 82 = 5645 (Table I's boundary!).
  const auto boundary = optimizer.optimize(ladders, 5645.0);
  EXPECT_TRUE(boundary.feasible);
  const auto below = optimizer.optimize(ladders, 5000.0);
  EXPECT_FALSE(below.feasible);
}

TEST(OptimizerTest, PlanEntriesSumToTotals) {
  DeploymentOptimizer optimizer;
  const auto plan = optimizer.optimize(sample_ladders(), 10000.0);
  ASSERT_TRUE(plan.feasible);
  double time = 0.0, cost = 0.0;
  for (const auto& entry : plan.entries) {
    time += entry.runtime_seconds;
    cost += entry.cost_usd;
  }
  EXPECT_NEAR(time, plan.total_runtime_seconds, 1e-9);
  EXPECT_NEAR(cost, plan.total_cost_usd, 1e-9);
}

TEST(OptimizerTest, SavingsAgainstBaselines) {
  DeploymentOptimizer optimizer;
  const auto report = optimizer.savings(sample_ladders(), 10000.0);
  ASSERT_TRUE(report.feasible);
  EXPECT_LE(report.optimized_cost_usd,
            report.over_provision_cost_usd + 1e-9);
  EXPECT_GT(report.saving_vs_over, 0.0);
}

RuntimeLadders random_ladders(util::Rng& rng) {
  RuntimeLadders ladders{};
  for (auto& ladder : ladders) {
    // Sublinear speedups from a 1-vCPU runtime of 0.5 s .. 3 h.
    double runtime = rng.next_double(0.5, 3 * 3600.0);
    for (double& rung : ladder) {
      rung = runtime;
      runtime *= rng.next_double(0.5, 1.0);
    }
  }
  return ladders;
}

void expect_same_selection(const cloud::MckpSelection& a,
                           const cloud::MckpSelection& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.choice, b.choice);
  EXPECT_EQ(a.total_time_seconds, b.total_time_seconds);
  EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);
}

TEST(OptimizerTest, ReusedStageBufferMatchesValueForm) {
  // One buffer serves every call: spot stages (8 items) shrink to
  // on-demand stages (4 items) and grow back, so stale items or labels
  // would show. The greedy's out-param form reuses its scratch and
  // selection the same way.
  util::Rng rng(2026);
  cloud::SpotModel spot;
  spot.price_multiplier = 0.3;
  spot.interruptions_per_hour = 0.5;
  DeploymentOptimizer on_demand;
  DeploymentOptimizer with_spot;
  with_spot.enable_spot(spot);
  std::vector<cloud::MckpStage> buffer;
  cloud::MckpGreedyScratch scratch;
  cloud::MckpSelection selection;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const bool use_spot = (trial / 3) % 2 == 0;
    const DeploymentOptimizer& optimizer = use_spot ? with_spot : on_demand;
    const RuntimeLadders ladders = random_ladders(rng);
    optimizer.build_stages(ladders, buffer);
    const auto expected = optimizer.build_stages(ladders);
    ASSERT_EQ(buffer.size(), expected.size());
    for (std::size_t l = 0; l < expected.size(); ++l) {
      const JobKind job = kAllJobs[l];
      EXPECT_EQ(buffer[l].name, expected[l].name);
      ASSERT_EQ(buffer[l].items.size(), use_spot ? 8u : 4u);
      ASSERT_EQ(buffer[l].items.size(), expected[l].items.size());
      for (std::size_t j = 0; j < expected[l].items.size(); ++j) {
        const cloud::MckpItem& got = buffer[l].items[j];
        const cloud::MckpItem& want = expected[l].items[j];
        EXPECT_EQ(got.time_seconds, want.time_seconds);
        EXPECT_EQ(got.cost_usd, want.cost_usd);
        EXPECT_EQ(got.label, want.label);
        const int vcpus = perf::kVcpuOptions[j % 4];
        EXPECT_EQ(got.label,
                  perf::make_vm(recommended_family(job), vcpus).name() +
                      (j >= 4 ? "-spot" : ""));
        if (j < 4) {
          EXPECT_EQ(got.time_seconds, ladders[l][j]);
        }
      }
    }

    const double fastest = cloud::fastest_completion_seconds(buffer);
    const double deadline = rng.next_double(0.5 * fastest, 3.0 * fastest);
    cloud::solve_mckp_greedy(buffer, deadline, scratch, selection);
    expect_same_selection(selection,
                          cloud::solve_mckp_greedy(buffer, deadline));
  }
}

}  // namespace
}  // namespace edacloud::core
