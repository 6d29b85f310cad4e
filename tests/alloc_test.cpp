// Heap allocations of the per-job planning path and of the null-object
// perf::Instrument. This binary replaces the global operator new with a
// counting wrapper over malloc, which is why it is a test executable of
// its own: no other test runs under the counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cloud/heuristics.hpp"
#include "core/optimizer.hpp"
#include "perf/instrument.hpp"
#include "sched/job.hpp"
#include "sched/policy.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The replacements stay out of line, so no call site sees malloc() paired
// with operator delete or operator new paired with free().
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* block) noexcept {
  std::free(block);
}
__attribute__((noinline)) void operator delete(void* block,
                                               std::size_t) noexcept {
  std::free(block);
}

namespace edacloud {
namespace {

constexpr int kCalls = 1000;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocTest, CounterSeesTheValueFormsAllocate) {
  // The value forms build fresh vectors and 16 labels longer than the
  // short-string buffer, so the counter must move.
  const core::DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(
      sched::builtin_templates().front().recommended_ladders());
  std::uint64_t before = allocations();
  const auto again = optimizer.build_stages(
      sched::builtin_templates().front().recommended_ladders());
  EXPECT_GE(allocations() - before, 16u);
  before = allocations();
  const auto selection = cloud::solve_mckp_greedy(again, 1e9);
  EXPECT_GT(allocations() - before, 0u);
  EXPECT_TRUE(selection.feasible);
  EXPECT_EQ(stages.size(), again.size());
}

TEST(AllocTest, CostAwarePlanAllocatesNothingAfterWarmUp) {
  const auto& templates = sched::builtin_templates();
  sched::CostAwarePolicy policy;
  sched::Job job;
  job.arrival_time = 100.0;
  job.slo_deadline = 100.0 + 3600.0;
  (void)policy.plan(job, templates.front());  // warm-up

  const std::uint64_t before = allocations();
  int wide = 0;
  for (int i = 0; i < kCalls; ++i) {
    job.id = static_cast<std::uint64_t>(i);
    job.template_index = i % static_cast<int>(templates.size());
    job.scale = 0.5 + 0.001 * i;
    // Budgets from hopeless to loose, so the greedy takes every path.
    job.slo_deadline = job.arrival_time + 2.0 * (1 + i % 400);
    const auto pools =
        policy.plan(job, templates[static_cast<std::size_t>(job.template_index)]);
    wide += pools[0].vcpus;
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(wide, kCalls);  // not every plan is the all-1-vCPU one
}

TEST(AllocTest, BuildStagesIntoBufferAllocatesNothingAfterWarmUp) {
  core::DeploymentOptimizer on_demand;
  core::DeploymentOptimizer with_spot;
  with_spot.enable_spot(cloud::SpotModel{});
  const auto& templates = sched::builtin_templates();
  for (const core::DeploymentOptimizer* optimizer : {&on_demand, &with_spot}) {
    std::vector<cloud::MckpStage> stages;
    optimizer->build_stages(templates.front().recommended_ladders(),
                            stages);  // warm-up
    const std::uint64_t before = allocations();
    for (int i = 0; i < kCalls; ++i) {
      optimizer->build_stages(
          templates[static_cast<std::size_t>(i) % templates.size()]
              .recommended_ladders(),
          stages);
    }
    EXPECT_EQ(allocations() - before, 0u)
        << (optimizer->spot_enabled() ? "spot" : "on-demand");
  }
}

TEST(AllocTest, NullInstrumentAllocatesNothing) {
  // Every products-only stage run builds one, so it must stay free: no
  // branch table, no cache models, no phantom ring.
  const std::uint64_t before = allocations();
  {
    perf::Instrument null;
    perf::Instrument for_none = perf::Instrument::for_configs({});
    null.load(64);
    null.branch(1, true);
    for_none.store(64);
    EXPECT_FALSE(null.enabled());
    EXPECT_FALSE(for_none.enabled());
  }
  EXPECT_EQ(allocations() - before, 0u);
  // The counter does see an enabled instrument's tables.
  (void)perf::Instrument::for_configs({perf::make_vm(
      perf::InstanceFamily::kGeneralPurpose, 1)});
  EXPECT_GT(allocations() - before, 0u);
}

}  // namespace
}  // namespace edacloud
