// Quickstart: the complete EDAonCloud workflow (paper Fig. 1) in ~60 lines.
//   1. take a design (here: a generated ALU),
//   2. run the instrumented EDA flow to characterize its four jobs,
//   3. price every (job, vCPU) option on the recommended instance family,
//   4. pick the cheapest deployment meeting a deadline with the exact MCKP.
//
// Build: cmake --build build --target quickstart
// Run:   ./build/examples/quickstart

#include <cstdio>

#include "core/characterize.hpp"
#include "core/optimizer.hpp"
#include "util/strings.hpp"
#include "workloads/generators.hpp"

using namespace edacloud;

int main() {
  // 1. A design. Swap in any workloads::generate(...) call or build your
  //    own nl::Aig with add_input()/and_of()/add_output().
  const nl::Aig design = workloads::gen_alu(16);
  std::printf("design: %s (%zu AIG nodes)\n", design.name().c_str(),
              design.node_count());

  // 2. Characterize the full flow (synthesis -> place -> route -> STA)
  //    against both instance-family ladders in one instrumented run.
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  core::Characterizer characterizer(library);
  const auto report = characterizer.characterize(design);
  std::printf("mapped: %zu cells\n\n", report.instance_count);

  std::printf("%-10s %-17s %9s %9s %9s %9s\n", "job", "family", "1 vCPU",
              "2 vCPUs", "4 vCPUs", "8 vCPUs");
  core::RuntimeLadders ladders{};
  for (core::JobKind job : core::kAllJobs) {
    const auto family = core::recommended_family(job);
    const auto* row = report.find(job, family);
    if (row == nullptr) continue;
    ladders[static_cast<int>(job)] = row->runtime_seconds;
    std::printf("%-10s %-17s %8.0fs %8.0fs %8.0fs %8.0fs\n",
                core::job_name(job).c_str(),
                std::string(perf::to_string(family)).c_str(),
                row->runtime_seconds[0], row->runtime_seconds[1],
                row->runtime_seconds[2], row->runtime_seconds[3]);
  }

  // 3 + 4. Price and optimize under a deadline.
  core::DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(ladders);
  const double fastest = cloud::fastest_completion_seconds(stages);
  const double deadline = fastest * 1.5;
  const auto plan = optimizer.optimize(ladders, deadline);

  std::printf("\ndeadline: %.0f s (fastest possible: %.0f s)\n", deadline,
              fastest);
  if (!plan.feasible) {
    std::printf("deadline not achievable (NA)\n");
    return 1;
  }
  for (const auto& entry : plan.entries) {
    std::printf("  %-10s -> %d vCPU %-17s  %7.0fs  $%.4f\n",
                core::job_name(entry.job).c_str(), entry.vcpus,
                std::string(perf::to_string(entry.family)).c_str(),
                entry.runtime_seconds, entry.cost_usd);
  }
  std::printf("total: %.0f s, $%.4f\n", plan.total_runtime_seconds,
              plan.total_cost_usd);

  const auto savings = optimizer.savings(ladders, deadline);
  std::printf("vs over-provisioning (all 8 vCPUs): %s cheaper\n",
              util::format_percent(savings.saving_vs_over, 1).c_str());
  return 0;
}
