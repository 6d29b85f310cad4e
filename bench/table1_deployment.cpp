// Table I — "Minimizing total cloud deployment cost subject to a time
// constraint". Characterizes the flagship design (sparc_core analog),
// prices each (job, vCPU) option on the job's recommended instance family
// with AWS-like per-second billing, and solves the MCKP under a sweep of
// deadlines. Shape targets: looser deadline -> cheaper/smaller machines;
// tightening promotes *some* stages to more vCPUs; a deadline below the
// all-fastest makespan is Not Achievable (NA).

#include <cmath>
#include <cstdio>

#include "bench/common.hpp"
#include "core/characterize.hpp"
#include "core/optimizer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

using namespace edacloud;

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  const auto library = nl::make_generic_14nm_library();

  workloads::NamedDesign flagship = workloads::flagship_design();
  if (fast) flagship.spec.size = 16;

  std::printf("=== Table I: cost-minimal deployment of %s (%s mode) ===\n",
              flagship.name.c_str(), fast ? "fast" : "full");
  const nl::Aig design = workloads::generate(flagship.spec);
  core::Characterizer characterizer(library);
  const auto report = characterizer.characterize(design);

  // Runtime ladders on each job's recommended family.
  core::RuntimeLadders ladders{};
  for (core::JobKind job : core::kAllJobs) {
    const auto* row =
        report.find(job, core::recommended_family(job));
    if (row != nullptr) {
      ladders[static_cast<int>(job)] = row->runtime_seconds;
    }
  }

  core::DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(ladders);

  // Header block: runtime and cost of every option (the table's top half).
  util::Table options_table(
      {"Task", "Family", "vCPUs", "Runtime (s)", "Cost ($)"});
  util::CsvWriter csv(
      {"row", "task", "family", "vcpus", "runtime_s", "cost_usd",
       "deadline_s", "selected"});
  for (core::JobKind job : core::kAllJobs) {
    const auto& stage = stages[static_cast<int>(job)];
    for (std::size_t i = 0; i < stage.items.size(); ++i) {
      options_table.add_row(
          {core::job_name(job),
           std::string(perf::to_string(core::recommended_family(job))),
           std::to_string(perf::kVcpuOptions[i]),
           util::format_fixed(stage.items[i].time_seconds, 0),
           util::format_fixed(stage.items[i].cost_usd, 2)});
      csv.add_row({"option", core::job_name(job),
                   std::string(perf::to_string(core::recommended_family(job))),
                   std::to_string(perf::kVcpuOptions[i]),
                   util::format_fixed(stage.items[i].time_seconds, 1),
                   util::format_fixed(stage.items[i].cost_usd, 4), "", ""});
    }
  }
  std::printf("%s\n", options_table.render().c_str());

  const double fastest = cloud::fastest_completion_seconds(stages);
  std::printf("fastest possible completion: %.0f s\n\n", fastest);

  // Deadline sweep: a loose, a medium, a just-feasible and an infeasible
  // constraint (the paper used 10000 / 6000 / 5645 / 5000 s).
  const std::vector<double> deadlines = {
      fastest * 2.2, fastest * 1.35, std::ceil(fastest) + 1.0,
      std::floor(fastest * 0.85)};

  util::Table result_table({"Deadline (s)", "synthesis", "placement",
                            "routing", "sta", "Total (s)", "Cost ($)"});
  for (double deadline : deadlines) {
    const auto plan = optimizer.optimize(ladders, deadline);
    std::vector<std::string> cells{util::format_fixed(deadline, 0)};
    if (!plan.feasible) {
      cells.insert(cells.end(), {"NA", "NA", "NA", "NA", "NA", "NA"});
    } else {
      for (const auto& entry : plan.entries) {
        cells.push_back(std::to_string(entry.vcpus) + " vCPU");
        csv.add_row({"selection", core::job_name(entry.job),
                     std::string(perf::to_string(entry.family)),
                     std::to_string(entry.vcpus),
                     util::format_fixed(entry.runtime_seconds, 1),
                     util::format_fixed(entry.cost_usd, 4),
                     util::format_fixed(deadline, 0), "1"});
      }
      cells.push_back(util::format_fixed(plan.total_runtime_seconds, 0));
      cells.push_back(util::format_fixed(plan.total_cost_usd, 2));
    }
    result_table.add_row(std::move(cells));
  }
  std::printf("%s\n", result_table.render().c_str());

  bench::write_csv(csv, "table1_deployment.csv");
  return 0;
}
