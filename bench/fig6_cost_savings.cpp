// Fig. 6 — "Cost savings from running our multi-choice knapsack
// optimization algorithm", vs over-provisioning (8 vCPUs everywhere) and
// under-provisioning (1 vCPU everywhere). Sweeps deadlines over several
// designs. Shape targets: optimizer cost <= both baselines at every
// feasible deadline; average saving in the tens of percent (paper 35.29%).
// Exits 1, naming the rows, when the optimized plan costs more than a
// baseline whose real total meets the row's deadline.

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

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

  auto designs = workloads::characterization_designs();
  if (fast) designs.resize(2);

  std::printf("=== Fig. 6: MCKP cost savings (%s mode) ===\n",
              fast ? "fast" : "full");

  core::Characterizer characterizer(library);
  core::DeploymentOptimizer optimizer;

  util::Table table({"Design", "Deadline (s)", "Optimized ($)", "Over ($)",
                     "Under ($)", "Save vs over", "Save vs under"});
  util::CsvWriter csv({"design", "deadline_s", "optimized_usd", "over_usd",
                       "under_usd", "save_vs_over", "save_vs_under"});

  double saving_sum = 0.0;
  int saving_count = 0;
  std::vector<std::string> failures;

  for (const auto& named : designs) {
    const nl::Aig design = workloads::generate(named.spec);
    const auto report = characterizer.characterize(design);
    core::RuntimeLadders ladders{};
    for (core::JobKind job : core::kAllJobs) {
      const auto* row = report.find(job, core::recommended_family(job));
      if (row != nullptr) ladders[static_cast<int>(job)] = row->runtime_seconds;
    }
    const auto stages = optimizer.build_stages(ladders);
    const double fastest = cloud::fastest_completion_seconds(stages);
    const double slowest = cloud::fixed_choice(stages, 0).total_time_seconds;

    // Deadline sweep between just-feasible and fully-relaxed.
    for (double alpha : {1.02, 1.15, 1.4, 1.8, 2.5}) {
      const double deadline =
          fastest + (slowest - fastest) * (alpha - 1.0) / 1.5;
      const auto savings = optimizer.savings(ladders, deadline);
      if (!savings.feasible) continue;
      // Compare against the better (cheaper) baseline that also meets the
      // deadline; over-provisioning always does (it is the fastest).
      const bool under_feasible =
          savings.under_provision_time_seconds <= deadline;
      const double baseline_cost =
          under_feasible ? std::min(savings.over_provision_cost_usd,
                                    savings.under_provision_cost_usd)
                         : savings.over_provision_cost_usd;
      const double saving =
          baseline_cost > 0.0
              ? 1.0 - savings.optimized_cost_usd / baseline_cost
              : 0.0;
      saving_sum += saving;
      ++saving_count;
      // A baseline binds only when its own real total meets the deadline.
      for (const auto& [name, cost, time] :
           {std::tuple{"over", savings.over_provision_cost_usd,
                       savings.over_provision_time_seconds},
            std::tuple{"under", savings.under_provision_cost_usd,
                       savings.under_provision_time_seconds}}) {
        if (time <= deadline && savings.optimized_cost_usd > cost) {
          failures.push_back(named.name + " @ " +
                             util::format_fixed(deadline, 0) + " s: $" +
                             util::format_fixed(savings.optimized_cost_usd, 5) +
                             " > " + name + "-provisioning $" +
                             util::format_fixed(cost, 5));
        }
      }

      table.add_row({named.name, util::format_fixed(deadline, 0),
                     util::format_fixed(savings.optimized_cost_usd, 3),
                     util::format_fixed(savings.over_provision_cost_usd, 3),
                     under_feasible
                         ? util::format_fixed(
                               savings.under_provision_cost_usd, 3)
                         : "(late)",
                     util::format_percent(savings.saving_vs_over, 1),
                     under_feasible
                         ? util::format_percent(savings.saving_vs_under, 1)
                         : "-"});
      csv.add_row({named.name, util::format_fixed(deadline, 1),
                   util::format_fixed(savings.optimized_cost_usd, 5),
                   util::format_fixed(savings.over_provision_cost_usd, 5),
                   util::format_fixed(savings.under_provision_cost_usd, 5),
                   util::format_fixed(savings.saving_vs_over, 5),
                   util::format_fixed(savings.saving_vs_under, 5)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  if (saving_count > 0) {
    std::printf(
        "average saving vs best feasible naive baseline: %s "
        "(paper: 35.29%%)\n",
        util::format_percent(saving_sum / saving_count, 2).c_str());
  }

  bench::write_csv(csv, "fig6_cost_savings.csv");
  for (const std::string& failure : failures) {
    std::printf("FAIL: optimizer dearer than a feasible baseline: %s\n",
                failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}
