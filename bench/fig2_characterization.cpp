// Fig. 2 — "Performance characterization of four representative EDA jobs".
// Runs the flagship design (sparc_core analog) through the full flow on
// both instance-family ladders and reports, per job and vCPU count:
//   (a) branch-miss rate   (b) LLC cache-miss rate
//   (c) AVX/FP-op fraction (d) speedup vs 1 vCPU
// Shape targets (paper): routing has the highest branch-miss rate;
// placement the highest cache-miss rate, falling as vCPUs grow; placement
// the largest AVX share with STA second; routing the best speedup curve.

#include <cstdio>

#include "bench/common.hpp"
#include "core/characterize.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

using namespace edacloud;

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  bench::observability_setup(argc, argv, obs::ClockMode::kWall);
  const auto library = nl::make_generic_14nm_library();

  workloads::NamedDesign flagship = workloads::flagship_design();
  if (fast) flagship.spec.size = 16;

  std::printf("=== Fig. 2: characterization of %s (%s mode) ===\n",
              flagship.name.c_str(), fast ? "fast" : "full");
  const nl::Aig design = workloads::generate(flagship.spec);

  core::Characterizer characterizer(library);
  const auto report = characterizer.characterize(design);
  std::printf("design: %s, %zu instances\n\n", report.design_name.c_str(),
              report.instance_count);

  const auto family = perf::InstanceFamily::kGeneralPurpose;
  struct Panel {
    const char* title;
    std::array<double, 4> core::CharacterizationRow::*field;
    bool percent;
  };
  const Panel panels[] = {
      {"(a) Branch misses (%)", &core::CharacterizationRow::branch_miss_rate,
       true},
      {"(b) Cache (LLC) misses (%)",
       &core::CharacterizationRow::llc_miss_rate, true},
      {"(c) FP ops on AVX (%)", &core::CharacterizationRow::avx_fraction,
       true},
      {"(d) Speedup vs 1 vCPU", &core::CharacterizationRow::speedup, false},
  };

  util::CsvWriter csv({"panel", "job", "family", "vcpus", "value"});
  for (const Panel& panel : panels) {
    std::printf("%s\n", panel.title);
    util::Table table({"Job", "1 vCPU", "2 vCPUs", "4 vCPUs", "8 vCPUs"});
    for (core::JobKind job : core::kAllJobs) {
      const auto* row = report.find(job, family);
      if (row == nullptr) continue;
      std::vector<std::string> cells{core::job_name(job)};
      for (int i = 0; i < 4; ++i) {
        const double value = (row->*(panel.field))[i];
        cells.push_back(panel.percent ? util::format_percent(value, 2)
                                      : util::format_fixed(value, 2));
        csv.add_row({panel.title, core::job_name(job),
                     std::string(perf::to_string(family)),
                     std::to_string(perf::kVcpuOptions[i]),
                     util::format_fixed(value, 6)});
      }
      table.add_row(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());
  }

  // Memory-optimized slice as well (placement/routing recommendation basis).
  std::printf("Memory-optimized family, cache-miss view:\n");
  util::Table mo_table({"Job", "1 vCPU", "2 vCPUs", "4 vCPUs", "8 vCPUs"});
  for (core::JobKind job : core::kAllJobs) {
    const auto* row =
        report.find(job, perf::InstanceFamily::kMemoryOptimized);
    if (row == nullptr) continue;
    std::vector<std::string> cells{core::job_name(job)};
    for (int i = 0; i < 4; ++i) {
      cells.push_back(util::format_percent(row->llc_miss_rate[i], 2));
      csv.add_row({"(b-mo) LLC misses", core::job_name(job),
                   "memory-optimized",
                   std::to_string(perf::kVcpuOptions[i]),
                   util::format_fixed(row->llc_miss_rate[i], 6)});
    }
    mo_table.add_row(std::move(cells));
  }
  std::printf("%s\n", mo_table.render().c_str());

  std::printf("Main takeaways (paper Sec. III-A):\n");
  for (core::JobKind job : core::kAllJobs) {
    std::printf("  %-10s -> %s VM\n", core::job_name(job).c_str(),
                std::string(perf::to_string(core::recommended_family(job)))
                    .c_str());
  }

  bench::write_csv(csv, "fig2_characterization.csv");
  bench::observability_flush(argc, argv);
  return 0;
}
