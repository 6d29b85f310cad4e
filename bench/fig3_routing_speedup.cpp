// Fig. 3 — "Routing speedup for different designs". Routes the
// characterization design set (dynamic_node analog smallest, sparc_core
// analog largest) and reports speedup at 1/2/4/8 vCPUs per design.
// Shape target: speedup ordered by design size; small designs flatten
// between 4 and 8 vCPUs ("speedup is capped at a certain point").

#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"
#include "core/characterize.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

using namespace edacloud;

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  const auto library = nl::make_generic_14nm_library();

  auto designs = workloads::characterization_designs();
  if (fast) {
    designs.resize(3);  // smallest three only
  }

  std::printf("=== Fig. 3: routing speedup across designs (%s mode) ===\n",
              fast ? "fast" : "full");

  core::Characterizer characterizer(library);
  const auto points = characterizer.routing_scaling(designs);

  util::Table table({"Design", "#Instances", "1 vCPU", "2 vCPUs", "4 vCPUs",
                     "8 vCPUs"});
  util::CsvWriter csv({"design", "instances", "vcpus", "speedup"});
  for (const auto& point : points) {
    table.add_row({point.design_name,
                   util::format_count(
                       static_cast<long long>(point.instance_count)),
                   util::format_fixed(point.speedup[0], 2),
                   util::format_fixed(point.speedup[1], 2),
                   util::format_fixed(point.speedup[2], 2),
                   util::format_fixed(point.speedup[3], 2)});
    for (int i = 0; i < 4; ++i) {
      csv.add_row({point.design_name, std::to_string(point.instance_count),
                   std::to_string(perf::kVcpuOptions[i]),
                   util::format_fixed(point.speedup[i], 4)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  // Shape checks.
  if (points.size() >= 2) {
    const auto& smallest = points.front();
    const auto& largest = points.back();
    std::printf("largest design 8-vCPU speedup: %.2f (smallest: %.2f)\n",
                largest.speedup[3], smallest.speedup[3]);
    std::printf("smallest design 4->8 vCPU gain: %.2fx (cap indicator)\n",
                smallest.speedup[3] / std::max(1e-9, smallest.speedup[2]));
  }

  bench::write_csv(csv, "fig3_routing_speedup.csv");
  return 0;
}
