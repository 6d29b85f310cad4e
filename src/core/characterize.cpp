#include "core/characterize.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace edacloud::core {

namespace {

std::vector<perf::VmConfig> both_family_ladder() {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    for (const auto& vm : perf::vm_ladder(family)) configs.push_back(vm);
  }
  return configs;
}

}  // namespace

const CharacterizationRow* CharacterizationReport::find(
    JobKind job, perf::InstanceFamily family) const {
  for (const CharacterizationRow& row : rows) {
    if (row.job == job && row.family == family) return &row;
  }
  return nullptr;
}

perf::InstanceFamily recommended_family(JobKind job) {
  switch (job) {
    case JobKind::kSynthesis:
    case JobKind::kSta:
      return perf::InstanceFamily::kGeneralPurpose;
    case JobKind::kPlacement:
    case JobKind::kRouting:
      return perf::InstanceFamily::kMemoryOptimized;
  }
  return perf::InstanceFamily::kGeneralPurpose;
}

CharacterizationReport Characterizer::characterize(
    const nl::Aig& design) const {
  TRACE_SPAN_VAR(span, "characterize/design", "characterize");
  const auto configs = both_family_ladder();
  EdaFlow flow(*library_, options_);
  const FlowResult result = flow.run(design, configs);

  CharacterizationReport report;
  report.design_name = result.design_name;
  report.instance_count =
      result.synthesis.mapped.netlist.stats().instance_count;
  span.counter("instances", static_cast<double>(report.instance_count));
  span.counter("configs", static_cast<double>(configs.size()));

  for (JobKind job : kAllJobs) {
    const perf::JobMeasurement& measurement = result.measurement(job);
    for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                              perf::InstanceFamily::kMemoryOptimized}) {
      CharacterizationRow row;
      row.job = job;
      row.family = family;
      // Slice the 8-config measurement into this family's ladder, rebasing
      // the speedup on the family's own 1-vCPU runtime.
      std::array<double, 4> runtimes{};
      int cursor = 0;
      for (std::size_t i = 0; i < measurement.configs.size(); ++i) {
        if (measurement.configs[i].family != family) continue;
        if (cursor >= 4) break;
        runtimes[cursor] = measurement.runtime_seconds[i];
        row.branch_miss_rate[cursor] = measurement.branch_miss_rate[i];
        row.llc_miss_rate[cursor] = measurement.llc_miss_rate[i];
        row.avx_fraction[cursor] = measurement.avx_fraction[i];
        ++cursor;
      }
      row.runtime_seconds = runtimes;
      for (int i = 0; i < 4; ++i) {
        row.speedup[i] =
            runtimes[i] > 0.0 ? runtimes[0] / runtimes[i] : 1.0;
      }
      report.rows.push_back(row);
    }
  }
  return report;
}

std::vector<RoutingScalingPoint> Characterizer::routing_scaling(
    const std::vector<workloads::NamedDesign>& designs) const {
  std::vector<RoutingScalingPoint> points;
  const auto ladder =
      perf::vm_ladder(perf::InstanceFamily::kMemoryOptimized);
  const std::vector<perf::VmConfig> configs(ladder.begin(), ladder.end());

  for (const workloads::NamedDesign& named : designs) {
    const nl::Aig design = workloads::generate(named.spec);
    EdaFlow flow(*library_, options_);
    const FlowResult result = flow.run(design, configs);

    RoutingScalingPoint point;
    point.design_name = named.name;
    point.instance_count =
        result.synthesis.mapped.netlist.stats().instance_count;
    const auto& measurement = result.measurement(JobKind::kRouting);
    for (int i = 0; i < 4 && i < static_cast<int>(
                                     measurement.speedup.size());
         ++i) {
      point.speedup[i] = measurement.speedup[i];
    }
    points.push_back(point);
  }
  std::sort(points.begin(), points.end(),
            [](const RoutingScalingPoint& a, const RoutingScalingPoint& b) {
              return a.instance_count < b.instance_count;
            });
  return points;
}

}  // namespace edacloud::core
