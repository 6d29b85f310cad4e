#pragma once
// Problem 1 — EDA flow characterization (§III-A). Runs the flagship design
// through the flow against both instance-family ladders, producing the data
// behind Fig. 2 (branch misses, cache misses, AVX fraction, speedup vs
// vCPUs) and Fig. 3 (routing speedup across designs of increasing size),
// plus the paper's per-job instance-family recommendations.

#include <array>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "workloads/registry.hpp"

namespace edacloud::core {

/// Fig. 2 rows: one per job, measured on a single family's vCPU ladder.
struct CharacterizationRow {
  JobKind job = JobKind::kSynthesis;
  perf::InstanceFamily family = perf::InstanceFamily::kGeneralPurpose;
  std::array<double, 4> branch_miss_rate{};  // per 1/2/4/8 vCPUs
  std::array<double, 4> llc_miss_rate{};
  std::array<double, 4> avx_fraction{};
  std::array<double, 4> speedup{};
  std::array<double, 4> runtime_seconds{};
};

struct CharacterizationReport {
  std::string design_name;
  std::size_t instance_count = 0;
  std::vector<CharacterizationRow> rows;  // 4 jobs x families measured

  [[nodiscard]] const CharacterizationRow* find(
      JobKind job, perf::InstanceFamily family) const;
};

/// Fig. 3: routing speedups per design, smallest to largest.
struct RoutingScalingPoint {
  std::string design_name;
  std::size_t instance_count = 0;
  std::array<double, 4> speedup{};  // 1/2/4/8 vCPUs
};

/// The instance family the characterization recommends per job
/// (paper: synthesis & STA -> general purpose; placement & routing ->
/// memory optimized, routing demanding the most cache).
perf::InstanceFamily recommended_family(JobKind job);

class Characterizer {
 public:
  explicit Characterizer(const nl::CellLibrary& library,
                         FlowOptions options = {})
      : library_(&library), options_(std::move(options)) {}

  /// Fig. 2: characterize one design on both family ladders (8 configs in
  /// a single instrumented run per job).
  [[nodiscard]] CharacterizationReport characterize(
      const nl::Aig& design) const;

  /// Fig. 3: routing speedup across the registry's characterization set.
  [[nodiscard]] std::vector<RoutingScalingPoint> routing_scaling(
      const std::vector<workloads::NamedDesign>& designs) const;

 private:
  const nl::CellLibrary* library_;
  FlowOptions options_;
};

}  // namespace edacloud::core
