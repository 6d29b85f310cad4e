#pragma once
// The end-to-end EDA flow of the paper's Fig. 1: synthesis -> placement ->
// routing -> STA, each instrumented against a set of candidate VM
// configurations. This is the unit the characterizer, the dataset builder
// and the deployment optimizer all drive.

#include <array>
#include <string>
#include <vector>

#include "nl/aig.hpp"
#include "nl/cell_library.hpp"
#include "perf/runtime_model.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"

namespace edacloud::core {

/// The four characterized applications, in flow order.
enum class JobKind : int {
  kSynthesis = 0,
  kPlacement = 1,
  kRouting = 2,
  kSta = 3,
};
constexpr int kJobCount = 4;
constexpr std::array<JobKind, kJobCount> kAllJobs = {
    JobKind::kSynthesis, JobKind::kPlacement, JobKind::kRouting,
    JobKind::kSta};

std::string job_name(JobKind job);

/// Per-job calibration factor: scales each simulated runtime linearly to
/// commercial-tool wall-clock magnitude (our engines are lean academic
/// kernels; the factors absorb the constant work gap — they do not change
/// speedups, counter rates or any shape result). See EXPERIMENTS.md.
struct FlowCalibration {
  std::array<double, kJobCount> time_scale = {1.7e6, 4.7e4, 7.5e3, 6.1e5};
};

struct FlowOptions {
  synth::SynthRecipe recipe = synth::default_recipe();
  place::PlacerOptions placer;
  route::RouterOptions router;
  sta::StaOptions sta;
  perf::RuntimeModelParams runtime_model;
  FlowCalibration calibration;
  /// A thread width that nothing in src/ reads: the flow's four stages run
  /// serially, so every value gives the same bytes. It stays because
  /// edabench's characterize workload sets it (and gates on its 1-vs-2
  /// digest) and FlowDeterminismTest compares 1 with 8.
  int threads = 0;
};

struct FlowResult {
  std::string design_name;
  // Stage products.
  synth::SynthesisResult synthesis;
  place::PlacementResult placement;
  route::RoutingResult routing;
  sta::TimingReport timing;
  // Derived measurements (counter rates, runtimes, speedups) per job,
  // evaluated against the configs the flow was run with.
  std::array<perf::JobMeasurement, kJobCount> measurements;

  [[nodiscard]] const perf::JobMeasurement& measurement(JobKind job) const {
    return measurements[static_cast<int>(job)];
  }
};

class EdaFlow {
 public:
  EdaFlow(const nl::CellLibrary& library, FlowOptions options = {})
      : library_(&library), options_(std::move(options)) {}

  /// Run the full flow on `design`, measuring every job against `configs`
  /// (pass an empty vector to skip instrumentation — products only).
  [[nodiscard]] FlowResult run(
      const nl::Aig& design,
      const std::vector<perf::VmConfig>& configs) const;

  /// Publish a measured run's per-stage measurements + QoR gauges into the
  /// global obs::Registry (called automatically by run() when instrumented;
  /// public so drivers can re-export results they assembled themselves).
  static void export_metrics(const FlowResult& result);

  [[nodiscard]] const FlowOptions& options() const { return options_; }

 private:
  const nl::CellLibrary* library_;
  FlowOptions options_;
};

}  // namespace edacloud::core
