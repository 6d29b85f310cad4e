#pragma once
// The unified stage-engine contract. Synthesis, placement, routing and STA
// each wrap their engine behind one shape —
//
//   StageResult run(const nl::Aig& design, StageContext& ctx)
//
// — where StageContext carries everything a stage needs (cell library,
// instrumentation ladder, thread budget, tracer/metrics handles) and the
// in-progress FlowResult each stage reads its predecessors' products from
// and writes its own product into. EdaFlow::run drives the four engines
// through this interface in flow order; anything else that wants to run a
// partial flow, reorder stages, or interpose (caching, remote execution,
// fault injection) programs against StageEngine instead of four ad-hoc
// engine APIs.

#include <memory>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edacloud::core {

/// Everything a stage engine needs besides the design itself. The tracer /
/// metrics handles default to the process-global instances; tests can
/// point them elsewhere.
struct StageContext {
  const nl::CellLibrary* library = nullptr;
  /// VM ladder to instrument against (null or empty: products only).
  const std::vector<perf::VmConfig>* configs = nullptr;
  /// The flow in progress: earlier stages' products are read from here and
  /// run() writes its own slot (synthesis/placement/routing/timing).
  FlowResult* flow = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;

  [[nodiscard]] bool instrumented() const {
    return configs != nullptr && !configs->empty();
  }
};

/// One headline QoR number a stage reports (attached to its flow span as a
/// trace counter: "cells", "hpwl_um", "wirelength_gedges", ...).
struct StageQor {
  std::string name;
  double value = 0.0;
};

/// What run() hands back: the stage's perf profile (pointing into ctx.flow,
/// valid as long as the FlowResult lives) and its QoR counters.
struct StageResult {
  const perf::JobProfile* profile = nullptr;
  std::vector<StageQor> qor;
};

class StageEngine {
 public:
  virtual ~StageEngine() = default;

  [[nodiscard]] virtual JobKind kind() const = 0;
  [[nodiscard]] std::string name() const { return job_name(kind()); }

  /// Run this stage on `design`, reading upstream products from ctx.flow
  /// and writing this stage's product slot there. Throws std::logic_error
  /// if a required upstream product is missing.
  [[nodiscard]] virtual StageResult run(const nl::Aig& design,
                                        StageContext& ctx) = 0;
};

/// The four flow stages in flow order, configured from `options`. No stage
/// engine takes a thread width.
[[nodiscard]] std::vector<std::unique_ptr<StageEngine>> make_flow_engines(
    const FlowOptions& options);

}  // namespace edacloud::core
