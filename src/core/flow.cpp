#include "core/flow.hpp"

#include <stdexcept>

#include "core/stage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/obs_export.hpp"

namespace edacloud::core {

std::string job_name(JobKind job) {
  switch (job) {
    case JobKind::kSynthesis:
      return "synthesis";
    case JobKind::kPlacement:
      return "placement";
    case JobKind::kRouting:
      return "routing";
    case JobKind::kSta:
      return "sta";
  }
  return "?";
}

FlowResult EdaFlow::run(const nl::Aig& design,
                        const std::vector<perf::VmConfig>& configs) const {
  FlowResult result;
  result.design_name = design.name();
  TRACE_SPAN_VAR(flow_span, "flow/run", "flow");

  StageContext ctx;
  ctx.library = library_;
  ctx.configs = &configs;
  ctx.flow = &result;
  ctx.tracer = &obs::Tracer::global();
  ctx.metrics = &obs::Registry::global();

  for (const auto& engine : make_flow_engines(options_)) {
    TRACE_SPAN_VAR(span, "flow/" + engine->name(), "flow");
    const StageResult stage = engine->run(design, ctx);
    for (const StageQor& qor : stage.qor) {
      span.counter(qor.name, qor.value);
    }
  }

  if (!configs.empty()) {
    const std::array<const perf::JobProfile*, kJobCount> profiles = {
        &result.synthesis.profile, &result.placement.profile,
        &result.routing.profile, &result.timing.profile};
    for (int j = 0; j < kJobCount; ++j) {
      perf::RuntimeModelParams params = options_.runtime_model;
      params.time_scale *= options_.calibration.time_scale[j];
      result.measurements[j] = perf::measure(*profiles[j], params);
    }
    export_metrics(result);
  }
  return result;
}

/// Publish one flow run into the global metrics registry: per-stage
/// runtime-model measurements (absorbing the perf counter snapshots the
/// stages used to report only through their own structs) plus the headline
/// QoR gauges, all labelled with the design name.
void EdaFlow::export_metrics(const FlowResult& result) {
  obs::Registry& registry = obs::Registry::global();
  const obs::Labels design_labels = {{"design", result.design_name}};
  for (int j = 0; j < kJobCount; ++j) {
    obs::Labels labels = design_labels;
    labels.emplace_back("stage", job_name(static_cast<JobKind>(j)));
    perf::absorb_measurement(registry, result.measurements[j], labels);
  }
  const auto set = [&](const char* name, double value) {
    registry.gauge(name, design_labels).set(value);
  };
  const auto stats = result.synthesis.mapped.netlist.stats();
  set("flow.instances", static_cast<double>(stats.instance_count));
  set("flow.area_um2", stats.total_area_um2);
  set("flow.logic_depth", static_cast<double>(stats.logic_depth));
  set("flow.hpwl_um", result.placement.hpwl_um);
  set("flow.wirelength_gedges",
      static_cast<double>(result.routing.wirelength_gedges));
  set("flow.overflowed_edges",
      static_cast<double>(result.routing.overflowed_edges));
  set("flow.critical_path_ps", result.timing.critical_path_ps);
  set("flow.worst_slack_ps", result.timing.worst_slack_ps);
}

}  // namespace edacloud::core
