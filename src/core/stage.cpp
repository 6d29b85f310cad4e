#include "core/stage.hpp"

#include <stdexcept>

namespace edacloud::core {

namespace {

const std::vector<perf::VmConfig>& configs_of(const StageContext& ctx) {
  static const std::vector<perf::VmConfig> kNone;
  return ctx.configs != nullptr ? *ctx.configs : kNone;
}

FlowResult& flow_of(const StageContext& ctx) {
  if (ctx.flow == nullptr) {
    throw std::logic_error("StageContext::flow is required");
  }
  return *ctx.flow;
}

/// The mapped netlist every post-synthesis stage consumes.
const nl::Netlist& netlist_of(const StageContext& ctx, const char* stage) {
  FlowResult& flow = flow_of(ctx);
  if (flow.synthesis.mapped.netlist.node_count() == 0) {
    throw std::logic_error(std::string(stage) +
                           " requires a synthesized netlist in ctx.flow");
  }
  return flow.synthesis.mapped.netlist;
}

class SynthesisStage final : public StageEngine {
 public:
  explicit SynthesisStage(synth::SynthRecipe recipe)
      : recipe_(std::move(recipe)) {}

  [[nodiscard]] JobKind kind() const override { return JobKind::kSynthesis; }

  StageResult run(const nl::Aig& design, StageContext& ctx) override {
    if (ctx.library == nullptr) {
      throw std::logic_error("synthesis requires a cell library");
    }
    FlowResult& flow = flow_of(ctx);
    synth::SynthesisEngine engine(*ctx.library);
    flow.synthesis = engine.run(design, recipe_, configs_of(ctx));
    return {&flow.synthesis.profile,
            {{"cells",
              static_cast<double>(flow.synthesis.mapped.cell_count)}}};
  }

 private:
  synth::SynthRecipe recipe_;
};

class PlacementStage final : public StageEngine {
 public:
  explicit PlacementStage(place::PlacerOptions options) : options_(options) {}

  [[nodiscard]] JobKind kind() const override { return JobKind::kPlacement; }

  StageResult run(const nl::Aig& design, StageContext& ctx) override {
    (void)design;  // placement works on the synthesized netlist
    FlowResult& flow = flow_of(ctx);
    place::QuadraticPlacer placer(options_);
    flow.placement = placer.run(netlist_of(ctx, "placement"), configs_of(ctx));
    return {&flow.placement.profile, {{"hpwl_um", flow.placement.hpwl_um}}};
  }

 private:
  place::PlacerOptions options_;
};

class RoutingStage final : public StageEngine {
 public:
  explicit RoutingStage(route::RouterOptions options) : options_(options) {}

  [[nodiscard]] JobKind kind() const override { return JobKind::kRouting; }

  StageResult run(const nl::Aig& design, StageContext& ctx) override {
    (void)design;
    FlowResult& flow = flow_of(ctx);
    if (!flow.placement.placement.valid_for(
            netlist_of(ctx, "routing"))) {
      throw std::logic_error("routing requires a placement in ctx.flow");
    }
    route::GridRouter router(options_);
    flow.routing = router.run(flow.synthesis.mapped.netlist,
                              flow.placement.placement, configs_of(ctx));
    return {&flow.routing.profile,
            {{"wirelength_gedges",
              static_cast<double>(flow.routing.wirelength_gedges)},
             {"overflowed_edges",
              static_cast<double>(flow.routing.overflowed_edges)}}};
  }

 private:
  route::RouterOptions options_;
};

class StaStage final : public StageEngine {
 public:
  explicit StaStage(sta::StaOptions options) : options_(options) {}

  [[nodiscard]] JobKind kind() const override { return JobKind::kSta; }

  StageResult run(const nl::Aig& design, StageContext& ctx) override {
    (void)design;
    FlowResult& flow = flow_of(ctx);
    const nl::Netlist& netlist = netlist_of(ctx, "sta");
    const place::Placement* placement =
        flow.placement.placement.valid_for(netlist)
            ? &flow.placement.placement
            : nullptr;
    sta::StaEngine engine(options_);
    flow.timing = engine.run(netlist, placement, configs_of(ctx));
    return {&flow.timing.profile,
            {{"critical_path_ps", flow.timing.critical_path_ps},
             {"worst_slack_ps", flow.timing.worst_slack_ps}}};
  }

 private:
  sta::StaOptions options_;
};

}  // namespace

std::vector<std::unique_ptr<StageEngine>> make_flow_engines(
    const FlowOptions& options) {
  std::vector<std::unique_ptr<StageEngine>> engines;
  engines.push_back(std::make_unique<SynthesisStage>(options.recipe));
  engines.push_back(std::make_unique<PlacementStage>(options.placer));
  engines.push_back(std::make_unique<RoutingStage>(options.router));
  engines.push_back(std::make_unique<StaStage>(options.sta));
  return engines;
}

}  // namespace edacloud::core
