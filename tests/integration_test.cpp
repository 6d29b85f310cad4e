// End-to-end integration: the complete Fig. 1 workflow and the extension
// paths, exercised together on real designs with cross-module invariants.

#include <gtest/gtest.h>

#include "core/characterize.hpp"
#include "core/optimizer.hpp"
#include "nl/aiger.hpp"
#include "nl/netlist_sim.hpp"
#include "nl/verilog.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sim/simulator.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace edacloud {
namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

TEST(IntegrationTest, CharacterizeOptimizeReportPipeline) {
  const nl::Aig design = workloads::gen_mem_ctrl(4, 7);
  core::Characterizer characterizer(library());
  const auto characterization = characterizer.characterize(design);

  core::RuntimeLadders ladders{};
  for (core::JobKind job : core::kAllJobs) {
    const auto* row = characterization.find(
        job, core::recommended_family(job));
    ASSERT_NE(row, nullptr);
    ladders[static_cast<int>(job)] = row->runtime_seconds;
    // Runtimes are positive and weakly improving with vCPUs (within 10%).
    for (int i = 0; i < 4; ++i) {
      EXPECT_GT(row->runtime_seconds[i], 0.0);
    }
    EXPECT_LE(row->runtime_seconds[3], row->runtime_seconds[0] * 1.1);
  }

  core::DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(ladders);
  const double fastest = cloud::fastest_completion_seconds(stages);
  const double deadline = fastest * 1.4;
  const auto plan = optimizer.optimize(ladders, deadline);
  const auto savings = optimizer.savings(ladders, deadline);
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.total_runtime_seconds, deadline + 1.0);
  EXPECT_LE(plan.total_cost_usd, savings.over_provision_cost_usd + 1e-9);
}

TEST(IntegrationTest, PhysicalPipelineInvariantsHold) {
  // synthesis -> placement -> routing, with functional equivalence of the
  // mapped netlist.
  const nl::Aig design = workloads::gen_alu(12);
  synth::SynthesisEngine synthesis(library());
  const nl::Netlist mapped =
      synthesis.synthesize(design, synth::default_recipe()).netlist;

  util::Rng rng(17);
  std::vector<std::uint64_t> words(design.input_count());
  for (auto& w : words) w = rng();
  EXPECT_EQ(design.simulate(words), nl::simulate(mapped, words));

  place::QuadraticPlacer placer;
  const auto placement = placer.place(mapped);
  route::GridRouter router;
  const auto routing = router.run(mapped, placement, {});
  EXPECT_EQ(routing.routed_count, routing.connection_count);
}

TEST(IntegrationTest, InterchangeFormatsComposeAcrossTheFlow) {
  // AIGER in -> synthesis -> Verilog out -> parse -> simulate == original.
  const nl::Aig original = workloads::gen_comparator(6);
  const auto aig_round = nl::parse_aiger(nl::write_aiger(original));
  ASSERT_TRUE(aig_round.ok);

  synth::SynthesisEngine synthesis(library());
  const nl::Netlist netlist =
      synthesis.synthesize(aig_round.aig, synth::default_recipe()).netlist;
  const auto verilog_round =
      nl::parse_verilog(nl::write_verilog(netlist), library());
  ASSERT_TRUE(verilog_round.ok) << verilog_round.error;

  util::Rng rng(21);
  std::vector<std::uint64_t> words(original.input_count());
  for (auto& w : words) w = rng();
  EXPECT_EQ(original.simulate(words),
            nl::simulate(verilog_round.netlist, words));
}

TEST(IntegrationTest, MeasuredActivityTightensPowerEstimate) {
  const nl::Aig design = workloads::gen_parity(32);
  synth::SynthesisEngine synthesis(library());
  const nl::Netlist netlist =
      synthesis.synthesize(design, synth::default_recipe()).netlist;

  sim::SimulationEngine simulator;
  const auto activity = simulator.run(netlist, {});

  sta::StaOptions assumed;  // default activity_factor = 0.1
  sta::StaOptions measured = assumed;
  measured.activity_factor = activity.average_toggle_rate;
  const double assumed_power =
      sta::StaEngine(assumed).run(netlist, nullptr, {}).dynamic_power_uw;
  const double measured_power =
      sta::StaEngine(measured).run(netlist, nullptr, {}).dynamic_power_uw;
  // XOR trees toggle roughly half the time under random vectors — far
  // above the 10% textbook default.
  EXPECT_GT(measured_power, assumed_power * 2.0);
}

}  // namespace
}  // namespace edacloud
