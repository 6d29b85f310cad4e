// Extension bench — two analyses beyond the paper's figures:
//
// 1. Simulation vs flow jobs: the introduction asserts that simulation is
//    "embarrassingly parallel (i.e. directly benefiting from the scale of
//    the cloud)" while synthesis/physical-design scale worse. We quantify
//    it: the simulation job's speedup curve next to the four flow jobs.
//
// 2. The cost-vs-deadline Pareto frontier for the flagship deployment:
//    every (deadline, minimum-cost) breakpoint from one exact frontier —
//    the complete menu Table I samples four rows from.

#include <array>
#include <cstdio>

#include "bench/common.hpp"
#include "core/characterize.hpp"
#include "core/optimizer.hpp"
#include "sim/simulator.hpp"
#include "synth/engine.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

using namespace edacloud;

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode(argc, argv);
  const auto library = nl::make_generic_14nm_library();

  workloads::NamedDesign flagship = workloads::flagship_design();
  if (fast) flagship.spec.size = 16;
  const nl::Aig design = workloads::generate(flagship.spec);

  std::printf("=== Extension: simulation scaling + cost frontier (%s) ===\n",
              fast ? "fast" : "full");

  // ---- 1: simulation vs the flow jobs ---------------------------------------
  core::Characterizer characterizer(library);
  const auto report = characterizer.characterize(design);

  synth::SynthesisEngine synthesis(library);
  const nl::Netlist netlist =
      synthesis.synthesize(design, synth::default_recipe()).netlist;
  const auto ladder = perf::vm_ladder(perf::InstanceFamily::kGeneralPurpose);
  sim::SimOptions sim_options;
  if (fast) {
    sim_options.vector_count = 1024;
    sim_options.chunk_vectors = 64;  // keep enough chunks for 8 workers
  }
  sim::SimulationEngine simulator(sim_options);
  const auto sim_result =
      simulator.run(netlist, {ladder.begin(), ladder.end()});
  // Report the pure parallel speedup (task graph) for simulation: its
  // runtime-based number is superlinear (aggregate-LLC relief on top of
  // near-perfect parallelism) and would obscure the comparison.
  std::array<double, 4> sim_speedup{};
  for (int i = 0; i < 4; ++i) {
    sim_speedup[static_cast<std::size_t>(i)] =
        sim_result.profile.tasks.speedup(perf::kVcpuOptions[
            static_cast<std::size_t>(i)]);
  }

  util::Table scaling({"Job", "2 vCPUs", "4 vCPUs", "8 vCPUs"});
  util::CsvWriter csv({"job", "vcpus", "speedup"});
  for (core::JobKind job : core::kAllJobs) {
    const auto* row =
        report.find(job, perf::InstanceFamily::kGeneralPurpose);
    if (row == nullptr) continue;
    scaling.add_row({core::job_name(job),
                     util::format_fixed(row->speedup[1], 2),
                     util::format_fixed(row->speedup[2], 2),
                     util::format_fixed(row->speedup[3], 2)});
    for (int i = 0; i < 4; ++i) {
      csv.add_row({core::job_name(job),
                   std::to_string(perf::kVcpuOptions[i]),
                   util::format_fixed(row->speedup[i], 4)});
    }
  }
  scaling.add_separator();
  scaling.add_row({"simulation",
                   util::format_fixed(sim_speedup[1], 2),
                   util::format_fixed(sim_speedup[2], 2),
                   util::format_fixed(sim_speedup[3], 2)});
  for (int i = 0; i < 4; ++i) {
    csv.add_row({"simulation", std::to_string(perf::kVcpuOptions[i]),
                 util::format_fixed(sim_speedup[i], 4)});
  }
  std::printf("%s", scaling.render().c_str());
  std::printf(
      "simulation toggles: %.2f avg rate over %zu vectors "
      "(feeds the STA activity factor)\n\n",
      sim_result.average_toggle_rate, sim_result.vector_count);

  // ---- 2: cost-deadline Pareto frontier --------------------------------------
  core::RuntimeLadders ladders{};
  for (core::JobKind job : core::kAllJobs) {
    const auto* row = report.find(job, core::recommended_family(job));
    if (row != nullptr) ladders[static_cast<int>(job)] = row->runtime_seconds;
  }
  core::DeploymentOptimizer optimizer;
  const auto stages = optimizer.build_stages(ladders);
  const auto frontier = cloud::cost_deadline_frontier(stages);

  util::Table frontier_table({"Deadline (s)", "Min cost ($)"});
  util::CsvWriter frontier_csv({"deadline_s", "cost_usd"});
  for (const auto& point : frontier) {
    frontier_table.add_row({util::format_fixed(point.deadline_seconds, 2),
                            util::format_fixed(point.cost_usd, 4)});
    frontier_csv.add_row({util::format_fixed(point.deadline_seconds, 4),
                          util::format_fixed(point.cost_usd, 6)});
  }
  std::printf("cost-deadline frontier (%zu breakpoints):\n%s",
              frontier.size(), frontier_table.render().c_str());

  bench::write_csv(csv, "ext_scaling.csv");
  bench::write_csv(frontier_csv, "ext_cost_frontier.csv");
  return 0;
}
