#include "sim/simulator.hpp"

#include <bit>

#include "nl/netlist_sim.hpp"
#include "perf/sink.hpp"
#include "util/rng.hpp"

namespace edacloud::sim {

namespace {

constexpr std::uint64_t kValueBase = 0x70ULL << 23;

}  // namespace

SimulationResult SimulationEngine::run(
    const nl::Netlist& netlist,
    const std::vector<perf::VmConfig>& configs) const {
  perf::Instrument instrument = perf::Instrument::for_configs(configs);
  const perf::Sink sink(instrument);

  SimulationResult result;
  result.toggle_rate.assign(netlist.node_count(), 0.0);
  std::vector<std::uint64_t> toggles(netlist.node_count(), 0);

  util::Rng rng(options_.seed);
  const std::size_t words =
      (options_.vector_count + 63) / 64;  // 64 vectors per word
  result.vector_count = words * 64;

  const auto order = netlist.topological_order();
  std::vector<std::uint64_t> previous(netlist.node_count(), 0);

  for (std::size_t w = 0; w < words; ++w) {
    std::vector<std::uint64_t> inputs(netlist.inputs().size());
    for (auto& word : inputs) word = rng();

    const auto value = nl::simulate_nodes(netlist, inputs);
    const auto chunk_id = static_cast<std::uint32_t>(
        w * 64 / std::max<std::size_t>(1, options_.chunk_vectors));

    // Instrument the evaluation sweep: per gate, fanin value loads
    // (thread-private value array per simulation worker) + the bitwise op.
    if (sink) {
      for (nl::NodeId id : order) {
        const auto& node = netlist.node(id);
        if (node.kind == nl::NodeKind::kPrimaryInput) continue;
        for (nl::NodeId fanin : node.fanins) {
          sink.load_private(kValueBase + fanin * 8ULL, chunk_id);
        }
        sink.int_ops(2 + node.fanins.size());
        sink.branch(kValueBase ^ 0x1, true);  // gate loop, well-predicted
      }
    }

    // Toggle accounting vs the previous vector word.
    if (w > 0) {
      for (nl::NodeId id = 0; id < netlist.node_count(); ++id) {
        toggles[id] += static_cast<std::uint64_t>(
            std::popcount(previous[id] ^ value[id]));
      }
    }
    previous = value;
  }

  for (nl::NodeId id = 0; id < netlist.node_count(); ++id) {
    result.toggle_count += toggles[id];
    result.toggle_rate[id] = static_cast<double>(toggles[id]) /
                             static_cast<double>(result.vector_count);
  }
  result.average_toggle_rate =
      netlist.node_count() == 0
          ? 0.0
          : static_cast<double>(result.toggle_count) /
                (static_cast<double>(result.vector_count) *
                 static_cast<double>(netlist.node_count()));

  // ---- task graph: fully independent vector chunks --------------------------
  perf::TaskGraph tasks;
  const std::size_t chunks = std::max<std::size_t>(
      1, options_.vector_count /
             std::max<std::size_t>(1, options_.chunk_vectors));
  const double work_per_chunk =
      static_cast<double>(netlist.node_count()) *
      static_cast<double>(options_.chunk_vectors) / 64.0;
  std::vector<perf::TaskId> chunk_tasks;
  chunk_tasks.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    chunk_tasks.push_back(tasks.add_task(work_per_chunk));
  }
  // One tiny serial reduction at the end (toggle/coverage merge).
  tasks.add_task(work_per_chunk * 0.02, chunk_tasks);

  result.profile.job = "simulation";
  result.profile.configs = configs;
  result.profile.counts = instrument.counts();
  result.profile.tasks = std::move(tasks);
  return result;
}

}  // namespace edacloud::sim
