#include "synth/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::synth {

using nl::Aig;
using perf::TaskGraph;
using perf::TaskId;

namespace {

/// Level-population histogram of an AIG (AND nodes only).
std::vector<double> level_histogram(const Aig& aig) {
  const auto levels = aig.levels();
  std::uint32_t depth = 0;
  for (nl::AigNode node = 0; node < aig.node_count(); ++node) {
    if (aig.is_and(node)) depth = std::max(depth, levels[node]);
  }
  std::vector<double> histogram(depth + 1, 0.0);
  for (nl::AigNode node = 0; node < aig.node_count(); ++node) {
    if (aig.is_and(node)) histogram[levels[node]] += 1.0;
  }
  return histogram;
}

/// Append one optimization/mapping pass to the task graph: a serial prefix
/// (shared hash table) followed by level-ordered parallel chunks with a
/// barrier between levels. Returns the pass's final barrier task.
TaskId add_levelized_pass(TaskGraph& graph, const std::vector<double>& levels,
                          double serial_fraction, double chunk_size,
                          TaskId prev_barrier, bool has_prev) {
  double total = 0.0;
  for (double count : levels) total += count;
  std::vector<TaskId> deps;
  if (has_prev) deps.push_back(prev_barrier);
  const TaskId serial =
      graph.add_task(total * serial_fraction, deps);
  TaskId barrier = serial;
  for (double count : levels) {
    if (count <= 0.0) continue;
    const double parallel_work = count * (1.0 - serial_fraction);
    const int chunks = std::max(
        1, static_cast<int>(std::ceil(count / chunk_size)));
    std::vector<TaskId> chunk_ids;
    chunk_ids.reserve(static_cast<std::size_t>(chunks));
    for (int c = 0; c < chunks; ++c) {
      chunk_ids.push_back(
          graph.add_task(parallel_work / chunks, {barrier}));
    }
    barrier = graph.add_task(0.0, chunk_ids);
  }
  return barrier;
}

/// The inverter-fusion leaf: fuse the netlist and restate its size.
void fuse(MapResult& mapped) {
  mapped.netlist = fuse_inverters(mapped.netlist);
  const auto stats = mapped.netlist.stats();
  mapped.cell_count = stats.instance_count;
  mapped.mapped_area_um2 = stats.total_area_um2;
}

}  // namespace

MapResult SynthesisEngine::synthesize(const Aig& input,
                                      const SynthRecipe& recipe) const {
  Aig current = cleanup(input);
  for (int pass = 0; pass < recipe.rewrite_passes; ++pass) {
    current = rewrite(current);
  }
  if (recipe.balance) current = balance(current);
  MapResult mapped = mapper_.map(current, recipe.mode);
  if (recipe.fuse) fuse(mapped);
  return mapped;
}

RecipeLattice SynthesisEngine::synthesize_all(
    const Aig& input, const std::vector<SynthRecipe>& recipes,
    int threads) const {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  // Distinct AIGs in first-use order, with the memoized result of each
  // pass applied to them and the leaf slots of the maps they feed.
  struct Node {
    Aig aig;
    std::uint64_t hash = 0;
    std::size_t rewritten = kNone;
    std::size_t balanced = kNone;
    std::array<std::array<std::size_t, 2>, 2> leaf{
        {{kNone, kNone}, {kNone, kNone}}};  // [mode][fuse]
  };
  std::vector<Node> nodes;
  const auto intern = [&nodes](Aig aig) {
    const std::uint64_t hash = aig.content_hash();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].hash == hash && nodes[i].aig == aig) return i;
    }
    nodes.push_back({std::move(aig), hash});
    return nodes.size() - 1;
  };
  RecipeLattice lattice;
  LatticeCounts& counts = lattice.counts;

  // Rewrite chain: chain[k] is the AIG after k passes. A pass already run
  // on an interned AIG is not run again, so once rewrite returns an equal
  // AIG (a fixpoint) the chain extends for free.
  int max_passes = 0;
  for (const SynthRecipe& recipe : recipes) {
    max_passes = std::max(max_passes, recipe.rewrite_passes);
  }
  std::vector<std::size_t> chain = {intern(cleanup(input))};
  while (chain.size() <= static_cast<std::size_t>(max_passes)) {
    const std::size_t from = chain.back();
    if (nodes[from].rewritten == kNone) {
      const std::size_t next = intern(rewrite(nodes[from].aig));
      ++counts.rewrites;
      nodes[from].rewritten = next;
    }
    chain.push_back(nodes[from].rewritten);
  }
  const auto chain_end = [&chain](const SynthRecipe& recipe) {
    return chain[static_cast<std::size_t>(std::max(0, recipe.rewrite_passes))];
  };

  // Balance each distinct chain AIG a recipe asks for, once.
  std::vector<std::size_t> to_balance;
  for (const SynthRecipe& recipe : recipes) {
    const std::size_t from = chain_end(recipe);
    if (!recipe.balance ||
        std::find(to_balance.begin(), to_balance.end(), from) !=
            to_balance.end()) {
      continue;
    }
    to_balance.push_back(from);
  }
  std::vector<Aig> balanced(to_balance.size());
  util::parallel_for(threads, 0, to_balance.size(), 1,
                     [&](std::size_t begin, std::size_t end, std::size_t,
                         unsigned) {
                       for (std::size_t i = begin; i < end; ++i) {
                         balanced[i] = balance(nodes[to_balance[i]].aig);
                       }
                     });
  counts.balances = to_balance.size();
  for (std::size_t i = 0; i < to_balance.size(); ++i) {
    const std::size_t id = intern(std::move(balanced[i]));
    nodes[to_balance[i]].balanced = id;
  }

  // Leaves: one per distinct (mapped AIG, mode, fuse), numbered in recipe
  // order; each recipe points at its leaf.
  std::vector<std::size_t> to_map;
  lattice.leaf_of.reserve(recipes.size());
  for (const SynthRecipe& recipe : recipes) {
    const std::size_t from = chain_end(recipe);
    const std::size_t target = recipe.balance ? nodes[from].balanced : from;
    std::size_t& leaf = nodes[target].leaf[static_cast<int>(recipe.mode)]
                                          [recipe.fuse ? 1 : 0];
    if (leaf == kNone) {
      if (std::find(to_map.begin(), to_map.end(), target) == to_map.end()) {
        to_map.push_back(target);
      }
      leaf = counts.leaves++;
    }
    lattice.leaf_of.push_back(leaf);
  }

  // Map fan-out: per distinct AIG, one cut enumeration shared by every
  // requested mode; the cut sets die with the chunk.
  lattice.leaves.resize(counts.leaves);
  util::parallel_for(
      threads, 0, to_map.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t, unsigned) {
        for (std::size_t i = begin; i < end; ++i) {
          const Node& node = nodes[to_map[i]];
          const std::vector<CutSet> cuts = enumerate_cuts(node.aig);
          for (const MapMode mode : {MapMode::kArea, MapMode::kDelay}) {
            const auto& slots = node.leaf[static_cast<int>(mode)];
            if (slots[0] == kNone && slots[1] == kNone) continue;
            MapResult mapped = mapper_.map(node.aig, cuts, mode);
            if (slots[1] == kNone) {
              lattice.leaves[slots[0]] = std::move(mapped);
              continue;
            }
            if (slots[0] != kNone) lattice.leaves[slots[0]] = mapped;
            fuse(mapped);
            lattice.leaves[slots[1]] = std::move(mapped);
          }
        }
      });
  counts.cut_sets = to_map.size();
  for (const std::size_t id : to_map) {
    for (const auto& slots : nodes[id].leaf) {
      if (slots[0] != kNone || slots[1] != kNone) ++counts.maps;
    }
  }
  return lattice;
}

SynthesisResult SynthesisEngine::run(
    const Aig& input, const SynthRecipe& recipe,
    const std::vector<perf::VmConfig>& configs) const {
  perf::Instrument instrument = perf::Instrument::for_configs(configs);
  const perf::Sink sink(instrument);
  TRACE_SPAN_VAR(run_span, "synth/run", "synth");

  Aig current = [&] {
    TRACE_SPAN("synth/cleanup", "synth");
    return cleanup(input);
  }();
  int pass_count = 1;  // cleanup
  {
    TRACE_SPAN_VAR(span, "synth/rewrite", "synth");
    span.counter("passes", recipe.rewrite_passes);
    for (int pass = 0; pass < recipe.rewrite_passes; ++pass) {
      current = rewrite(current, sink);
      ++pass_count;
    }
  }
  if (recipe.balance) {
    TRACE_SPAN("synth/balance", "synth");
    current = balance(current, sink);
    ++pass_count;
  }

  SynthesisResult result = [&] {
    TRACE_SPAN("synth/map", "synth");
    return SynthesisResult{mapper_.map(current, recipe.mode, sink),
                           current.and_count(), current.depth(),
                           perf::JobProfile{}};
  }();
  if (recipe.fuse) {
    TRACE_SPAN("synth/fuse", "synth");
    fuse(result.mapped);
  }
  run_span.counter("and_nodes", static_cast<double>(current.and_count()));
  run_span.counter("cells", static_cast<double>(result.mapped.cell_count));

  // ---- task graph: optimization passes + mapping DP -------------------------
  const auto histogram = level_histogram(current);
  TaskGraph tasks;
  TaskId barrier = 0;
  bool has_prev = false;
  for (int pass = 0; pass < pass_count; ++pass) {
    barrier = add_levelized_pass(tasks, histogram, serial_fraction_, 16.0,
                                 barrier, has_prev);
    has_prev = true;
  }
  // Mapping DP pass: level-dependent but hash-free (lower serial share).
  barrier = add_levelized_pass(tasks, histogram, 0.10, 16.0, barrier, true);

  result.profile.job = "synthesis";
  result.profile.configs = configs;
  result.profile.counts = instrument.counts();
  result.profile.tasks = std::move(tasks);
  return result;
}

}  // namespace edacloud::synth
