#include <gtest/gtest.h>

#include "counter_pins.hpp"
#include "nl/netlist_sim.hpp"
#include "synth/engine.hpp"
#include "synth/mapper.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"

namespace edacloud::synth {
namespace {

using nl::Aig;

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

bool map_equivalent(const Aig& aig, const nl::Netlist& netlist,
                    std::uint64_t seed) {
  if (aig.input_count() != netlist.inputs().size() ||
      aig.output_count() != netlist.outputs().size()) {
    return false;
  }
  util::Rng rng(seed);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::uint64_t> words(aig.input_count());
    for (auto& w : words) w = rng();
    if (aig.simulate(words) != nl::simulate(netlist, words)) return false;
  }
  return true;
}

TEST(TechMapperTest, MatcherIsPopulated) {
  const TechMapper mapper(library());
  // At least: AND/OR/NAND/NOR/XOR/XNOR/AOI/OAI/MUX/MAJ in some polarity.
  EXPECT_GT(mapper.matcher_size(), 30u);
}

TEST(TechMapperTest, MapsXorToXorCell) {
  Aig aig;
  const auto a = aig.add_input();
  const auto b = aig.add_input();
  aig.add_output(aig.xor_of(a, b));
  const TechMapper mapper(library());
  const MapResult result = mapper.map(aig, MapMode::kArea);
  EXPECT_TRUE(map_equivalent(aig, result.netlist, 1));
  // A matched XOR2 implements 3 AIG ands with one cell.
  EXPECT_LE(result.cell_count, 2u);
  EXPECT_GE(result.matched_cut_count, 1u);
}

TEST(TechMapperTest, MapsMuxToMuxCell) {
  Aig aig;
  const auto s = aig.add_input();
  const auto t = aig.add_input();
  const auto f = aig.add_input();
  aig.add_output(aig.mux_of(s, t, f));
  const TechMapper mapper(library());
  MapResult result = mapper.map(aig, MapMode::kArea);
  // The OR root leaves the matched MUX behind a double inversion; the
  // inverter-fusion peephole recovers the single-cell form.
  result.netlist = fuse_inverters(result.netlist);
  EXPECT_TRUE(map_equivalent(aig, result.netlist, 2));
  EXPECT_LE(result.netlist.stats().instance_count, 2u);
}

TEST(TechMapperTest, ConstantOutputHandled) {
  Aig aig;
  const auto a = aig.add_input();
  (void)a;
  aig.add_output(nl::kLitFalse);
  aig.add_output(nl::kLitTrue);
  const TechMapper mapper(library());
  const MapResult result = mapper.map(aig, MapMode::kArea);
  const auto out = nl::simulate(result.netlist, {0xDEADBEEFULL});
  EXPECT_EQ(out[0], 0ULL);
  EXPECT_EQ(out[1], ~0ULL);
}

TEST(TechMapperTest, ComplementedOutputSharesInverter) {
  Aig aig;
  const auto a = aig.add_input();
  const auto b = aig.add_input();
  const auto x = aig.and_of(a, b);
  aig.add_output(nl::literal_not(x));
  aig.add_output(nl::literal_not(x));
  const TechMapper mapper(library());
  const MapResult result = mapper.map(aig, MapMode::kArea);
  EXPECT_TRUE(map_equivalent(aig, result.netlist, 3));
  // AND + one shared INV (or a single NAND after fusion) — not 3+ cells.
  EXPECT_LE(result.cell_count, 2u);
}

TEST(TechMapperTest, DelayModeNotWorseInDepth) {
  const Aig aig = workloads::gen_adder(16);
  const TechMapper mapper(library());
  const auto area = mapper.map(aig, MapMode::kArea);
  const auto delay = mapper.map(aig, MapMode::kDelay);
  EXPECT_LE(delay.netlist.stats().logic_depth,
            area.netlist.stats().logic_depth + 2);
  EXPECT_TRUE(map_equivalent(aig, area.netlist, 4));
  EXPECT_TRUE(map_equivalent(aig, delay.netlist, 5));
}

TEST(TechMapperTest, MapFromSharedCutsEqualsMap) {
  // One cut enumeration serves both modes: map(aig, cuts, mode) must emit
  // exactly what map(aig, mode) emits, node for node.
  const Aig aig = workloads::gen_alu(8);
  const TechMapper mapper(library());
  const std::vector<CutSet> cuts = enumerate_cuts(aig);
  for (const MapMode mode : {MapMode::kArea, MapMode::kDelay}) {
    const MapResult whole = mapper.map(aig, mode);
    const MapResult shared = mapper.map(aig, cuts, mode);
    EXPECT_EQ(shared.mapped_area_um2, whole.mapped_area_um2);
    EXPECT_EQ(shared.cell_count, whole.cell_count);
    EXPECT_EQ(shared.matched_cut_count, whole.matched_cut_count);
    EXPECT_EQ(shared.fallback_count, whole.fallback_count);
    EXPECT_EQ(shared.netlist.inputs(), whole.netlist.inputs());
    EXPECT_EQ(shared.netlist.outputs(), whole.netlist.outputs());
    ASSERT_EQ(shared.netlist.node_count(), whole.netlist.node_count());
    for (nl::NodeId id = 0; id < whole.netlist.node_count(); ++id) {
      EXPECT_EQ(shared.netlist.node(id).kind, whole.netlist.node(id).kind);
      EXPECT_EQ(shared.netlist.node(id).cell, whole.netlist.node(id).cell);
      EXPECT_EQ(shared.netlist.node(id).fanins,
                whole.netlist.node(id).fanins);
    }
  }
  // Cut sets of a different AIG are refused, not silently misread.
  EXPECT_THROW((void)mapper.map(workloads::gen_adder(4), cuts, MapMode::kArea),
               std::invalid_argument);
}

TEST(FuseInvertersTest, FusesAndInvToNand) {
  const nl::CellLibrary& lib = library();
  nl::Netlist n("t", &lib);
  const auto a = n.add_input();
  const auto b = n.add_input();
  const auto g = n.add_cell(*lib.find("AND2_X1"), {a, b});
  const auto inv = n.add_cell(*lib.find("INV_X1"), {g});
  n.add_output(inv);
  const nl::Netlist fused = fuse_inverters(n);
  EXPECT_EQ(fused.stats().instance_count, 1u);
  util::Rng rng(6);
  const std::vector<std::uint64_t> words = {rng(), rng()};
  EXPECT_EQ(nl::simulate(n, words), nl::simulate(fused, words));
}

TEST(FuseInvertersTest, SkipsMultiFanoutBase) {
  const nl::CellLibrary& lib = library();
  nl::Netlist n("t", &lib);
  const auto a = n.add_input();
  const auto b = n.add_input();
  const auto g = n.add_cell(*lib.find("AND2_X1"), {a, b});
  const auto inv = n.add_cell(*lib.find("INV_X1"), {g});
  n.add_output(inv);
  n.add_output(g);  // g has two fanouts -> cannot fuse
  const nl::Netlist fused = fuse_inverters(n);
  EXPECT_EQ(fused.stats().instance_count, 2u);
  util::Rng rng(7);
  const std::vector<std::uint64_t> words = {rng(), rng()};
  EXPECT_EQ(nl::simulate(n, words), nl::simulate(fused, words));
}

TEST(FuseInvertersTest, PreservesInterfaceOrder) {
  const nl::CellLibrary& lib = library();
  nl::Netlist n("t", &lib);
  const auto a = n.add_input();
  const auto b = n.add_input();
  const auto g1 = n.add_cell(*lib.find("INV_X1"), {b});
  const auto g2 = n.add_cell(*lib.find("INV_X1"), {a});
  n.add_output(g1);
  n.add_output(g2);
  const nl::Netlist fused = fuse_inverters(n);
  EXPECT_EQ(fused.inputs().size(), 2u);
  EXPECT_EQ(fused.outputs().size(), 2u);
  const auto orig = nl::simulate(n, {0x1234ULL, 0x5678ULL});
  const auto after = nl::simulate(fused, {0x1234ULL, 0x5678ULL});
  EXPECT_EQ(orig, after);
}

// Full-recipe equivalence sweep over families (the synthesis correctness
// property at the heart of deliverable (a)).
class RecipeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(RecipeEquivalenceTest, SynthesisPreservesFunction) {
  const auto [family, recipe_index] = GetParam();
  workloads::BenchmarkSpec spec;
  spec.family = family;
  for (const auto& info : workloads::families()) {
    if (info.name == family) spec.size = info.corpus_sizes.front();
  }
  spec.seed = 13;
  const Aig aig = workloads::generate(spec);
  const auto recipes = standard_recipes();
  const SynthesisEngine engine(library());
  const MapResult result = engine.synthesize(
      aig, recipes[static_cast<std::size_t>(recipe_index)]);
  std::string error;
  EXPECT_TRUE(result.netlist.validate(&error)) << error;
  EXPECT_TRUE(map_equivalent(aig, result.netlist, 91))
      << family << " recipe " << recipe_index;
}

std::vector<std::string> sweep_families() {
  return {"adder", "shifter", "max", "comparator", "parity", "encoder",
          "i2c", "mem_ctrl", "crossbar", "dynamic_node"};
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesXRecipes, RecipeEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(sweep_families()),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

TEST(SynthEngineTest, InstrumentedCountersPinnedOnBenchLadder) {
  // Every counter of an instrumented synthesis (rewrite, balance, cuts and
  // mapping) on the benchmark's ladder, pinned: instrumentation refactors
  // must leave the event stream byte-identical.
  const SynthesisEngine engine(library());
  const auto result = engine.run(workloads::gen_alu(16), default_recipe(),
                                 pins::bench_ladder());
  pins::expect_ladder_counts(
      result.profile, {{323014, 2728, 1364, 7142, 1290, 24779, 2258, 8432,
                        2920, 2920},
                       {2528, 2528, 2528, 2488, 2528, 2528, 2528, 2488}});
}

}  // namespace
}  // namespace edacloud::synth
