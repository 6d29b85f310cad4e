#include <gtest/gtest.h>

#include <string>

#include "nl/aig.hpp"
#include "nl/dot.hpp"
#include "util/rng.hpp"

namespace edacloud::nl {
namespace {

TEST(LiteralTest, EncodeDecode) {
  const Literal lit = make_literal(5, true);
  EXPECT_EQ(literal_node(lit), 5u);
  EXPECT_TRUE(literal_complemented(lit));
  EXPECT_EQ(literal_not(literal_not(lit)), lit);
  EXPECT_EQ(kLitTrue, literal_not(kLitFalse));
}

TEST(AigTest, ConstantFolding) {
  Aig aig;
  const Literal a = aig.add_input();
  EXPECT_EQ(aig.and_of(a, kLitFalse), kLitFalse);
  EXPECT_EQ(aig.and_of(kLitFalse, a), kLitFalse);
  EXPECT_EQ(aig.and_of(a, kLitTrue), a);
  EXPECT_EQ(aig.and_of(kLitTrue, a), a);
  EXPECT_EQ(aig.and_of(a, a), a);
  EXPECT_EQ(aig.and_of(a, literal_not(a)), kLitFalse);
  EXPECT_EQ(aig.and_count(), 0u);
}

TEST(AigTest, StructuralHashingDeduplicates) {
  Aig aig;
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  const Literal x = aig.and_of(a, b);
  const Literal y = aig.and_of(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(aig.and_count(), 1u);
}

TEST(AigTest, InputsMustPrecedeAnds) {
  Aig aig;
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  aig.and_of(a, b);
  EXPECT_THROW(aig.add_input(), std::logic_error);
}

TEST(AigTest, XorTruthTable) {
  Aig aig;
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  aig.add_output(aig.xor_of(a, b));
  const auto out = aig.simulate({0xAAAAAAAAAAAAAAAAULL,
                                 0xCCCCCCCCCCCCCCCCULL});
  EXPECT_EQ(out[0], 0xAAAAAAAAAAAAAAAAULL ^ 0xCCCCCCCCCCCCCCCCULL);
}

TEST(AigTest, MuxAndMajTruthTables) {
  Aig aig;
  const Literal s = aig.add_input();
  const Literal t = aig.add_input();
  const Literal f = aig.add_input();
  aig.add_output(aig.mux_of(s, t, f));
  aig.add_output(aig.maj_of(s, t, f));
  const std::uint64_t vs = 0xAAAAAAAAAAAAAAAAULL;
  const std::uint64_t vt = 0xCCCCCCCCCCCCCCCCULL;
  const std::uint64_t vf = 0xF0F0F0F0F0F0F0F0ULL;
  const auto out = aig.simulate({vs, vt, vf});
  EXPECT_EQ(out[0], (vs & vt) | (~vs & vf));
  EXPECT_EQ(out[1], (vs & vt) | (vs & vf) | (vt & vf));
}

TEST(AigTest, DepthOfChain) {
  Aig aig;
  Literal acc = aig.add_input();
  std::vector<Literal> inputs;
  for (int i = 0; i < 7; ++i) inputs.push_back(aig.add_input());
  for (Literal input : inputs) acc = aig.and_of(acc, input);
  aig.add_output(acc);
  EXPECT_EQ(aig.depth(), 7u);
}

TEST(AigTest, FanoutCountsIncludeOutputs) {
  Aig aig;
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  const Literal x = aig.and_of(a, b);
  aig.add_output(x);
  aig.add_output(literal_not(x));
  const auto fanouts = aig.fanout_counts();
  EXPECT_EQ(fanouts[literal_node(x)], 2u);
  EXPECT_EQ(fanouts[literal_node(a)], 1u);
}

TEST(AigTest, LiveNodesExcludesDeadCone) {
  Aig aig;
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  const Literal used = aig.and_of(a, b);
  const Literal dead = aig.and_of(literal_not(a), b);
  aig.add_output(used);
  const auto alive = aig.live_nodes();
  EXPECT_TRUE(alive[literal_node(used)]);
  EXPECT_FALSE(alive[literal_node(dead)]);
}

TEST(AigTest, ForwardCsrPreservesDirection) {
  Aig aig;
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  const Literal x = aig.and_of(a, b);
  aig.add_output(x);
  const Csr csr = aig.build_forward_csr();
  EXPECT_EQ(csr.edge_count(), 2u);
  EXPECT_EQ(csr.degree(literal_node(a)), 1u);
  EXPECT_EQ(csr.degree(literal_node(x)), 0u);
}

TEST(AigTest, SimulateRejectsWrongArity) {
  Aig aig;
  aig.add_input();
  EXPECT_THROW(aig.simulate({}), std::invalid_argument);
}

TEST(AigTest, DeMorganEquivalence) {
  // !(a & b) == !a | !b on random patterns.
  Aig aig;
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  aig.add_output(literal_not(aig.and_of(a, b)));
  aig.add_output(aig.or_of(literal_not(a), literal_not(b)));
  util::Rng rng(3);
  const auto out = aig.simulate({rng(), rng()});
  EXPECT_EQ(out[0], out[1]);
}

/// a & b and (a & b) | c, built in the given order of AND operands.
Aig small_aig(const std::string& name, bool swap_operands) {
  Aig aig(name);
  const Literal a = aig.add_input();
  const Literal b = aig.add_input();
  const Literal c = aig.add_input();
  const Literal ab = swap_operands ? aig.and_of(b, a) : aig.and_of(a, b);
  aig.add_output(ab);
  aig.add_output(aig.or_of(ab, c));
  return aig;
}

TEST(AigTest, EqualityIsStructural) {
  const Aig first = small_aig("x", false);
  const Aig second = small_aig("x", true);  // strash canonicalizes order
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.content_hash(), second.content_hash());
  const Aig copy = first;
  EXPECT_TRUE(copy == first);
  EXPECT_EQ(copy.content_hash(), first.content_hash());
}

TEST(AigTest, EqualityComparesName) {
  const Aig first = small_aig("x", false);
  const Aig renamed = small_aig("y", false);
  EXPECT_FALSE(first == renamed);
  EXPECT_NE(first.content_hash(), renamed.content_hash());
}

TEST(AigTest, EqualitySeesOutputComplement) {
  Aig plain("x");
  Aig negated("x");
  for (Aig* aig : {&plain, &negated}) {
    const Literal a = aig->add_input();
    const Literal b = aig->add_input();
    const Literal ab = aig->and_of(a, b);
    aig->add_output(aig == &plain ? ab : literal_not(ab));
  }
  EXPECT_FALSE(plain == negated);
  EXPECT_NE(plain.content_hash(), negated.content_hash());
}

TEST(AigTest, EqualitySeesFaninsAndNodeCount) {
  Aig and_gate("x");
  Aig nor_gate("x");
  Aig grown("x");
  for (Aig* aig : {&and_gate, &nor_gate, &grown}) {
    const Literal a = aig->add_input();
    const Literal b = aig->add_input();
    const Literal out = aig == &nor_gate
                            ? aig->and_of(literal_not(a), literal_not(b))
                            : aig->and_of(a, b);
    if (aig == &grown) (void)aig->and_of(a, literal_not(b));  // dead node
    aig->add_output(out);
  }
  EXPECT_FALSE(and_gate == nor_gate);
  EXPECT_NE(and_gate.content_hash(), nor_gate.content_hash());
  EXPECT_FALSE(and_gate == grown);
  EXPECT_NE(and_gate.content_hash(), grown.content_hash());
}

TEST(DotTest, AigDotMarksComplementedEdges) {
  Aig aig;
  const auto a = aig.add_input();
  const auto b = aig.add_input();
  aig.add_output(aig.and_of(a, literal_not(b)));
  const std::string dot = write_dot(aig);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("shape=triangle"), std::string::npos);
}

}  // namespace
}  // namespace edacloud::nl
