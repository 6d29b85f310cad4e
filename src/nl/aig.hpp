#pragma once
// And-Inverter Graph — the intermediate representation synthesis operates
// on (the paper's GCN consumes this DAG directly for synthesis-runtime
// prediction). Classic encoding: node 0 is constant-false, a literal is
// 2*node + complement-bit, AND nodes have exactly two fanin literals, and
// structural hashing deduplicates isomorphic nodes.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nl/graph.hpp"

namespace edacloud::nl {

using AigNode = std::uint32_t;
using Literal = std::uint32_t;

constexpr Literal kLitFalse = 0;
constexpr Literal kLitTrue = 1;

constexpr Literal make_literal(AigNode node, bool complemented) {
  return (node << 1) | static_cast<Literal>(complemented);
}
constexpr AigNode literal_node(Literal lit) { return lit >> 1; }
constexpr bool literal_complemented(Literal lit) { return (lit & 1U) != 0; }
constexpr Literal literal_not(Literal lit) { return lit ^ 1U; }

class Aig {
 public:
  explicit Aig(std::string name = "aig");

  // ---- construction -------------------------------------------------------
  Literal add_input();
  void add_output(Literal lit);

  /// AND with constant folding, idempotence/complement rules and structural
  /// hashing. Never creates a duplicate (a,b) node.
  Literal and_of(Literal a, Literal b);

  // Derived operators (expand into AND/INV structure).
  Literal or_of(Literal a, Literal b);
  Literal xor_of(Literal a, Literal b);
  Literal mux_of(Literal sel, Literal when_true, Literal when_false);
  Literal maj_of(Literal a, Literal b, Literal c);

  // ---- access --------------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t node_count() const { return fanin0_.size(); }
  [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }
  [[nodiscard]] std::size_t output_count() const { return outputs_.size(); }
  [[nodiscard]] std::size_t and_count() const {
    return node_count() - 1 - input_count();
  }

  [[nodiscard]] bool is_constant(AigNode node) const { return node == 0; }
  [[nodiscard]] bool is_input(AigNode node) const {
    return node >= 1 && node <= inputs_.size();
  }
  [[nodiscard]] bool is_and(AigNode node) const {
    return node > inputs_.size() && node < node_count();
  }

  [[nodiscard]] Literal fanin0(AigNode node) const { return fanin0_[node]; }
  [[nodiscard]] Literal fanin1(AigNode node) const { return fanin1_[node]; }

  [[nodiscard]] const std::vector<AigNode>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<Literal>& outputs() const {
    return outputs_;
  }

  /// Longest-path level per node (inputs/constant at 0).
  [[nodiscard]] std::vector<std::uint32_t> levels() const;
  /// Depth = max level over output nodes.
  [[nodiscard]] std::uint32_t depth() const;

  /// Per-node fanout counts (output references count as fanout).
  [[nodiscard]] std::vector<std::uint32_t> fanout_counts() const;

  /// Direction-preserving DAG (edges fanin-node -> node) for the GCN.
  [[nodiscard]] Csr build_forward_csr() const;

  /// Simulate with 64 random input patterns packed per word.
  /// words.size() == input_count(); returns one word per output.
  [[nodiscard]] std::vector<std::uint64_t> simulate(
      const std::vector<std::uint64_t>& input_words) const;

  /// Nodes reachable from outputs (dead nodes excluded); useful after
  /// rewriting. Index by node id; entry true if alive.
  [[nodiscard]] std::vector<bool> live_nodes() const;

  /// Structural equality: name, inputs, outputs and both fanin arrays. The
  /// strash table is a function of the fanins, so it is not compared.
  [[nodiscard]] bool operator==(const Aig& other) const;

  /// 64-bit hash over exactly the fields operator== compares (equal AIGs
  /// hash equal), so interning can compare hashes before structures.
  [[nodiscard]] std::uint64_t content_hash() const;

 private:
  struct FaninKey {
    Literal a;
    Literal b;
    bool operator==(const FaninKey&) const = default;
  };
  struct FaninKeyHash {
    std::size_t operator()(const FaninKey& key) const {
      std::uint64_t packed =
          (static_cast<std::uint64_t>(key.a) << 32) | key.b;
      packed ^= packed >> 33;
      packed *= 0xFF51AFD7ED558CCDULL;
      packed ^= packed >> 33;
      return static_cast<std::size_t>(packed);
    }
  };

  std::string name_;
  // Parallel arrays; index = node id. Inputs/constant store 0 fanins.
  std::vector<Literal> fanin0_;
  std::vector<Literal> fanin1_;
  std::vector<AigNode> inputs_;
  std::vector<Literal> outputs_;
  std::unordered_map<FaninKey, AigNode, FaninKeyHash> strash_;
};

}  // namespace edacloud::nl
