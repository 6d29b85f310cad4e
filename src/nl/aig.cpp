#include "nl/aig.hpp"

#include <algorithm>
#include <stdexcept>

namespace edacloud::nl {

Aig::Aig(std::string name) : name_(std::move(name)) {
  // Node 0: constant false.
  fanin0_.push_back(0);
  fanin1_.push_back(0);
}

Literal Aig::add_input() {
  if (node_count() != inputs_.size() + 1) {
    throw std::logic_error("all inputs must be added before AND nodes");
  }
  fanin0_.push_back(0);
  fanin1_.push_back(0);
  const auto node = static_cast<AigNode>(node_count() - 1);
  inputs_.push_back(node);
  return make_literal(node, false);
}

void Aig::add_output(Literal lit) {
  if (literal_node(lit) >= node_count()) {
    throw std::out_of_range("output literal references missing node");
  }
  outputs_.push_back(lit);
}

Literal Aig::and_of(Literal a, Literal b) {
  if (literal_node(a) >= node_count() || literal_node(b) >= node_count()) {
    throw std::out_of_range("AND fanin references missing node");
  }
  // Constant folding and trivial cases.
  if (a == kLitFalse || b == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (b == kLitTrue) return a;
  if (a == b) return a;
  if (a == literal_not(b)) return kLitFalse;
  // Canonical operand order for structural hashing.
  if (a > b) std::swap(a, b);
  const FaninKey key{a, b};
  if (auto it = strash_.find(key); it != strash_.end()) {
    return make_literal(it->second, false);
  }
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  const auto node = static_cast<AigNode>(node_count() - 1);
  strash_.emplace(key, node);
  return make_literal(node, false);
}

Literal Aig::or_of(Literal a, Literal b) {
  return literal_not(and_of(literal_not(a), literal_not(b)));
}

Literal Aig::xor_of(Literal a, Literal b) {
  // a^b = (a & !b) | (!a & b)
  return or_of(and_of(a, literal_not(b)), and_of(literal_not(a), b));
}

Literal Aig::mux_of(Literal sel, Literal when_true, Literal when_false) {
  return or_of(and_of(sel, when_true), and_of(literal_not(sel), when_false));
}

Literal Aig::maj_of(Literal a, Literal b, Literal c) {
  return or_of(or_of(and_of(a, b), and_of(a, c)), and_of(b, c));
}

std::vector<std::uint32_t> Aig::levels() const {
  std::vector<std::uint32_t> level(node_count(), 0);
  // Node ids are already topologically ordered by construction.
  for (AigNode node = 0; node < node_count(); ++node) {
    if (!is_and(node)) continue;
    const std::uint32_t l0 = level[literal_node(fanin0_[node])];
    const std::uint32_t l1 = level[literal_node(fanin1_[node])];
    level[node] = std::max(l0, l1) + 1;
  }
  return level;
}

std::uint32_t Aig::depth() const {
  const auto level = levels();
  std::uint32_t deepest = 0;
  for (Literal out : outputs_) {
    deepest = std::max(deepest, level[literal_node(out)]);
  }
  return deepest;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
  std::vector<std::uint32_t> counts(node_count(), 0);
  for (AigNode node = 0; node < node_count(); ++node) {
    if (!is_and(node)) continue;
    ++counts[literal_node(fanin0_[node])];
    ++counts[literal_node(fanin1_[node])];
  }
  for (Literal out : outputs_) ++counts[literal_node(out)];
  return counts;
}

Csr Aig::build_forward_csr() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(and_count() * 2);
  for (AigNode node = 0; node < node_count(); ++node) {
    if (!is_and(node)) continue;
    edges.emplace_back(literal_node(fanin0_[node]), node);
    edges.emplace_back(literal_node(fanin1_[node]), node);
  }
  return build_csr(node_count(), edges);
}

std::vector<std::uint64_t> Aig::simulate(
    const std::vector<std::uint64_t>& input_words) const {
  if (input_words.size() != inputs_.size()) {
    throw std::invalid_argument("simulate: one word per input required");
  }
  std::vector<std::uint64_t> value(node_count(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    value[inputs_[i]] = input_words[i];
  }
  auto literal_value = [&value](Literal lit) {
    const std::uint64_t word = value[literal_node(lit)];
    return literal_complemented(lit) ? ~word : word;
  };
  for (AigNode node = 0; node < node_count(); ++node) {
    if (!is_and(node)) continue;
    value[node] = literal_value(fanin0_[node]) & literal_value(fanin1_[node]);
  }
  std::vector<std::uint64_t> out;
  out.reserve(outputs_.size());
  for (Literal lit : outputs_) out.push_back(literal_value(lit));
  return out;
}

std::vector<bool> Aig::live_nodes() const {
  std::vector<bool> alive(node_count(), false);
  std::vector<AigNode> stack;
  for (Literal out : outputs_) {
    const AigNode node = literal_node(out);
    if (!alive[node]) {
      alive[node] = true;
      stack.push_back(node);
    }
  }
  while (!stack.empty()) {
    const AigNode node = stack.back();
    stack.pop_back();
    if (!is_and(node)) continue;
    for (Literal fanin : {fanin0_[node], fanin1_[node]}) {
      const AigNode parent = literal_node(fanin);
      if (!alive[parent]) {
        alive[parent] = true;
        stack.push_back(parent);
      }
    }
  }
  return alive;
}

bool Aig::operator==(const Aig& other) const {
  return name_ == other.name_ && inputs_ == other.inputs_ &&
         outputs_ == other.outputs_ && fanin0_ == other.fanin0_ &&
         fanin1_ == other.fanin1_;
}

std::uint64_t Aig::content_hash() const {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  const auto add = [&hash](std::uint64_t word) {
    hash ^= word;
    hash *= 0x100000001B3ULL;
  };
  for (const char c : name_) add(static_cast<unsigned char>(c));
  for (const auto* words : {&inputs_, &outputs_, &fanin0_, &fanin1_}) {
    add(words->size());
    for (const std::uint32_t word : *words) add(word);
  }
  return hash;
}

}  // namespace edacloud::nl
