#include "nl/dot.hpp"

#include <sstream>

namespace edacloud::nl {

std::string write_dot(const Aig& aig) {
  std::ostringstream out;
  out << "digraph \"" << (aig.name().empty() ? "aig" : aig.name())
      << "\" {\n  rankdir=LR;\n  node [fontsize=10];\n";
  out << "  n0 [shape=plaintext, label=\"0\"];\n";
  for (AigNode input : aig.inputs()) {
    out << "  n" << input << " [shape=triangle, label=\"i" << input
        << "\"];\n";
  }
  auto edge = [&out](Literal lit, AigNode to) {
    out << "  n" << literal_node(lit) << " -> n" << to;
    if (literal_complemented(lit)) out << " [style=dashed]";
    out << ";\n";
  };
  for (AigNode node = 0; node < aig.node_count(); ++node) {
    if (!aig.is_and(node)) continue;
    out << "  n" << node << " [shape=ellipse, label=\"&" << node << "\"];\n";
    edge(aig.fanin0(node), node);
    edge(aig.fanin1(node), node);
  }
  for (std::size_t i = 0; i < aig.outputs().size(); ++i) {
    const Literal lit = aig.outputs()[i];
    out << "  o" << i << " [shape=invhouse, label=\"o" << i << "\"];\n";
    out << "  n" << literal_node(lit) << " -> o" << i;
    if (literal_complemented(lit)) out << " [style=dashed]";
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace edacloud::nl
