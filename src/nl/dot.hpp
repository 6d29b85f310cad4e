#pragma once
// Graphviz DOT export for AIGs — debugging and documentation aid (render
// with `dot -Tsvg`). Inputs are drawn as triangles, outputs as inverted
// houses, and complemented edges dashed.

#include <string>

#include "nl/aig.hpp"

namespace edacloud::nl {

/// DOT digraph of an AIG; complemented fanin edges are dashed.
std::string write_dot(const Aig& aig);

}  // namespace edacloud::nl
