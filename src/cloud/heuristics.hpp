#pragma once
// A fast MCKP heuristic beside the exact frontier (cloud/mckp.hpp):
// solve_mckp_greedy starts from the cheapest item per stage and buys the
// cheapest seconds (best delta-cost / delta-time upgrade) until the
// deadline is met. O(n log n); it plans every admitted fleet job. Like the
// paper's DP it budgets whole seconds (rounded runtimes against the
// floored deadline), so its plans can run a little late or overpay; the
// ablation bench quantifies the gap against the exact frontier.

#include "cloud/mckp.hpp"

namespace edacloud::cloud {

/// Greedy incremental-efficiency heuristic (min-cost objective).
/// Feasibility is judged on the rounded budget, not the real deadline;
/// the cost may exceed the optimum.
MckpSelection solve_mckp_greedy(const std::vector<MckpStage>& stages,
                                double deadline_seconds);

/// The greedy's working storage, owned by a caller that solves many
/// instances (one per admitted fleet job).
struct MckpGreedyScratch {
  struct StageView {
    std::vector<int> order;  // item indices, time descending
    int cursor = 0;          // current position in `order`
  };
  std::vector<StageView> views;
};

/// solve_mckp_greedy written over `selection` (its choice vector reused)
/// with `scratch` as working storage: the same selection as the value
/// form, and no allocation once both have served an instance of this
/// shape.
void solve_mckp_greedy(const std::vector<MckpStage>& stages,
                       double deadline_seconds, MckpGreedyScratch& scratch,
                       MckpSelection& selection);

}  // namespace edacloud::cloud
