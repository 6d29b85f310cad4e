#pragma once
// Fast MCKP heuristics, complementing the exact DP:
//  - dominance_filter: classical MCKP preprocessing — drop items that are
//    slower AND costlier than another item of the same stage (they can
//    never appear in an optimal min-cost selection).
//  - solve_mckp_greedy: start from the cheapest item per stage and buy the
//    cheapest seconds (best delta-cost / delta-time upgrade) until the
//    deadline is met. O(n log n), no pseudo-polynomial time budget; the
//    exact DP becomes expensive when deadlines stretch into weeks, which is
//    exactly when teams want an instant answer.
// The ablation bench quantifies the heuristic's optimality gap.

#include "cloud/mckp.hpp"

namespace edacloud::cloud {

/// Remove dominated items (and keep only the efficient (time, cost)
/// frontier) from every stage. Selection indices returned by solvers on
/// the filtered instance refer to the filtered item lists.
std::vector<MckpStage> dominance_filter(const std::vector<MckpStage>& stages);

/// Greedy incremental-efficiency heuristic (min-cost objective).
/// Feasibility matches the DP exactly (it can always reach the all-fastest
/// configuration); the cost may exceed the optimum.
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
