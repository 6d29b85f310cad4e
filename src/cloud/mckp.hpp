#pragma once
// Multi-choice knapsack deployment optimization (§III-C). Each flow stage
// offers one item per candidate VM configuration (runtime, cost); exactly
// one item per stage must be picked, the total runtime must respect the
// deadline, and the total cost is minimized (the prose semantics the
// paper's Table I and Fig. 6 describe; see DESIGN.md "Objective-function
// note").
//
// One exact solver answers every question: MckpFrontier, the (total time,
// total cost) Pareto frontier built by the Nemhauser–Ullmann (1969) list
// merge — a stage-wise dynamic program over Pareto sets on the real
// runtimes, so its cost does not grow with the deadline. The paper's own
// solver, the Dudzinski–Walukiewicz DP over integer seconds with both of
// its objectives, lives in bench/ablation_mckp.cpp. A brute-force
// reference on real runtimes backs the tests.

#include <string>
#include <vector>

namespace edacloud::cloud {

struct MckpItem {
  double time_seconds = 0.0;
  double cost_usd = 0.0;
  std::string label;  // e.g. "general-purpose-4vcpu"
};

struct MckpStage {
  std::string name;  // "synthesis", "placement", ...
  std::vector<MckpItem> items;
};

struct MckpSelection {
  bool feasible = false;
  std::vector<int> choice;  // item index per stage (empty if infeasible)
  double total_time_seconds = 0.0;
  double total_cost_usd = 0.0;
};

/// One point of the cost-vs-deadline trade-off curve.
struct ParetoPoint {
  double deadline_seconds = 0.0;  // smallest deadline achieving this cost
  double cost_usd = 0.0;          // minimum cost within that deadline
};

/// The exact non-dominated (total time, total cost) plans of an instance,
/// with the choice behind each. Totals are the left-to-right sums
/// fixed_choice uses, compared exactly, so a fixed plan that meets a
/// deadline is on the frontier or dominated by a point of it. Ties go to
/// the lowest cost, then the lowest time, then the lexicographically
/// smallest choice. Throws std::invalid_argument on a stage without items
/// or an item whose time or cost is NaN.
class MckpFrontier {
 public:
  explicit MckpFrontier(const std::vector<MckpStage>& stages);

  /// Time strictly ascending, cost strictly descending; the one point
  /// (0, 0) for an instance without stages.
  [[nodiscard]] const std::vector<ParetoPoint>& points() const {
    return points_;
  }

  /// The cheapest plan whose total time is <= deadline_seconds
  /// (infeasible when even the fastest plan is late).
  [[nodiscard]] MckpSelection cheapest_within(double deadline_seconds) const;

  /// The fastest plan whose total cost is <= budget_usd (infeasible when
  /// even the cheapest plan is over budget).
  [[nodiscard]] MckpSelection fastest_within(double budget_usd) const;

 private:
  struct Link {
    int parent = 0;  // point index on the previous stage's frontier
    int item = 0;    // item index within this stage
  };

  [[nodiscard]] MckpSelection selection(std::size_t point) const;

  std::vector<ParetoPoint> points_;
  std::vector<std::vector<Link>> links_;  // per stage, per frontier point
};

/// The cheapest plan meeting the deadline: MckpFrontier(stages)
/// .cheapest_within(deadline_seconds). No stages is a feasible empty plan.
MckpSelection solve_mckp(const std::vector<MckpStage>& stages,
                         double deadline_seconds);

/// Exhaustive reference over real runtimes and the real deadline, with the
/// frontier's tie rule (exponential; tests and small instances only).
MckpSelection solve_mckp_brute_force(const std::vector<MckpStage>& stages,
                                     double deadline_seconds);

/// Fixed-choice baselines: pick items[index] in every stage (clamped to the
/// stage's item count). index 0 = under-provisioning (1 vCPU everywhere);
/// last = over-provisioning (8 vCPUs everywhere).
MckpSelection fixed_choice(const std::vector<MckpStage>& stages, int index);

/// The fastest possible completion time (every stage at its quickest item);
/// deadlines below this are infeasible ("NA" in Table I).
double fastest_completion_seconds(const std::vector<MckpStage>& stages);

/// The frontier's points: from the fastest completion to the earliest
/// deadline at which the global cost minimum is reached (none for an
/// instance without stages).
std::vector<ParetoPoint> cost_deadline_frontier(
    const std::vector<MckpStage>& stages);

/// The dual planning problem: the fastest completion achievable WITHIN a
/// cost budget (teams often have a budget rather than a deadline).
MckpSelection fastest_within_budget(const std::vector<MckpStage>& stages,
                                    double budget_usd);

}  // namespace edacloud::cloud
