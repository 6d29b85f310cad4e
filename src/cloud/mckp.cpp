#include "cloud/mckp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace edacloud::cloud {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The merge sorts items and totals, which a NaN would leave unordered.
void require_items(const std::vector<MckpStage>& stages) {
  for (const MckpStage& stage : stages) {
    if (stage.items.empty()) {
      throw std::invalid_argument("stage without items: " + stage.name);
    }
    for (const MckpItem& item : stage.items) {
      if (std::isnan(item.time_seconds) || std::isnan(item.cost_usd)) {
        throw std::invalid_argument("NaN time or cost in stage " +
                                    stage.name);
      }
    }
  }
}

/// A partial plan: a previous frontier point extended by one stage item.
struct Candidate {
  double time = 0.0;
  double cost = 0.0;
  std::uint64_t lex = 0;  // (parent's lexicographic rank << 32) | item
  int parent = 0;
  int item = 0;
};

/// Keeps the non-dominated candidates, time ascending and cost strictly
/// descending; of equal (time, cost) candidates the lexicographically
/// smallest choice survives.
void keep_pareto(std::vector<Candidate>& candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.lex < b.lex;
            });
  double cheapest = kInfinity;
  std::size_t kept = 0;
  for (const Candidate& candidate : candidates) {
    if (candidate.cost < cheapest) {
      cheapest = candidate.cost;
      candidates[kept++] = candidate;
    }
  }
  candidates.resize(kept);
}

}  // namespace

MckpFrontier::MckpFrontier(const std::vector<MckpStage>& stages) {
  require_items(stages);
  // Zero stages: the empty plan. rank[p] orders the points' choices
  // lexicographically, so merged candidates compare as (prefix, item).
  points_.push_back({0.0, 0.0});
  std::vector<std::uint32_t> rank{0};
  links_.reserve(stages.size());
  std::vector<Candidate> items;
  std::vector<Candidate> merged;
  std::vector<std::size_t> order;
  for (const MckpStage& stage : stages) {
    // Step 1: the stage's own non-dominated items.
    items.clear();
    for (std::size_t j = 0; j < stage.items.size(); ++j) {
      const MckpItem& item = stage.items[j];
      items.push_back({item.time_seconds, item.cost_usd, j, 0,
                       static_cast<int>(j)});
    }
    keep_pareto(items);
    // Step 2: every frontier point extended by every surviving item, with
    // the totals accumulated left to right as fixed_choice does.
    merged.clear();
    for (std::size_t p = 0; p < points_.size(); ++p) {
      for (const Candidate& item : items) {
        merged.push_back({points_[p].deadline_seconds + item.time,
                          points_[p].cost_usd + item.cost,
                          (std::uint64_t{rank[p]} << 32) |
                              static_cast<std::uint32_t>(item.item),
                          static_cast<int>(p), item.item});
      }
    }
    keep_pareto(merged);

    points_.resize(merged.size());
    std::vector<Link>& links = links_.emplace_back(merged.size());
    for (std::size_t p = 0; p < merged.size(); ++p) {
      points_[p] = {merged[p].time, merged[p].cost};
      links[p] = {merged[p].parent, merged[p].item};
    }
    order.resize(merged.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return merged[a].lex < merged[b].lex;
    });
    rank.resize(merged.size());
    for (std::size_t r = 0; r < order.size(); ++r) {
      rank[order[r]] = static_cast<std::uint32_t>(r);
    }
  }
}

MckpSelection MckpFrontier::selection(std::size_t point) const {
  MckpSelection selection;
  selection.feasible = true;
  selection.choice.resize(links_.size());
  std::size_t at = point;
  for (std::size_t l = links_.size(); l-- > 0;) {
    selection.choice[l] = links_[l][at].item;
    at = static_cast<std::size_t>(links_[l][at].parent);
  }
  selection.total_time_seconds = points_[point].deadline_seconds;
  selection.total_cost_usd = points_[point].cost_usd;
  return selection;
}

MckpSelection MckpFrontier::cheapest_within(double deadline_seconds) const {
  // Cost falls along the frontier: the cheapest on-time plan is the last
  // point that meets the deadline.
  const auto end = std::partition_point(
      points_.begin(), points_.end(), [&](const ParetoPoint& point) {
        return point.deadline_seconds <= deadline_seconds;
      });
  if (end == points_.begin()) return MckpSelection{};
  return selection(static_cast<std::size_t>(end - points_.begin()) - 1);
}

MckpSelection MckpFrontier::fastest_within(double budget_usd) const {
  // Time rises along the frontier: the fastest plan within budget is the
  // first point that fits it.
  const auto first = std::partition_point(
      points_.begin(), points_.end(), [&](const ParetoPoint& point) {
        return !(point.cost_usd <= budget_usd);
      });
  if (first == points_.end()) return MckpSelection{};
  return selection(static_cast<std::size_t>(first - points_.begin()));
}

MckpSelection solve_mckp(const std::vector<MckpStage>& stages,
                         double deadline_seconds) {
  return MckpFrontier(stages).cheapest_within(deadline_seconds);
}

MckpSelection solve_mckp_brute_force(const std::vector<MckpStage>& stages,
                                     double deadline_seconds) {
  for (const MckpStage& stage : stages) {
    if (stage.items.empty()) {
      throw std::invalid_argument("stage without items: " + stage.name);
    }
  }
  // Choices in lexicographic order (the last stage turns fastest), so with
  // strict comparisons the first of equal plans is the smallest choice.
  MckpSelection best;
  std::vector<int> choice(stages.size(), 0);
  for (;;) {
    double time = 0.0;
    double cost = 0.0;
    for (std::size_t l = 0; l < stages.size(); ++l) {
      const MckpItem& item =
          stages[l].items[static_cast<std::size_t>(choice[l])];
      time += item.time_seconds;
      cost += item.cost_usd;
    }
    if (time <= deadline_seconds &&
        (!best.feasible || cost < best.total_cost_usd ||
         (cost == best.total_cost_usd && time < best.total_time_seconds))) {
      best.feasible = true;
      best.choice = choice;
      best.total_time_seconds = time;
      best.total_cost_usd = cost;
    }
    std::size_t l = stages.size();
    while (l > 0 && ++choice[l - 1] ==
                        static_cast<int>(stages[l - 1].items.size())) {
      choice[--l] = 0;
    }
    if (l == 0) return best;
  }
}

MckpSelection fixed_choice(const std::vector<MckpStage>& stages, int index) {
  MckpSelection selection;
  selection.feasible = true;
  for (const MckpStage& stage : stages) {
    const int j = std::clamp<int>(
        index, 0, static_cast<int>(stage.items.size()) - 1);
    selection.choice.push_back(j);
    const MckpItem& item = stage.items[static_cast<std::size_t>(j)];
    selection.total_time_seconds += item.time_seconds;
    selection.total_cost_usd += item.cost_usd;
  }
  return selection;
}

double fastest_completion_seconds(const std::vector<MckpStage>& stages) {
  double total = 0.0;
  for (const MckpStage& stage : stages) {
    double fastest = kInfinity;
    for (const MckpItem& item : stage.items) {
      fastest = std::min(fastest, item.time_seconds);
    }
    if (fastest == kInfinity) fastest = 0.0;
    total += fastest;
  }
  return total;
}

std::vector<ParetoPoint> cost_deadline_frontier(
    const std::vector<MckpStage>& stages) {
  if (stages.empty()) return {};
  return MckpFrontier(stages).points();
}

MckpSelection fastest_within_budget(const std::vector<MckpStage>& stages,
                                    double budget_usd) {
  return MckpFrontier(stages).fastest_within(budget_usd);
}

}  // namespace edacloud::cloud
