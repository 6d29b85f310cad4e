#include "cloud/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace edacloud::cloud {

MckpSelection solve_mckp_greedy(const std::vector<MckpStage>& stages,
                                double deadline_seconds) {
  MckpGreedyScratch scratch;
  MckpSelection selection;
  solve_mckp_greedy(stages, deadline_seconds, scratch, selection);
  return selection;
}

void solve_mckp_greedy(const std::vector<MckpStage>& stages,
                       double deadline_seconds, MckpGreedyScratch& scratch,
                       MckpSelection& selection) {
  selection.feasible = false;
  selection.choice.clear();
  selection.total_time_seconds = 0.0;
  selection.total_cost_usd = 0.0;
  if (stages.empty()) {
    selection.feasible = true;
    return;
  }
  // Per-stage items sorted slow-to-fast (upgrades walk toward faster).
  std::vector<MckpGreedyScratch::StageView>& views = scratch.views;
  views.resize(stages.size());
  for (std::size_t l = 0; l < stages.size(); ++l) {
    const auto& items = stages[l].items;
    if (items.empty()) return;  // infeasible: no items
    views[l].order.resize(items.size());
    for (std::size_t j = 0; j < items.size(); ++j) {
      views[l].order[j] = static_cast<int>(j);
    }
    std::sort(views[l].order.begin(), views[l].order.end(),
              [&items](int a, int b) {
                if (items[a].time_seconds != items[b].time_seconds) {
                  return items[a].time_seconds > items[b].time_seconds;
                }
                return items[a].cost_usd < items[b].cost_usd;
              });
    // Start from the cheapest item overall (not necessarily the slowest).
    int cheapest = 0;
    for (std::size_t p = 0; p < views[l].order.size(); ++p) {
      if (items[views[l].order[p]].cost_usd <
          items[views[l].order[cheapest]].cost_usd) {
        cheapest = static_cast<int>(p);
      }
    }
    views[l].cursor = cheapest;
  }

  auto item_at = [&](std::size_t l, int pos) -> const MckpItem& {
    return stages[l].items[static_cast<std::size_t>(views[l].order[pos])];
  };

  double total_time = 0.0;
  for (std::size_t l = 0; l < stages.size(); ++l) {
    total_time += std::llround(item_at(l, views[l].cursor).time_seconds);
  }

  const double budget = std::floor(deadline_seconds);
  while (total_time > budget) {
    // Best upgrade: smallest added cost per saved second.
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best_stage = stages.size();
    for (std::size_t l = 0; l < stages.size(); ++l) {
      const int pos = views[l].cursor;
      if (pos + 1 >= static_cast<int>(views[l].order.size())) continue;
      const MckpItem& current = item_at(l, pos);
      const MckpItem& next = item_at(l, pos + 1);
      const double saved = current.time_seconds - next.time_seconds;
      if (saved <= 0.0) continue;
      const double ratio =
          std::max(0.0, next.cost_usd - current.cost_usd) / saved;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_stage = l;
      }
    }
    if (best_stage == stages.size()) {
      return;  // no upgrade available: infeasible
    }
    const double before =
        item_at(best_stage, views[best_stage].cursor).time_seconds;
    ++views[best_stage].cursor;
    const double after =
        item_at(best_stage, views[best_stage].cursor).time_seconds;
    total_time += std::llround(after) - std::llround(before);
  }

  // Post-pass: undo upgrades that turned out unnecessary (cheapest first).
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t l = 0; l < stages.size(); ++l) {
      const int pos = views[l].cursor;
      if (pos == 0) continue;
      const MckpItem& current = item_at(l, pos);
      const MckpItem& previous = item_at(l, pos - 1);
      if (previous.cost_usd >= current.cost_usd) continue;  // not a saving
      const double slack =
          budget - total_time +
          std::llround(current.time_seconds) -
          std::llround(previous.time_seconds);
      if (slack >= 0.0) {
        --views[l].cursor;
        total_time += std::llround(previous.time_seconds) -
                      std::llround(current.time_seconds);
        improved = true;
      }
    }
  }

  selection.feasible = true;
  for (std::size_t l = 0; l < stages.size(); ++l) {
    const int item_index = views[l].order[views[l].cursor];
    selection.choice.push_back(item_index);
    const MckpItem& item =
        stages[l].items[static_cast<std::size_t>(item_index)];
    selection.total_time_seconds += item.time_seconds;
    selection.total_cost_usd += item.cost_usd;
  }
}

}  // namespace edacloud::cloud
