#include "sched/market_policy.hpp"

#include <algorithm>

#include "perf/vm.hpp"

namespace edacloud::sched {

namespace {

double stage_runtime_seconds(const JobTemplate& tmpl, const Job& job,
                             const PoolKey& pool) {
  const double full = tmpl.runtime(static_cast<core::JobKind>(job.stage),
                                   pool.family, pool.vcpus) *
                      job.scale;
  return full * (1.0 - job.stage_progress);
}

double stage_cost_usd(const MarketQuote& quote, int pool_index,
                      double runtime) {
  return quote.blended_hourly_usd[static_cast<std::size_t>(pool_index)] *
         runtime / 3600.0;
}

}  // namespace

MarketQuote quote_market(const cloud::Market& market, const FleetConfig& fleet,
                         double now) {
  MarketQuote quote;
  const double sf = std::clamp(fleet.spot_fraction, 0.0, 1.0);
  for (int index = 0; index < ShardTopology::kPoolCount; ++index) {
    const PoolKey pool = ShardTopology::pool_at(index);
    const auto i = static_cast<std::size_t>(index);
    quote.spot_price[i] = market.price_at(pool.family, pool.vcpus, now);
    const double hourly = fleet.catalog.hourly_usd(pool.family, pool.vcpus);
    const double price = std::min(quote.spot_price[i], 1.0);
    quote.blended_hourly_usd[i] = hourly * ((1.0 - sf) + sf * price);
  }
  return quote;
}

double market_stage_cost_usd(const MarketQuote& quote, const JobTemplate& tmpl,
                             const Job& job, const PoolKey& pool) {
  return stage_cost_usd(quote, ShardTopology::pool_index(pool),
                        stage_runtime_seconds(tmpl, job, pool));
}

MarketDecision market_decide(const MarketQuote& quote,
                             const FleetConfig& fleet,
                             const MarketPolicyConfig& policy,
                             const JobTemplate& tmpl, const Job& job,
                             const PoolKey& preferred) {
  MarketDecision decision;
  if (job.done()) return decision;

  const int preferred_index = ShardTopology::pool_index(preferred);
  const double current_runtime = stage_runtime_seconds(tmpl, job, preferred);
  const double current_cost =
      stage_cost_usd(quote, preferred_index, current_runtime);

  // Scan the 12 canonical pools in (family, vcpus) order; a candidate must
  // beat the incumbent's cost by the hysteresis margin without stretching
  // the stage past the runtime slack. Strict `<` on cost keeps the first
  // (canonical-order) winner on ties — deterministic across engines.
  double best_cost = policy.migrate_margin * current_cost;
  for (int index = 0; index < ShardTopology::kPoolCount; ++index) {
    if (index == preferred_index) continue;
    const PoolKey candidate = ShardTopology::pool_at(index);
    const double runtime = stage_runtime_seconds(tmpl, job, candidate);
    if (runtime > policy.migrate_runtime_slack * current_runtime) continue;
    const double cost = stage_cost_usd(quote, index, runtime);
    if (cost < best_cost) {
      best_cost = cost;
      decision.action = MarketAction::kMigrate;
      decision.pool = candidate;
    }
  }
  if (decision.action == MarketAction::kMigrate) return decision;

  // No cheaper home: if the incumbent pool's spot price has risen to
  // (nearly) on-demand, stop gambling and pin the task to on-demand
  // capacity — but only when the fleet launches an on-demand tier at all;
  // an all-spot fleet would strand the task forever.
  if (!job.require_on_demand && fleet.spot_fraction < 1.0 &&
      quote.spot_price[static_cast<std::size_t>(preferred_index)] >=
          policy.fallback_price_fraction) {
    decision.action = MarketAction::kFallback;
  }
  return decision;
}

}  // namespace edacloud::sched
