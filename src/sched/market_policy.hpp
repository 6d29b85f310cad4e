#pragma once
// The re-bid/migrate market policy (DESIGN.md §15): every market tick the
// simulator re-evaluates QUEUED stage tasks against current spot prices and
// either keeps them where they are, degrades them to on-demand capacity
// (the current pool's spot price no longer pays), or migrates them to a
// cheaper (family, vCPU) pool. Evicted attempts additionally re-bid upward
// before retrying. Decisions are pure functions of (quote, configs,
// template, job) — no RNG — so the simulator keeps its cross-shard/thread
// byte-identity.
//
// Prices depend only on the tick time, so a tick quotes the market once
// (MarketQuote: 12 spot prices + 12 blended hourly rates) and every queued
// task's decision then costs ladder lookups and multiplies, no market calls.
// A tick first asks market_keep_is_certain once per (template, stage) in the
// queue; tasks of a certified group skip market_decide entirely.

#include <array>
#include <cstdint>
#include <vector>

#include "cloud/market.hpp"
#include "sched/fleet.hpp"
#include "sched/job.hpp"
#include "sched/shard.hpp"

namespace edacloud::sched {

struct MarketPolicyConfig {
  /// Master switch (fleet-sim --rebid). Off = the simulators never arm
  /// market ticks and never touch bids: pre-market behavior, byte-for-byte.
  bool enabled = false;
  /// Seconds between market re-evaluations of the queue.
  double interval_seconds = 300.0;
  /// An evicted attempt re-bids at old_bid * rebid_multiplier (capped at
  /// max_bid_fraction) before its backoff retry.
  double rebid_multiplier = 1.5;
  double max_bid_fraction = 1.0;
  /// Queued tasks whose pool's spot price is at or above this fraction of
  /// on-demand stop gambling: they degrade to on-demand-only (only when the
  /// fleet launches an on-demand tier at all).
  double fallback_price_fraction = 0.95;
  /// Migrate a queued task only when the candidate pool's estimated stage
  /// cost is below migrate_margin x the current pool's estimate (hysteresis
  /// against churn on small price wiggles).
  double migrate_margin = 0.85;
  /// Candidate pools whose stage runtime exceeds this multiple of the
  /// current pool's runtime are never migration targets (protects SLOs:
  /// cheap-but-slow shapes can't balloon the critical path).
  double migrate_runtime_slack = 2.0;
};

enum class MarketAction : std::uint8_t { kKeep, kFallback, kMigrate };

struct MarketDecision {
  MarketAction action = MarketAction::kKeep;
  PoolKey pool;  // migration target when action == kMigrate
};

/// Every canonical pool's prices at one instant, indexed by
/// ShardTopology::pool_index.
struct MarketQuote {
  /// Spot price as a fraction of on-demand (Market::price_at).
  std::array<double, ShardTopology::kPoolCount> spot_price{};
  /// $/hour blended across the fleet's on-demand/spot split: the on-demand
  /// slice pays list price, the spot slice pays the spot price capped at
  /// on-demand (nobody pays above list for reclaimable capacity).
  std::array<double, ShardTopology::kPoolCount> blended_hourly_usd{};
};

/// Quote all 12 pools of `market` at sim time `now`.
[[nodiscard]] MarketQuote quote_market(const cloud::Market& market,
                                       const FleetConfig& fleet, double now);

/// Expected $ to run `job`'s current stage remainder on `pool` at the
/// quoted prices: the pool's blended hourly rate times the stage's
/// remaining runtime there.
[[nodiscard]] double market_stage_cost_usd(const MarketQuote& quote,
                                           const JobTemplate& tmpl,
                                           const Job& job,
                                           const PoolKey& pool);

/// The per-task tick decision. `preferred` is the pool the task is
/// currently routed to. Deterministic: candidate pools are scanned in
/// canonical (family, vcpus) order with strict-improvement tie-breaks.
[[nodiscard]] MarketDecision market_decide(const MarketQuote& quote,
                                           const FleetConfig& fleet,
                                           const MarketPolicyConfig& policy,
                                           const JobTemplate& tmpl,
                                           const Job& job,
                                           const PoolKey& preferred);

/// market_decide's fallback test less the task's own flag: `pool`'s quoted
/// spot price has reached fallback_price_fraction, and the fleet launches
/// an on-demand tier to fall back to (an all-spot fleet would strand the
/// task forever).
[[nodiscard]] bool market_fallback_priced(const MarketQuote& quote,
                                          const FleetConfig& fleet,
                                          const MarketPolicyConfig& policy,
                                          const PoolKey& pool);

/// True only when market_decide cannot return kMigrate for any task of
/// `tmpl`'s `stage` that waits in `pool`, whatever its scale and stage
/// progress. Within one quote every candidate's runtime and cost carry the
/// same factor k = scale x (1 - stage_progress), so in exact arithmetic the
/// migrate test depends only on (template, stage, pool). The answer is
/// true when every candidate fails the runtime-slack test or the cost test
/// by a relative guard band of 1e-9, far above the few ulps market_decide's
/// products round by (DESIGN.md §15). Such a task can still fall back to
/// on-demand: that branch reads only the pool's spot price and the task's
/// require_on_demand flag.
[[nodiscard]] bool market_keep_is_certain(const MarketQuote& quote,
                                          const MarketPolicyConfig& policy,
                                          const JobTemplate& tmpl, int stage,
                                          const PoolKey& pool);

/// market_keep_is_certain for one quote and one pool, asked per queued task
/// and computed at most once per (template, stage). Keeps references to
/// its arguments, which must outlive it (one market tick).
class KeepCertificates {
 public:
  KeepCertificates(const MarketQuote& quote, const MarketPolicyConfig& policy,
                   const std::vector<JobTemplate>& templates,
                   const PoolKey& pool);

  [[nodiscard]] bool certain(int template_index, int stage);

 private:
  const MarketQuote& quote_;
  const MarketPolicyConfig& policy_;
  const std::vector<JobTemplate>& templates_;
  PoolKey pool_;
  /// Per (template, stage): 0 = not computed yet, 1 = certain, 2 = not.
  std::vector<std::uint8_t> state_;
};

}  // namespace edacloud::sched
