#pragma once
// The re-bid/migrate market policy (DESIGN.md §15): every market tick the
// simulator re-evaluates QUEUED stage tasks against current spot prices and
// either keeps them where they are, degrades them to on-demand capacity
// (the current pool's spot price no longer pays), or migrates them to a
// cheaper (family, vCPU) pool. Evicted attempts additionally re-bid upward
// before retrying. Decisions are pure functions of (market, configs,
// template, job, time) — no RNG — so the simulator keeps its
// cross-shard/thread byte-identity.

#include <cstdint>

#include "cloud/market.hpp"
#include "sched/fleet.hpp"
#include "sched/job.hpp"

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

/// Expected $ to run `job`'s current stage remainder on `pool` right now:
/// the pool's hourly rate blended across its on-demand/spot split at the
/// current spot price, times the stage's remaining runtime there.
[[nodiscard]] double market_stage_cost_usd(const cloud::Market& market,
                                           const FleetConfig& fleet,
                                           const JobTemplate& tmpl,
                                           const Job& job,
                                           const PoolKey& pool, double now);

/// The per-task tick decision. `preferred` is the pool the task is
/// currently routed to. Deterministic: candidate pools are scanned in
/// canonical (family, vcpus) order with strict-improvement tie-breaks.
[[nodiscard]] MarketDecision market_decide(const cloud::Market& market,
                                           const FleetConfig& fleet,
                                           const MarketPolicyConfig& policy,
                                           const JobTemplate& tmpl,
                                           const Job& job,
                                           const PoolKey& preferred,
                                           double now);

}  // namespace edacloud::sched
