#pragma once
// TraceMarket: the cloud::Market implementation backed by replayable
// price traces (price_trace.hpp). Reclaims are *price-triggered* — a spot
// VM bidding b is evicted at the first instant its shape's price crosses
// strictly above b — so evictions cluster around price spikes instead of
// arriving as a flat exponential. reclaim_draw consumes NO RNG draws:
// the eviction time is a pure function of (trace, t, bid), which trivially
// satisfies the simulators' cross-shard/thread determinism contract.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/market.hpp"
#include "market/price_trace.hpp"
#include "obs/metrics.hpp"

namespace edacloud::market {

class TraceMarket final : public cloud::Market {
 public:
  /// `base` supplies the non-price spot parameters (restart overhead) and
  /// the fallback price for shapes the trace set does not cover;
  /// `planning_bid` is the bid fraction the planning views assume when
  /// estimating reclaim rates (typically the fleet's default bid).
  explicit TraceMarket(PriceTraceSet traces, cloud::SpotModel base = {},
                       double planning_bid = 0.5);

  [[nodiscard]] std::string name() const override { return "trace"; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] double price_at(perf::InstanceFamily family, int vcpus,
                                double t) const override;
  [[nodiscard]] double mean_price(perf::InstanceFamily family, int vcpus,
                                  double t0, double t1) const override;
  [[nodiscard]] double reclaim_draw(perf::InstanceFamily family, int vcpus,
                                    double t, double bid_fraction,
                                    util::Rng& rng) const override;
  [[nodiscard]] cloud::SpotModel planning_view(perf::InstanceFamily family,
                                               int vcpus) const override;
  [[nodiscard]] cloud::SpotModel planning_view() const override;

  void set_planning_bid(double bid) { planning_bid_ = bid; }
  [[nodiscard]] const PriceTraceSet& traces() const { return traces_; }

 private:
  PriceTraceSet traces_;
  cloud::SpotModel base_;
  double planning_bid_ = 0.5;
};

/// Seeded preset markets for the CLI and benches:
///   "drift" — gentle per-shape random-walk drift, no spikes;
///   "storm" — drift plus frequent 4x spike regimes (the "price storm").
/// Throws std::invalid_argument on an unknown name; the message enumerates
/// the valid names. `duration_seconds` is how much weather to generate —
/// prices hold flat past the end of the trace.
std::shared_ptr<TraceMarket> make_preset_market(const std::string& name,
                                                std::uint64_t seed,
                                                double duration_seconds);
[[nodiscard]] std::vector<std::string> preset_market_names();

/// Export market.* gauges (per-shape mean price and expected reclaim rate
/// at the planning bid, labelled by `pool`) into `registry` —
/// deterministic, so exports stay byte-comparable across shard and thread
/// counts.
void export_market_gauges(const cloud::Market& market,
                          obs::Registry& registry,
                          const obs::Labels& labels = {});

}  // namespace edacloud::market
