#include "market/market.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace edacloud::market {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

TraceMarket::TraceMarket(PriceTraceSet traces, cloud::SpotModel base,
                         double planning_bid)
    : traces_(std::move(traces)), base_(base), planning_bid_(planning_bid) {
  if (traces_.traces.empty()) {
    throw std::invalid_argument("TraceMarket needs at least one price trace");
  }
}

std::string TraceMarket::describe() const {
  double lo = kInf;
  double hi = 0.0;
  double span = 0.0;
  for (const PriceTrace& trace : traces_.traces) {
    lo = std::min(lo, trace.min_price());
    hi = std::max(hi, trace.max_price());
    if (!trace.points.empty()) {
      span = std::max(span, trace.points.back().time);
    }
  }
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "trace market: %zu shape(s), %.1fh span, price %.2f-%.2fx "
                "on-demand",
                traces_.traces.size(), span / 3600.0, lo, hi);
  return buffer;
}

double TraceMarket::price_at(perf::InstanceFamily family, int vcpus,
                             double t) const {
  const PriceTrace* trace = traces_.find(family, vcpus);
  return trace != nullptr ? trace->price_at(t) : base_.price_multiplier;
}

double TraceMarket::mean_price(perf::InstanceFamily family, int vcpus,
                               double t0, double t1) const {
  const PriceTrace* trace = traces_.find(family, vcpus);
  return trace != nullptr ? trace->mean_over(t0, t1) : base_.price_multiplier;
}

double TraceMarket::reclaim_draw(perf::InstanceFamily family, int vcpus,
                                 double t, double bid_fraction,
                                 util::Rng& rng) const {
  (void)rng;  // price-triggered: the eviction time is trace-determined
  const PriceTrace* trace = traces_.find(family, vcpus);
  if (trace == nullptr) return kInf;
  return trace->first_crossing_above(t, bid_fraction);
}

cloud::SpotModel TraceMarket::planning_view(perf::InstanceFamily family,
                                            int vcpus) const {
  const PriceTrace* trace = traces_.find(family, vcpus);
  cloud::SpotModel view = base_;
  if (trace != nullptr) {
    view.price_multiplier = trace->mean_price();
    view.interruptions_per_hour =
        trace->upward_crossings_per_hour(planning_bid_);
  }
  return view;
}

cloud::SpotModel TraceMarket::planning_view() const {
  cloud::SpotModel view = base_;
  double price_sum = 0.0;
  double rate_sum = 0.0;
  for (const PriceTrace& trace : traces_.traces) {
    price_sum += trace.mean_price();
    rate_sum += trace.upward_crossings_per_hour(planning_bid_);
  }
  const double n = static_cast<double>(traces_.traces.size());
  view.price_multiplier = price_sum / n;
  view.interruptions_per_hour = rate_sum / n;
  return view;
}

std::shared_ptr<TraceMarket> make_preset_market(const std::string& name,
                                                std::uint64_t seed,
                                                double duration_seconds) {
  PriceTraceGenConfig config;
  config.seed = seed;
  config.duration_seconds = duration_seconds;
  if (name == "drift") {
    config.drift_sigma = 0.04;
    config.spike_probability = 0.0;
  } else if (name == "storm") {
    config.drift_sigma = 0.06;
    config.spike_probability = 0.02;
    config.spike_factor = 4.0;
    config.spike_duration_seconds = 1200.0;
  } else {
    std::string names;
    for (const std::string& known : preset_market_names()) {
      if (!names.empty()) names += " | ";
      names += known;
    }
    throw std::invalid_argument("unknown market preset '" + name +
                                "' (expected " + names + ")");
  }
  return std::make_shared<TraceMarket>(generate_price_traces(config));
}

std::vector<std::string> preset_market_names() { return {"drift", "storm"}; }

void export_market_gauges(const cloud::Market& market, obs::Registry& registry,
                          const obs::Labels& labels) {
  for (const perf::InstanceFamily family :
       {perf::InstanceFamily::kGeneralPurpose,
        perf::InstanceFamily::kMemoryOptimized,
        perf::InstanceFamily::kComputeOptimized}) {
    for (std::size_t i = 0; i < perf::kVcpuOptions.size(); ++i) {
      const cloud::SpotModel view =
          market.planning_view(family, perf::kVcpuOptions[i]);
      obs::Labels shape_labels = labels;
      shape_labels.emplace_back("pool", perf::ladder_label(family, i));
      registry.gauge("market.price_mean", shape_labels)
          .set(view.price_multiplier);
      registry.gauge("market.reclaims_per_hour", shape_labels)
          .set(view.interruptions_per_hour);
    }
  }
}

}  // namespace edacloud::market
