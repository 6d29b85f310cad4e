// Tests for the dynamic spot-price market layer (DESIGN.md §15,
// docs/MARKETS.md): price-trace semantics and canonical-format round-trips,
// the StaticMarket bit-compat adapter, price-triggered eviction against
// bids, the traffic-mix provider registry, and the hard contract that a
// moving market keeps the sharded engine byte-identical across shard and
// thread counts — with the re-bid/migrate policy live.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/market.hpp"
#include "market/market.hpp"
#include "market/price_trace.hpp"
#include "obs/metrics.hpp"
#include "sched/load_gen.hpp"
#include "sched/market_policy.hpp"
#include "sched/sharded_simulator.hpp"
#include "util/rng.hpp"

namespace edacloud {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A hand-built step trace: 0.3 until t=1000, 0.9 until t=2000, then 0.2.
market::PriceTrace step_trace() {
  market::PriceTrace trace;
  trace.family = perf::InstanceFamily::kGeneralPurpose;
  trace.vcpus = 4;
  trace.points = {{0.0, 0.3}, {1000.0, 0.9}, {2000.0, 0.2}};
  return trace;
}

TEST(PriceTraceTest, PriceAtIsPiecewiseConstantWithFlatEnds) {
  const market::PriceTrace trace = step_trace();
  EXPECT_DOUBLE_EQ(trace.price_at(-50.0), 0.3);  // flat extension left
  EXPECT_DOUBLE_EQ(trace.price_at(0.0), 0.3);
  EXPECT_DOUBLE_EQ(trace.price_at(999.9), 0.3);
  EXPECT_DOUBLE_EQ(trace.price_at(1000.0), 0.9);
  EXPECT_DOUBLE_EQ(trace.price_at(1999.9), 0.9);
  EXPECT_DOUBLE_EQ(trace.price_at(2000.0), 0.2);
  EXPECT_DOUBLE_EQ(trace.price_at(1e9), 0.2);  // flat extension right
}

TEST(PriceTraceTest, MeanOverIntegratesTheStepFunction) {
  const market::PriceTrace trace = step_trace();
  // [500, 1500]: 500s at 0.3 + 500s at 0.9 = 0.6 mean.
  EXPECT_NEAR(trace.mean_over(500.0, 1500.0), 0.6, 1e-12);
  // Degenerate window: the instantaneous price.
  EXPECT_DOUBLE_EQ(trace.mean_over(1200.0, 1200.0), 0.9);
}

TEST(PriceTraceTest, FirstCrossingAboveMatchesBidSemantics) {
  const market::PriceTrace trace = step_trace();
  // Bid 0.5 at t=0: the price first exceeds it at the t=1000 step.
  EXPECT_DOUBLE_EQ(trace.first_crossing_above(0.0, 0.5), 1000.0);
  // Already above the bid: evict immediately.
  EXPECT_DOUBLE_EQ(trace.first_crossing_above(1500.0, 0.5), 0.0);
  // Bid at the peak: strict crossing never happens.
  EXPECT_EQ(trace.first_crossing_above(0.0, 0.9), kInf);
  // After the last step the price holds flat below the bid forever.
  EXPECT_EQ(trace.first_crossing_above(2500.0, 0.5), kInf);
}

TEST(PriceTraceTest, GenerationIsDeterministicAndBounded) {
  market::PriceTraceGenConfig config;
  config.seed = 42;
  config.duration_seconds = 6 * 3600.0;
  config.spike_probability = 0.02;
  const market::PriceTraceSet a = market::generate_price_traces(config);
  const market::PriceTraceSet b = market::generate_price_traces(config);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  ASSERT_EQ(a.traces.size(), 12u);  // 3 families x 4 sizes
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    ASSERT_EQ(a.traces[i].points.size(), b.traces[i].points.size());
    for (std::size_t j = 0; j < a.traces[i].points.size(); ++j) {
      EXPECT_EQ(a.traces[i].points[j].time, b.traces[i].points[j].time);
      EXPECT_EQ(a.traces[i].points[j].price, b.traces[i].points[j].price);
    }
    EXPECT_GE(a.traces[i].min_price(), config.floor_price);
    EXPECT_LE(a.traces[i].max_price(), config.cap_price * 1.0 + 1e-12);
  }
}

TEST(PriceTraceTest, WriteParseRoundTripsExactly) {
  market::PriceTraceGenConfig config;
  config.seed = 9;
  config.duration_seconds = 2 * 3600.0;
  config.spike_probability = 0.05;
  const market::PriceTraceSet original = market::generate_price_traces(config);
  const std::string text = market::write_price_traces(original);
  const market::PriceTraceSet parsed = market::parse_price_traces(text);
  ASSERT_EQ(parsed.traces.size(), original.traces.size());
  for (std::size_t i = 0; i < original.traces.size(); ++i) {
    EXPECT_EQ(parsed.traces[i].family, original.traces[i].family);
    EXPECT_EQ(parsed.traces[i].vcpus, original.traces[i].vcpus);
    ASSERT_EQ(parsed.traces[i].points.size(), original.traces[i].points.size());
    for (std::size_t j = 0; j < original.traces[i].points.size(); ++j) {
      // Shortest-round-trip formatting: parse(write(x)) == x bit-for-bit.
      EXPECT_EQ(parsed.traces[i].points[j].time,
                original.traces[i].points[j].time);
      EXPECT_EQ(parsed.traces[i].points[j].price,
                original.traces[i].points[j].price);
    }
  }
}

TEST(PriceTraceTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(market::parse_price_traces("not a trace"),
               std::invalid_argument);
  EXPECT_THROW(market::parse_price_traces("edacloud-price-trace v1\n"
                                          "trace general 4\n"
                                          "100 0.5\n"
                                          "50 0.4\n"),  // times must ascend
               std::invalid_argument);
  EXPECT_THROW(market::parse_price_traces("edacloud-price-trace v1\n"
                                          "trace general 4\n"
                                          "0 -0.5\n"),  // price must be > 0
               std::invalid_argument);
}

TEST(StaticMarketTest, ReproducesSpotModelBitForBit) {
  cloud::SpotModel spot;
  spot.price_multiplier = 0.41;
  spot.interruptions_per_hour = 0.7;
  const cloud::StaticMarket static_market(spot);

  EXPECT_EQ(static_market.price_at(perf::InstanceFamily::kComputeOptimized, 8,
                                   1234.5),
            spot.price_multiplier);
  EXPECT_EQ(static_market.mean_price(perf::InstanceFamily::kGeneralPurpose, 1,
                                     0.0, 9999.0),
            spot.price_multiplier);

  // Same seed, same draw sequence: the adapter must consume the RNG exactly
  // like the raw model, or pre-market runs would not replay bit-for-bit.
  util::Rng raw(77);
  util::Rng adapted(77);
  for (int i = 0; i < 32; ++i) {
    const double expected = spot.sample_time_to_interruption(raw);
    const double actual = static_market.reclaim_draw(
        perf::InstanceFamily::kMemoryOptimized, 2, 100.0 * i, 0.5, adapted);
    EXPECT_EQ(actual, expected);
  }
}

TEST(StaticMarketTest, EnsureMarketNormalizesNullToStatic) {
  cloud::SpotModel spot;
  spot.price_multiplier = 0.27;
  const auto market = cloud::ensure_market(nullptr, spot);
  ASSERT_NE(market, nullptr);
  EXPECT_EQ(market->name(), "static");
  EXPECT_EQ(market->planning_view().price_multiplier, spot.price_multiplier);
  // An existing market passes through untouched.
  EXPECT_EQ(cloud::ensure_market(market, spot), market);
}

TEST(TraceMarketTest, ReclaimDrawIsPriceTriggeredAndConsumesNoRng) {
  market::PriceTraceSet set;
  set.traces = {step_trace()};
  const market::TraceMarket traced(set);

  util::Rng rng(5);
  const std::uint64_t before = rng();
  util::Rng replay(5);

  // Bid 0.5 at t=0: evicted when the 0.9 step arrives, in 1000 s.
  EXPECT_DOUBLE_EQ(
      traced.reclaim_draw(perf::InstanceFamily::kGeneralPurpose, 4, 0.0, 0.5,
                          replay),
      1000.0);
  // Bid above the whole trace: never reclaimed.
  EXPECT_EQ(traced.reclaim_draw(perf::InstanceFamily::kGeneralPurpose, 4, 0.0,
                                1.0, replay),
            kInf);
  // The draw consumed no randomness — the stream is exactly where it was.
  EXPECT_EQ(replay(), before);
}

TEST(TraceMarketTest, PresetMarketsAreSeededAndNamed) {
  const auto storm = market::make_preset_market("storm", 3, 4 * 3600.0);
  const auto storm_again = market::make_preset_market("storm", 3, 4 * 3600.0);
  ASSERT_EQ(storm->traces().traces.size(),
            storm_again->traces().traces.size());
  for (std::size_t i = 0; i < storm->traces().traces.size(); ++i) {
    EXPECT_EQ(storm->traces().traces[i].points.size(),
              storm_again->traces().traces[i].points.size());
  }
  EXPECT_THROW(market::make_preset_market("hurricane", 1, 3600.0),
               std::invalid_argument);
  try {
    market::make_preset_market("hurricane", 1, 3600.0);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // The error enumerates the valid preset vocabulary.
    EXPECT_NE(what.find("drift"), std::string::npos);
    EXPECT_NE(what.find("storm"), std::string::npos);
  }
}

TEST(TrafficMixRegistryTest, BuiltinsAreRegisteredAndErrorsEnumerate) {
  const std::vector<std::string> names = sched::traffic_mix_names();
  for (const char* expected :
       {"uniform", "skewed", "bursty", "diurnal", "flash"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(sched::mix_by_name("diurnal").sine_period_seconds, 86400.0);
  EXPECT_GT(sched::mix_by_name("flash").burst_factor, 1.0);
  try {
    sched::mix_by_name("lumpy");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("diurnal"), std::string::npos);
    EXPECT_NE(what.find("flash"), std::string::npos);
    EXPECT_NE(what.find("uniform"), std::string::npos);
  }
}

TEST(TrafficMixRegistryTest, CustomMixesRegisterAndResolve) {
  sched::register_traffic_mix("weekend-lull", [] {
    sched::TrafficMix mix;
    mix.name = "weekend-lull";
    mix.weights = {1.0, 1.0, 1.0};
    mix.sine_amplitude = 0.3;
    mix.sine_period_seconds = 7 * 86400.0;
    return mix;
  });
  const sched::TrafficMix mix = sched::mix_by_name("weekend-lull");
  EXPECT_EQ(mix.name, "weekend-lull");
  EXPECT_DOUBLE_EQ(mix.sine_amplitude, 0.3);
}

TEST(MarketPolicyTest, StageCostScalesWithRemainingCheckpointCredit) {
  // The migrate decision prices only the *remaining* stage work, so a job
  // that checkpointed half its stage pays half — checkpoint credit is
  // preserved through the cost model (and through migration itself, which
  // carries stage_progress in the Job it hands off).
  const auto& templates = sched::builtin_templates();
  sched::FleetConfig fleet;
  fleet.market = cloud::ensure_market(nullptr, fleet.spot);
  sched::Job fresh;
  fresh.template_index = 0;
  sched::Job half = fresh;
  half.stage_progress = 0.5;
  const sched::PoolKey pool{perf::InstanceFamily::kGeneralPurpose, 4};
  const sched::MarketQuote quote =
      sched::quote_market(*fleet.market, fleet, 0.0);
  const double fresh_cost =
      sched::market_stage_cost_usd(quote, templates[0], fresh, pool);
  const double half_cost =
      sched::market_stage_cost_usd(quote, templates[0], half, pool);
  EXPECT_GT(fresh_cost, 0.0);
  EXPECT_NEAR(half_cost, 0.5 * fresh_cost, 1e-12);
}

TEST(MarketPolicyTest, DecisionsAreDeterministicPureFunctions) {
  const auto storm = market::make_preset_market("storm", 11, 8 * 3600.0);
  const auto& templates = sched::builtin_templates();
  sched::FleetConfig fleet;
  fleet.spot_fraction = 0.6;
  fleet.market = storm;
  sched::MarketPolicyConfig policy;
  policy.enabled = true;
  sched::Job job;
  job.template_index = 1;
  const sched::PoolKey pool{perf::InstanceFamily::kMemoryOptimized, 8};
  for (double t : {0.0, 1800.0, 7200.0, 20000.0}) {
    const sched::MarketDecision a = sched::market_decide(
        sched::quote_market(*storm, fleet, t), fleet, policy, templates[1],
        job, pool);
    const sched::MarketDecision b = sched::market_decide(
        sched::quote_market(*storm, fleet, t), fleet, policy, templates[1],
        job, pool);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.pool, b.pool);
  }
}

TEST(MarketPolicyTest, QuotedDecisionMatchesPerCandidateCost) {
  // The tick quotes the market once and decides every queued task from the
  // quote. Reference: price each candidate straight from the market, as a
  // per-task rule would, and apply the decision rule candidate by
  // candidate. Costs must agree to the bit, decisions exactly.
  const auto storm = market::make_preset_market("storm", 11, 8 * 3600.0);
  const auto& templates = sched::builtin_templates();
  sched::FleetConfig fleet;
  fleet.spot_fraction = 0.6;
  fleet.market = storm;
  const sched::MarketPolicyConfig policy;

  std::vector<sched::Job> jobs(3);
  jobs[0].template_index = 1;  // fresh
  jobs[1].template_index = 2;  // half-checkpointed, larger than nominal
  jobs[1].stage = 1;
  jobs[1].stage_progress = 0.5;
  jobs[1].scale = 1.3;
  jobs[2].template_index = 0;  // pinned to on-demand capacity
  jobs[2].stage = 2;
  jobs[2].require_on_demand = true;

  const double sf = fleet.spot_fraction;
  const auto runtime_on = [](const sched::JobTemplate& tmpl,
                             const sched::Job& job, const sched::PoolKey& p) {
    return tmpl.runtime(static_cast<core::JobKind>(job.stage), p.family,
                        p.vcpus) *
           job.scale * (1.0 - job.stage_progress);
  };
  int decisions[3] = {0, 0, 0};
  for (double t = 0.0; t < 8 * 3600.0; t += 450.0) {
    const sched::MarketQuote quote = sched::quote_market(*storm, fleet, t);
    for (int incumbent_index = 0;
         incumbent_index < sched::ShardTopology::kPoolCount;
         ++incumbent_index) {
      const sched::PoolKey incumbent =
          sched::ShardTopology::pool_at(incumbent_index);
      for (const sched::Job& job : jobs) {
        const sched::JobTemplate& tmpl = templates[job.template_index];
        const auto cost_on = [&](const sched::PoolKey& p) {
          const double price = storm->price_at(p.family, p.vcpus, t);
          const double cost = fleet.catalog.hourly_usd(p.family, p.vcpus) *
                              ((1.0 - sf) + sf * std::min(price, 1.0)) *
                              runtime_on(tmpl, job, p) / 3600.0;
          EXPECT_EQ(cost, sched::market_stage_cost_usd(quote, tmpl, job, p));
          return cost;
        };
        sched::MarketDecision expected;
        double best = policy.migrate_margin * cost_on(incumbent);
        const double slack =
            policy.migrate_runtime_slack * runtime_on(tmpl, job, incumbent);
        for (int index = 0; index < sched::ShardTopology::kPoolCount;
             ++index) {
          if (index == incumbent_index) continue;
          const sched::PoolKey candidate = sched::ShardTopology::pool_at(index);
          if (runtime_on(tmpl, job, candidate) > slack) continue;
          const double cost = cost_on(candidate);
          if (cost < best) {
            best = cost;
            expected = {sched::MarketAction::kMigrate, candidate};
          }
        }
        if (expected.action != sched::MarketAction::kMigrate &&
            !job.require_on_demand &&
            storm->price_at(incumbent.family, incumbent.vcpus, t) >=
                policy.fallback_price_fraction) {
          expected.action = sched::MarketAction::kFallback;
        }

        const sched::MarketDecision actual =
            sched::market_decide(quote, fleet, policy, tmpl, job, incumbent);
        ASSERT_EQ(actual.action, expected.action)
            << "t=" << t << " incumbent=" << sched::to_string(incumbent);
        if (expected.action == sched::MarketAction::kMigrate) {
          EXPECT_EQ(actual.pool, expected.pool);
        }
        ++decisions[static_cast<int>(actual.action)];
      }
    }
  }
  // The sweep reached every branch of the rule.
  EXPECT_GT(decisions[static_cast<int>(sched::MarketAction::kKeep)], 0);
  EXPECT_GT(decisions[static_cast<int>(sched::MarketAction::kFallback)], 0);
  EXPECT_GT(decisions[static_cast<int>(sched::MarketAction::kMigrate)], 0);
}

// A random ladder template: every entry positive, or zero with probability
// `zero_share` (a zero family entry falls back to general purpose; a zero
// general-purpose entry is a zero runtime).
sched::JobTemplate random_template(util::Rng& rng, double zero_share) {
  sched::JobTemplate tmpl;
  tmpl.name = "random";
  for (auto& per_family : tmpl.runtime_seconds) {
    for (auto& ladder : per_family) {
      for (double& runtime : ladder) {
        runtime = rng.next_bool(zero_share) ? 0.0
                                            : rng.next_double(0.5, 2000.0);
      }
    }
  }
  return tmpl;
}

TEST(MarketPolicyTest, CertifiedKeepNeverMigrates) {
  // Whenever the (template, stage, pool) certificate holds, no task of that
  // group may migrate, whatever its scale, progress or flags. Quotes come
  // from the storm market and from random prices; policies are random.
  util::Rng rng(2026);
  std::vector<sched::JobTemplate> templates = sched::builtin_templates();
  for (int i = 0; i < 8; ++i) {
    templates.push_back(random_template(rng, i % 2 == 0 ? 0.25 : 0.0));
  }
  const auto storm = market::make_preset_market("storm", 11, 8 * 3600.0);
  sched::FleetConfig fleet;
  fleet.market = storm;

  int certified = 0;
  int uncertified = 0;
  for (int draw = 0; draw < 4000; ++draw) {
    fleet.spot_fraction = rng.next_double(0.0, 1.0);
    sched::MarketQuote quote;
    if (draw % 2 == 0) {
      quote = sched::quote_market(*storm, fleet,
                                  rng.next_double(0.0, 8 * 3600.0));
    } else {
      for (std::size_t p = 0; p < quote.spot_price.size(); ++p) {
        quote.spot_price[p] = rng.next_double(0.05, 1.5);
        quote.blended_hourly_usd[p] = rng.next_double(0.01, 5.0);
      }
    }
    sched::MarketPolicyConfig policy;
    policy.migrate_margin = rng.next_double(0.3, 1.2);
    policy.migrate_runtime_slack = rng.next_double(0.5, 4.0);
    policy.fallback_price_fraction = rng.next_double(0.2, 1.2);

    const auto& tmpl = templates[static_cast<std::size_t>(
        rng.next_int(0, static_cast<std::int64_t>(templates.size()) - 1))];
    const int stage = static_cast<int>(rng.next_int(0, core::kJobCount - 1));
    const sched::PoolKey pool = sched::ShardTopology::pool_at(
        static_cast<int>(rng.next_int(0, sched::ShardTopology::kPoolCount - 1)));
    if (!sched::market_keep_is_certain(quote, policy, tmpl, stage, pool)) {
      ++uncertified;
      continue;
    }
    ++certified;
    for (int task = 0; task < 16; ++task) {
      sched::Job job;
      job.stage = stage;
      job.scale = rng.next_double(0.2, 3.0);
      job.stage_progress = task == 0 ? 0.0 : rng.next_double(0.0, 0.999999);
      job.require_on_demand = rng.next_bool(0.3);
      const sched::MarketDecision decision =
          sched::market_decide(quote, fleet, policy, tmpl, job, pool);
      ASSERT_NE(decision.action, sched::MarketAction::kMigrate)
          << "draw " << draw << " stage " << stage << " pool "
          << sched::to_string(pool);
    }
  }
  // Both answers occur, so the property is not vacuous.
  EXPECT_GT(certified, 400);
  EXPECT_GT(uncertified, 400);
}

TEST(MarketPolicyTest, NearTiesAreNeverCertified) {
  // One live candidate (general-purpose 2 vCPU) against the incumbent
  // (general-purpose 4 vCPU, R_p = 100, B_p = 1): every other pool is far
  // outside the runtime slack. Ties and one-ulp misses of either test must
  // not be certified; a clear loss must be.
  const sched::PoolKey incumbent{perf::InstanceFamily::kGeneralPurpose, 4};
  const sched::PoolKey candidate{perf::InstanceFamily::kGeneralPurpose, 2};
  sched::MarketPolicyConfig policy;
  policy.migrate_margin = 0.75;
  policy.migrate_runtime_slack = 2.0;
  sched::FleetConfig fleet;
  fleet.spot_fraction = 1.0;  // no on-demand tier: never a fallback
  const auto make_template = [](double candidate_runtime) {
    sched::JobTemplate tmpl;
    for (auto& ladder : tmpl.runtime_seconds[0]) ladder.fill(1000.0);
    tmpl.runtime_seconds[0][2].fill(0.0);  // falls back to general purpose
    tmpl.runtime_seconds[0][0][1] = candidate_runtime;
    tmpl.runtime_seconds[0][0][2] = 100.0;
    return tmpl;
  };
  const auto make_quote = [&](double candidate_rate) {
    sched::MarketQuote quote;
    quote.spot_price.fill(0.5);
    quote.blended_hourly_usd.fill(1.0);
    quote.blended_hourly_usd[static_cast<std::size_t>(
        sched::ShardTopology::pool_index(candidate))] = candidate_rate;
    return quote;
  };
  const auto certain = [&](double candidate_rate, double candidate_runtime) {
    return sched::market_keep_is_certain(make_quote(candidate_rate), policy,
                                         make_template(candidate_runtime), 0,
                                         incumbent);
  };
  const auto decide = [&](double candidate_rate, double candidate_runtime) {
    sched::Job job;
    return sched::market_decide(make_quote(candidate_rate), fleet, policy,
                                make_template(candidate_runtime), job,
                                incumbent)
        .action;
  };

  // Cost test: B_c * R_c against margin * B_p * R_p = 75 (all exact).
  const double below = std::nextafter(150.0, 0.0);  // 0.5 * it = 75 - 1 ulp
  const double above = std::nextafter(150.0, kInf);  // 0.5 * it = 75 + 1 ulp
  ASSERT_EQ(0.5 * below, std::nextafter(75.0, 0.0));
  ASSERT_EQ(0.5 * above, std::nextafter(75.0, kInf));
  // Which way market_decide's rounded costs break these ties is not
  // pinned; the certificate must hold back on all three.
  EXPECT_FALSE(certain(0.5, 150.0));  // exact tie
  EXPECT_FALSE(certain(0.5, below));  // one ulp cheaper
  EXPECT_FALSE(certain(0.5, above));  // one ulp dearer: inside the band
  EXPECT_EQ(decide(0.45, 150.0), sched::MarketAction::kMigrate);
  EXPECT_TRUE(certain(0.6, 150.0));  // 90 against 75: a clear loss
  EXPECT_EQ(decide(0.6, 150.0), sched::MarketAction::kKeep);

  // Runtime-slack test: R_c against slack * R_p = 200, candidate cheap.
  EXPECT_FALSE(certain(0.1, 200.0));  // exact tie: not skipped, migrates
  EXPECT_EQ(decide(0.1, 200.0), sched::MarketAction::kMigrate);
  EXPECT_FALSE(certain(0.1, std::nextafter(200.0, kInf)));
  EXPECT_FALSE(certain(0.1, std::nextafter(200.0, 0.0)));
  EXPECT_TRUE(certain(0.1, 201.0));  // clearly too slow: always skipped
  EXPECT_EQ(decide(0.1, 201.0), sched::MarketAction::kKeep);
}

// ---------------------------------------------------------------------------
// Engine-level contracts under a moving market.

sched::ShardedSimConfig market_config(int shards, int threads) {
  sched::ShardedSimConfig config;
  config.base.seed = 21;
  config.base.duration_seconds = 2 * 3600.0;
  config.base.load.arrival_rate_per_hour = 120.0;
  config.base.load.mix = sched::diurnal_mix();
  config.base.fleet.spot_fraction = 0.6;
  config.base.fleet.spot_bid_fraction = 0.5;
  config.base.fleet.market =
      market::make_preset_market("storm", 21, 3 * 3600.0);
  config.base.market.enabled = true;
  config.base.market.interval_seconds = 300.0;
  config.base.fault.restart = sched::RestartModel::kCheckpoint;
  config.base.fault.checkpoint_interval_seconds = 120.0;
  config.base.fault.checkpoint_overhead_seconds = 5.0;
  config.shards = shards;
  config.threads = threads;
  config.handoff_latency_seconds = 2.0;
  return config;
}

void expect_identical(const sched::FleetMetrics& a,
                      const sched::FleetMetrics& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_failed, b.jobs_failed);
  EXPECT_EQ(a.tasks_dispatched, b.tasks_dispatched);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.spot_fallbacks, b.spot_fallbacks);
  EXPECT_EQ(a.market_rebids, b.market_rebids);
  EXPECT_EQ(a.market_fallbacks, b.market_fallbacks);
  EXPECT_EQ(a.market_migrations, b.market_migrations);
  EXPECT_EQ(a.wasted_seconds, b.wasted_seconds);
  EXPECT_EQ(a.checkpoint_overhead_seconds, b.checkpoint_overhead_seconds);
  EXPECT_EQ(a.goodput_fraction, b.goodput_fraction);
  EXPECT_EQ(a.drained_at_seconds, b.drained_at_seconds);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.mean_queue_wait, b.mean_queue_wait);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);
  EXPECT_EQ(a.cost_per_job_usd, b.cost_per_job_usd);
  EXPECT_EQ(a.peak_vms, b.peak_vms);
  EXPECT_EQ(a.vms_launched, b.vms_launched);
}

sched::FleetMetrics run_sharded(const sched::ShardedSimConfig& config) {
  sched::ShardedFleetSimulator sim(config, sched::builtin_templates(), "cost");
  return sim.run();
}

TEST(MarketShardTest, MovingMarketIsByteIdenticalAcrossShardCounts) {
  const sched::FleetMetrics one = run_sharded(market_config(1, 1));
  const sched::FleetMetrics eight = run_sharded(market_config(8, 1));
  expect_identical(one, eight);
  // The market layer actually did something in this configuration —
  // identity over a no-op market would prove nothing.
  EXPECT_GT(one.preemptions, 0u);
  EXPECT_GT(one.market_rebids, 0u);
}

TEST(MarketShardTest, MovingMarketIsByteIdenticalAcrossThreadCounts) {
  const sched::FleetMetrics serial = run_sharded(market_config(8, 1));
  const sched::FleetMetrics parallel = run_sharded(market_config(8, 8));
  expect_identical(serial, parallel);
}

// The benchmark's fleet shape: a diurnal mix at 700 jobs/h outgrowing six
// warm VMs under the storm market, 40% spot with re-bid and migrate on,
// and checkpointed crashes. Market ticks see queues hundreds deep, and most
// synchronization windows hold work for a single shard.
sched::ShardedSimConfig deep_storm_config(int shards, int threads) {
  sched::ShardedSimConfig config;
  config.base.seed = 202;
  config.base.duration_seconds = 3 * 3600.0;
  config.base.load.arrival_rate_per_hour = 700.0;
  config.base.load.mix = sched::diurnal_mix();
  config.base.fleet.spot_fraction = 0.4;
  config.base.fleet.market =
      market::make_preset_market("storm", 20260807, 4 * 3600.0);
  config.base.market.enabled = true;
  config.base.autoscaler.interval_seconds = 15.0;
  config.base.fault.restart = sched::RestartModel::kCheckpoint;
  config.base.fault.checkpoint_interval_seconds = 150.0;
  config.base.fault.checkpoint_overhead_seconds = 15.0;
  config.base.fault.crash_rate_per_hour = 0.05;
  config.base.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  config.shards = shards;
  config.threads = threads;
  config.handoff_latency_seconds = 1.0;
  return config;
}

TEST(MarketShardTest, DeepStormQueuesExportIdenticallyAtEveryShape) {
  std::string reference;
  for (const int shards : {1, 4, 12}) {
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const sched::FleetMetrics metrics =
          run_sharded(deep_storm_config(shards, threads));
      obs::Registry registry;
      metrics.export_to(registry);
      const std::string exported = registry.to_json();
      if (reference.empty()) {
        reference = exported;
        // The market and fault paths are live, so identity is not vacuous.
        EXPECT_GT(metrics.market_migrations, 0u);
        EXPECT_GT(metrics.market_rebids, 0u);
        EXPECT_GT(metrics.crashes, 0u);
        EXPECT_EQ(metrics.jobs_completed + metrics.jobs_failed,
                  metrics.jobs_submitted);
      }
      EXPECT_EQ(exported, reference);
    }
  }
}

TEST(MarketSimTest, RebidPolicyNeverStrandsAllSpotWork) {
  // All-spot fleet in a storm: the fallback path is unavailable (nothing
  // on-demand to fall back to), so every queued task must either finish or
  // exhaust its retry budget — never hang the drain.
  sched::SimConfig config;
  config.seed = 33;
  config.duration_seconds = 3600.0;
  config.load.arrival_rate_per_hour = 90.0;
  config.load.mix = sched::uniform_mix();
  config.fleet.spot_fraction = 1.0;
  config.fleet.spot_bid_fraction = 0.4;
  config.fleet.market = market::make_preset_market("storm", 33, 2 * 3600.0);
  config.market.enabled = true;
  config.fault.max_attempts_per_stage = 6;
  const sched::FleetMetrics metrics = run_sharded({.base = config});
  EXPECT_GT(metrics.jobs_submitted, 0u);
  EXPECT_EQ(metrics.jobs_completed + metrics.jobs_failed,
            metrics.jobs_submitted);
  // The all-spot guard held: no task was priced off spot with nowhere to go.
  EXPECT_EQ(metrics.market_fallbacks, 0u);
}

TEST(MarketSimTest, SequentialEngineRunsMigrationsUnderStorm) {
  sched::SimConfig config;
  config.seed = 5;
  config.duration_seconds = 2 * 3600.0;
  config.load.arrival_rate_per_hour = 150.0;
  config.load.mix = sched::flash_mix();
  config.fleet.spot_fraction = 0.6;
  config.fleet.market = market::make_preset_market("storm", 5, 3 * 3600.0);
  config.market.enabled = true;
  config.fault.restart = sched::RestartModel::kCheckpoint;
  config.fault.checkpoint_interval_seconds = 120.0;
  config.fault.checkpoint_overhead_seconds = 5.0;
  // One shard on one thread: the engine executes every event in order.
  const sched::FleetMetrics metrics =
      run_sharded({.base = config, .threads = 1});
  EXPECT_EQ(metrics.jobs_completed + metrics.jobs_failed,
            metrics.jobs_submitted);
  // Migrated/re-bid work completes: the policy reshapes routing without
  // losing jobs, and checkpoint credit carries across the move.
  EXPECT_GT(metrics.market_rebids + metrics.market_migrations, 0u);
}

}  // namespace
}  // namespace edacloud
