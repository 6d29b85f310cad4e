#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/metrics.hpp"
#include "sched/sharded_simulator.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::obs {
namespace {

// The tracer is process-global; every test starts from a clean slate.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  {
    TRACE_SPAN("should/not/appear");
    TRACE_SPAN("nor/this");
  }
  Tracer::global().emit_counter("also/not", 0.0, 1.0);
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST_F(TracerTest, SpansNestAndRecordDepth) {
  Tracer& tracer = Tracer::global();
  tracer.enable(ClockMode::kVirtual);
  tracer.set_virtual_time_seconds(0.0);
  {
    TRACE_SPAN_VAR(outer, "flow/run", "flow");
    tracer.set_virtual_time_seconds(1.0);
    {
      TRACE_SPAN_VAR(inner, "synth/rewrite", "synth");
      tracer.set_virtual_time_seconds(3.0);
    }
    tracer.set_virtual_time_seconds(4.0);
  }
  tracer.disable();

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Children are destroyed (and thus recorded) before their parents.
  EXPECT_EQ(events[0].name, "synth/rewrite");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 1e6);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 2e6);
  EXPECT_EQ(events[1].name, "flow/run");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_DOUBLE_EQ(events[1].ts_us, 0.0);
  EXPECT_DOUBLE_EQ(events[1].dur_us, 4e6);
  // Nesting is containment: parent interval covers the child's.
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
}

TEST_F(TracerTest, CounterAttachmentsSerializeIntoArgs) {
  Tracer& tracer = Tracer::global();
  tracer.enable(ClockMode::kVirtual);
  {
    TRACE_SPAN_VAR(span, "route/ripup", "route");
    span.counter("iteration", 3.0);
    span.counter("overflowed_edges", 17.0);
  }
  tracer.disable();

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].key, "iteration");
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 3.0);
  EXPECT_EQ(events[0].args[1].key, "overflowed_edges");
  EXPECT_DOUBLE_EQ(events[0].args[1].value, 17.0);

  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"iteration\":3"), std::string::npos);
  EXPECT_NE(json.find("\"overflowed_edges\":17"), std::string::npos);
}

TEST_F(TracerTest, ConcurrentSpansFromManyThreadsAreAllRecorded) {
  Tracer& tracer = Tracer::global();
  tracer.enable(ClockMode::kWall);

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TRACE_SPAN_VAR(outer, "worker/outer");
        TRACE_SPAN("worker/inner");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  tracer.disable();

  const auto events = tracer.snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  for (const auto& event : events) {
    // Inner spans were opened under an outer span on the same thread.
    EXPECT_EQ(event.depth, event.name == "worker/inner" ? 1u : 0u);
  }
}

TEST_F(TracerTest, PoolWorkerSpansLandOnDedicatedLanes) {
  Tracer& tracer = Tracer::global();
  tracer.enable(ClockMode::kWall);
  const std::uint32_t caller_lane = tracer.thread_lane();

  util::parallel_for(4, 0, 64, 1,
                     [&](std::size_t begin, std::size_t end, std::size_t,
                         unsigned slot) {
                       TRACE_SPAN_VAR(span, "pool/chunk", "util");
                       span.counter("slot", static_cast<double>(slot));
                       span.counter("items", static_cast<double>(end - begin));
                       // Give the workers time to wake and claim chunks even
                       // on a single-core host.
                       std::this_thread::sleep_for(std::chrono::microseconds(200));
                     });
  util::set_global_thread_count(1);
  tracer.disable();

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 64u);
  bool saw_pool_lane = false;
  for (const auto& event : events) {
    ASSERT_EQ(event.args.size(), 2u);
    const auto slot = static_cast<unsigned>(event.args[0].value);
    if (slot == 0) {
      // Chunks the submitting thread ran itself stay on its external lane.
      EXPECT_EQ(event.tid, caller_lane);
      EXPECT_LT(event.tid, Tracer::kPoolLaneBase);
    } else {
      // Worker lanes are a pure function of the pool slot.
      EXPECT_EQ(event.tid, Tracer::kPoolLaneBase + slot - 1);
      saw_pool_lane = true;
    }
  }
  EXPECT_TRUE(saw_pool_lane);
}

// Minimal structural validation of the emitted JSON: balanced braces and
// brackets outside of strings, no trailing garbage. json.tool does the full
// check in scripts/check.sh; this keeps the invariant in tier-1 unit tests.
void expect_balanced_json(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(TracerTest, JsonIsWellFormedAndEscapesSpecialCharacters) {
  Tracer& tracer = Tracer::global();
  tracer.enable(ClockMode::kVirtual);
  tracer.emit_complete("weird \"name\"\n\t\\", "cat", 0.0, 1.0, 0,
                       {{"k", 0.5}});
  tracer.emit_counter("fleet/queue_depth", 2.0, 4.0);
  tracer.disable();

  const std::string json = tracer.to_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("weird \\\"name\\\"\\n\\t\\\\"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":0.5"), std::string::npos);
}

TEST_F(TracerTest, SameSeedFleetSimulationsProduceByteIdenticalTraces) {
  sched::SimConfig config;
  config.seed = 20260806;
  config.duration_seconds = 1800.0;
  config.load.arrival_rate_per_hour = 120.0;

  const auto traced_run = [&config] {
    Tracer& tracer = Tracer::global();
    tracer.clear();
    tracer.enable(ClockMode::kVirtual);
    sched::ShardedFleetSimulator sim({.base = config},
                                     sched::builtin_templates(), "cost");
    sim.run();
    tracer.disable();
    return tracer.to_json();
  };

  const std::string first = traced_run();
  const std::string second = traced_run();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
  expect_balanced_json(first);
  EXPECT_NE(first.find("task/"), std::string::npos);
  EXPECT_NE(first.find("fleet/queue/"), std::string::npos);
}

// ---- Registry ---------------------------------------------------------------

TEST(RegistryTest, LabelOrderDoesNotSplitIdentity) {
  Registry registry;
  Counter& a = registry.counter("jobs", {{"mix", "bursty"}, {"policy", "edf"}});
  Counter& b = registry.counter("jobs", {{"policy", "edf"}, {"mix", "bursty"}});
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(Registry::key("jobs", {{"policy", "edf"}, {"mix", "bursty"}}),
            "jobs{mix=bursty,policy=edf}");
}

TEST(RegistryTest, DistinctLabelsAreDistinctInstruments) {
  Registry registry;
  registry.counter("jobs", {{"policy", "fifo"}}).add(1);
  registry.counter("jobs", {{"policy", "cost"}}).add(7);
  EXPECT_EQ(registry.size(), 2u);
  const Counter* fifo = registry.find_counter("jobs", {{"policy", "fifo"}});
  ASSERT_NE(fifo, nullptr);
  EXPECT_EQ(fifo->value(), 1u);
  EXPECT_EQ(registry.find_counter("jobs", {{"policy", "spot"}}), nullptr);
}

TEST(RegistryTest, TypeMismatchOnSameIdentityThrows) {
  Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x"), std::logic_error);
}

TEST(RegistryTest, HistogramTracksCountSumMinMaxAndQuantiles) {
  Registry registry;
  HistogramMetric& h = registry.histogram("latency", {}, 0.0, 100.0, 100);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 2.0);
}

TEST(RegistryTest, ExportsAreDeterministicAndOrdered) {
  const auto fill = [](Registry& registry) {
    registry.gauge("zeta", {{"s", "1"}}).set(0.25);
    registry.counter("alpha").add(3);
    registry.histogram("mid", {}, 0.0, 10.0, 10).observe(4.0);
  };
  Registry one;
  Registry two;
  fill(one);
  fill(two);
  EXPECT_EQ(one.to_json(), two.to_json());
  EXPECT_EQ(one.to_csv(), two.to_csv());

  const std::string csv = one.to_csv();
  EXPECT_EQ(csv.find("name,labels,type,value,count,sum,min,max,p50,p95,p99"),
            0u);
  // Lexicographic instrument order: alpha before mid before zeta.
  EXPECT_LT(csv.find("alpha"), csv.find("mid"));
  EXPECT_LT(csv.find("mid"), csv.find("zeta,\"s=1\""));

  const std::string json = one.to_json();
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
}

TEST(RegistryTest, FleetMetricsExportLandsCountersAndGauges) {
  sched::FleetMetrics metrics;
  metrics.jobs_submitted = 10;
  metrics.jobs_completed = 9;
  metrics.preemptions = 2;
  metrics.latency_p99 = 321.5;
  metrics.utilization = 0.625;
  metrics.cost_per_job_usd = 0.75;

  Registry registry;
  const Labels labels = {{"policy", "cost"}};
  metrics.export_to(registry, labels);

  const Counter* completed =
      registry.find_counter("fleet.jobs_completed", labels);
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value(), 9u);
  const Counter* preemptions =
      registry.find_counter("fleet.preemptions", labels);
  ASSERT_NE(preemptions, nullptr);
  EXPECT_EQ(preemptions->value(), 2u);
  const Gauge* p99 = registry.find_gauge("fleet.latency_p99_seconds", labels);
  ASSERT_NE(p99, nullptr);
  EXPECT_DOUBLE_EQ(p99->value(), 321.5);
  const Gauge* util = registry.find_gauge("fleet.utilization", labels);
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->value(), 0.625);
  const Gauge* cost = registry.find_gauge("fleet.cost_per_job_usd", labels);
  ASSERT_NE(cost, nullptr);
  EXPECT_DOUBLE_EQ(cost->value(), 0.75);
}

}  // namespace
}  // namespace edacloud::obs
