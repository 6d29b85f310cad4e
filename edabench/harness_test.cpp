// Tests for the benchmark's own helpers: percentiles carry their sample
// count, self time subtracts nested spans, and the response digest notices
// a single flipped byte.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace edabench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  const Percentile p50 = percentile(values, 50);
  EXPECT_DOUBLE_EQ(p50.value, 2.5);
  EXPECT_EQ(p50.samples, 4u);
  EXPECT_DOUBLE_EQ(percentile(values, 0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100).value, 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 25).value, 1.75);
}

TEST(Percentile, CarriesSampleCountAndHandlesSmallInputs) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const Percentile p99 = percentile(values, 99);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_NEAR(p99.value, 990.01, 1e-9);

  const Percentile empty = percentile({}, 50);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99).value, 7.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(SpanRecorder, SelfTimeSubtractsUnionOfChildren) {
  SpanRecorder spans;
  const int parent = spans.record("core.flow", -1, 0, 0.0, 10.0);
  // Two overlapping children cover [1, 5]; a third is clipped to [8, 10].
  spans.record("route.run", parent, 0, 1.0, 3.0);
  spans.record("route.run", parent, 0, 2.0, 5.0);
  spans.record("sta.run", parent, 0, 8.0, 12.0);
  EXPECT_DOUBLE_EQ(spans.self_seconds(parent), 4.0);

  const auto table = spans.layer_table();
  EXPECT_DOUBLE_EQ(table.at("core").self_s, 4.0);
  EXPECT_DOUBLE_EQ(table.at("core").total_s, 10.0);
  EXPECT_DOUBLE_EQ(table.at("route").self_s, 5.0);
  EXPECT_EQ(table.at("route").spans, 2u);
  EXPECT_DOUBLE_EQ(table.at("sta").self_s, 4.0);
}

TEST(SpanRecorder, ScopesNestOnOneThread) {
  SpanRecorder spans;
  {
    const auto outer = spans.scope("tune.tune");
    { const auto inner = spans.scope("ml.predict_batch"); }
    { const auto inner = spans.scope("cloud.optimize"); }
  }
  const auto all = spans.spans();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].parent, -1);
  EXPECT_EQ(all[1].parent, 0);
  EXPECT_EQ(all[2].parent, 0);
  EXPECT_EQ(all[1].layer, "ml");
  const double children = (all[1].end_s - all[1].start_s) +
                          (all[2].end_s - all[2].start_s);
  EXPECT_NEAR(spans.self_seconds(0),
              (all[0].end_s - all[0].start_s) - children, 1e-12);
  EXPECT_NE(spans.chrome_trace("{}").find("\"name\":\"ml.predict_batch\""),
            std::string::npos);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder spans(false);
  { const auto scope = spans.scope("route.run"); }
  EXPECT_TRUE(spans.spans().empty());
}

TEST(Digest, MatchesFnv1aReferenceVector) {
  EXPECT_EQ(fnv1a(kFnvOffset, ""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(kFnvOffset, "a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Digest, CatchesAFlippedByteAndIgnoresArrivalOrder) {
  std::vector<std::pair<std::uint64_t, std::string>> responses = {
      {2, "{\"id\":2,\"ok\":true}"}, {1, "{\"id\":1,\"ok\":true}"}};
  const std::uint64_t reference = response_digest(responses);
  std::swap(responses[0], responses[1]);
  EXPECT_EQ(response_digest(responses), reference);

  for (std::size_t i = 0; i < responses[1].second.size(); ++i) {
    auto flipped = responses;
    flipped[1].second[i] ^= 0x01;
    EXPECT_NE(response_digest(flipped), reference) << "byte " << i;
  }
  auto renumbered = responses;
  renumbered[0].first = 3;
  EXPECT_NE(response_digest(renumbered), reference);
}

}  // namespace
}  // namespace edabench
