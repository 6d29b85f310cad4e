#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace edacloud::util {
namespace {

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.08);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

// ---- strings ----------------------------------------------------------------

TEST(StringsTest, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
}

TEST(StringsTest, FormatDuration) {
  EXPECT_EQ(format_duration(10.5), "10.5s");
  EXPECT_EQ(format_duration(75), "1m 15s");
  EXPECT_EQ(format_duration(3725), "1h 02m 05s");
}

TEST(StringsTest, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(-9876), "-9,876");
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(format_percent(0.1234, 1), "12.3%");
}

TEST(StringsTest, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_left("xyz", 2), "xyz");
}

// ---- table ------------------------------------------------------------------

TEST(TableTest, RendersHeadersAndRows) {
  Table table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table table({"A", "B", "C"});
  table.add_row({"only"});
  EXPECT_NO_THROW(table.render());
}

TEST(TableTest, SeparatorInsertsRule) {
  Table table({"A"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  const std::string out = table.render();
  // header rule + bottom rule + separator + top = 4 horizontal lines.
  std::size_t rules = 0, pos = 0;
  while ((pos = out.find("+--", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_EQ(rules, 4u);
}

// ---- csv --------------------------------------------------------------------

TEST(CsvTest, BasicSerialization) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"1", "2"});
  EXPECT_EQ(csv.str(), "a,b\n1,2\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  CsvWriter csv({"x"});
  csv.add_row({"has,comma"});
  csv.add_row({"has\"quote"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(CsvTest, WritesFile) {
  CsvWriter csv({"h"});
  csv.add_row({"v"});
  const std::string path = "/tmp/edacloud_csv_test.csv";
  EXPECT_TRUE(csv.write(path));
}

// ---- histogram --------------------------------------------------------------

TEST(HistogramTest, BinsValues) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);
  h.add(0.95);
  h.add(0.95);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(HistogramTest, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(HistogramTest, QuantileEmptyReturnsNan) {
  // Documented contract: an empty histogram has no quantiles, and the NaN
  // makes forgetting the total() guard loud instead of silently plausible.
  Histogram h(2.0, 10.0, 4);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.0)));
  EXPECT_TRUE(std::isnan(h.quantile(1.0)));
}

TEST(HistogramTest, QuantileSingleSample) {
  Histogram h(0.0, 4.0, 4);
  h.add(2.5);  // bin 2: [2, 3)
  // With one sample every quantile lands inside its bin; the estimate
  // interpolates across the bin span and must stay within it.
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), 2.0) << "q=" << q;
    EXPECT_LE(h.quantile(q), 3.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramTest, QuantileOutOfRangeQClamps) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.25);
  h.add(0.75);
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
  EXPECT_TRUE(std::isnan(h.quantile(std::nan(""))));
}

TEST(HistogramTest, SummaryDigest) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.0);
  EXPECT_NEAR(s.p50, 50.0, 1.0);
  EXPECT_NEAR(s.p90, 90.0, 1.0);
  EXPECT_NEAR(s.p95, 95.0, 1.0);
  EXPECT_NEAR(s.p99, 99.0, 1.0);
  EXPECT_NEAR(s.p999, 99.9, 1.0);
  // The ladder is monotone by construction.
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.p999);
}

TEST(HistogramTest, SummaryEmptyIsNanWithZeroCount) {
  const Histogram::Summary s = Histogram(0.0, 1.0, 4).summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.mean));
  EXPECT_TRUE(std::isnan(s.p50));
  EXPECT_TRUE(std::isnan(s.p999));
}

TEST(HistogramTest, SumTracksAddedValues) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);
  h.add(2.5);
  h.add(std::nan(""));  // ignored by sum too
  EXPECT_DOUBLE_EQ(h.sum(), 3.5);
}

TEST(HistogramTest, IgnoresNanSamples) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::nan(""));
  EXPECT_EQ(h.total(), 0u);
  h.add(0.5);
  h.add(std::nan(""));
  EXPECT_EQ(h.total(), 1u);
}

TEST(HistogramTest, InvertedBoundsAreSwapped) {
  Histogram h(10.0, 0.0, 5);  // same as Histogram(0, 10, 5)
  h.add(1.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(HistogramTest, ZeroWidthSpanDegeneratesToOneValue) {
  Histogram h(5.0, 5.0, 3);
  h.add(5.0);
  h.add(7.0);  // clamps into the degenerate span
  EXPECT_EQ(h.total(), 2u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBin) {
  // All mass in [0, 1) of a [0, 2) histogram: the median sits halfway
  // through that bin, the 25th percentile a quarter through.
  Histogram h(0.0, 2.0, 2);
  for (int i = 0; i < 8; ++i) h.add(0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.25);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(HistogramTest, QuantileWalksCumulativeCounts) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5);          // bin 0: 1
  h.add(1.5);          // bin 1: 1
  h.add(2.5);          // bin 2: 1
  h.add(2.5);          // bin 2: 2
  // rank 0.75*4 = 3 lands at the end of bin 2's first count — halfway in.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(HistogramTest, QuantileApproximatesUniformSample) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) h.add(rng.next_double());
  EXPECT_NEAR(h.quantile(0.50), 0.50, 0.02);
  EXPECT_NEAR(h.quantile(0.95), 0.95, 0.02);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.02);
}

TEST(HistogramTest, QuantileClampsOutOfRangeArguments) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.55);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(HistogramTest, RenderContainsCounts) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 7; ++i) h.add(0.25);
  const std::string out = h.render();
  EXPECT_NE(out.find("7"), std::string::npos);
}

}  // namespace
}  // namespace edacloud::util
