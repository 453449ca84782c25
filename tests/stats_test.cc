#include <gtest/gtest.h>

#include "stats/attr_stats.h"
#include "stats/table_stats.h"
#include "util/rng.h"

namespace nodb {
namespace {

TEST(AttrStatsTest, MinMaxExact) {
  AttrStatsBuilder builder(TypeId::kInt64);
  for (int64_t v : {5, -3, 12, 7}) builder.Add(Value::Int64(v));
  AttrStats stats = builder.Build();
  EXPECT_EQ(stats.rows_seen, 4u);
  EXPECT_EQ(stats.nulls, 0u);
  EXPECT_EQ(stats.min->int64(), -3);
  EXPECT_EQ(stats.max->int64(), 12);
}

TEST(AttrStatsTest, NullsCountedSeparately) {
  AttrStatsBuilder builder(TypeId::kInt64);
  builder.Add(Value::Int64(1));
  builder.Add(Value::Null(TypeId::kInt64));
  builder.Add(Value::Null(TypeId::kInt64));
  AttrStats stats = builder.Build();
  EXPECT_EQ(stats.rows_seen, 3u);
  EXPECT_EQ(stats.nulls, 2u);
  EXPECT_EQ(stats.min->int64(), 1);
}

TEST(AttrStatsTest, NdvExactWhenSmall) {
  AttrStatsBuilder builder(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) builder.Add(Value::Int64(i % 7));
  AttrStats stats = builder.Build();
  EXPECT_DOUBLE_EQ(stats.ndv, 7.0);
}

TEST(AttrStatsTest, NdvScaledWhenCapped) {
  AttrStatsBuilder builder(TypeId::kInt64);
  Rng rng(1);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    builder.Add(Value::Int64(rng.Uniform(0, 10000000)));
  }
  AttrStats stats = builder.Build();
  // Nearly all values distinct; the estimate must be within 2x.
  EXPECT_GT(stats.ndv, kN / 2.0);
}

TEST(AttrStatsTest, StringStatsHaveNoHistogram) {
  AttrStatsBuilder builder(TypeId::kString);
  builder.Add(Value::String("b"));
  builder.Add(Value::String("a"));
  AttrStats stats = builder.Build();
  EXPECT_TRUE(stats.histogram.empty());
  EXPECT_EQ(stats.min->str(), "a");
  EXPECT_EQ(stats.max->str(), "b");
}

TEST(AttrStatsTest, CompareSelectivityUniform) {
  AttrStatsBuilder builder(TypeId::kInt64);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    builder.Add(Value::Int64(rng.Uniform(0, 999)));
  }
  AttrStats stats = builder.Build();
  // a < 250 over uniform [0, 1000) is ~25%.
  double sel = stats.EstimateCompareSelectivity('<', false, Value::Int64(250));
  EXPECT_NEAR(sel, 0.25, 0.05);
  // a > 900 is ~10%.
  sel = stats.EstimateCompareSelectivity('>', false, Value::Int64(900));
  EXPECT_NEAR(sel, 0.10, 0.05);
  // Bounds clamp.
  EXPECT_DOUBLE_EQ(
      stats.EstimateCompareSelectivity('<', false, Value::Int64(-5)), 0.0);
  EXPECT_DOUBLE_EQ(
      stats.EstimateCompareSelectivity('<', false, Value::Int64(5000)), 1.0);
}

TEST(AttrStatsTest, CompareSelectivitySkewed) {
  // Histogram must beat the uniform assumption on skewed data.
  AttrStatsBuilder builder(TypeId::kInt64);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    // 90% of mass in [0,100), 10% in [100, 1000).
    int64_t v = rng.NextBool(0.9) ? rng.Uniform(0, 99) : rng.Uniform(100, 999);
    builder.Add(Value::Int64(v));
  }
  AttrStats stats = builder.Build();
  double sel = stats.EstimateCompareSelectivity('<', false, Value::Int64(130));
  EXPECT_GT(sel, 0.7);  // uniform assumption would say ~0.13
}

TEST(AttrStatsTest, EqualsSelectivityFromNdv) {
  AttrStatsBuilder builder(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) builder.Add(Value::Int64(i % 4));
  AttrStats stats = builder.Build();
  EXPECT_DOUBLE_EQ(stats.EstimateEqualsSelectivity(), 0.25);
}

TEST(AttrStatsTest, DateHistogramWorks) {
  // Values arrive in random order (sampling digests a prefix plus a stride;
  // ordered input would bias the sample).
  AttrStatsBuilder builder(TypeId::kDate);
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    builder.Add(Value::Date(static_cast<int32_t>(8000 + rng.Uniform(0, 999))));
  }
  AttrStats stats = builder.Build();
  double sel = stats.EstimateCompareSelectivity('<', false, Value::Date(8500));
  EXPECT_NEAR(sel, 0.5, 0.1);
}

TEST(TableStatsTest, PerAttributeLifecycle) {
  Schema schema{{"a", TypeId::kInt64}, {"b", TypeId::kString}};
  TableStats stats(schema);
  EXPECT_FALSE(stats.HasAttr(0));
  EXPECT_EQ(stats.Attr(0), nullptr);
  stats.AddValue(0, Value::Int64(10));
  stats.AddValue(0, Value::Int64(20));
  // Not yet queryable before Finalize.
  EXPECT_FALSE(stats.HasAttr(0));
  stats.Finalize(0);
  ASSERT_TRUE(stats.HasAttr(0));
  EXPECT_EQ(stats.Attr(0)->max->int64(), 20);
  // Attribute b never scanned: stays absent (the adaptive property — only
  // requested attributes get statistics).
  stats.FinalizeAll();
  EXPECT_FALSE(stats.HasAttr(1));
}

TEST(TableStatsTest, IncrementalAugmentation) {
  Schema schema{{"a", TypeId::kInt64}};
  TableStats stats(schema);
  stats.AddValue(0, Value::Int64(5));
  stats.Finalize(0);
  EXPECT_EQ(stats.Attr(0)->max->int64(), 5);
  // A later query feeds more values; the snapshot widens.
  stats.AddValue(0, Value::Int64(50));
  stats.Finalize(0);
  EXPECT_EQ(stats.Attr(0)->max->int64(), 50);
  EXPECT_EQ(stats.Attr(0)->rows_seen, 2u);
}

}  // namespace
}  // namespace nodb
