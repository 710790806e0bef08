/// Tests for the fixed-boundary Histogram and HistogramRegistry: bucket
/// determinism (the property that lets bucket counts join bench_compare's
/// exact diff), merge semantics, and the standard boundary ladders.

#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <vector>

namespace mbta {
namespace {

TEST(Histogram, DefaultIsSingleCatchAllBucket) {
  Histogram h;
  EXPECT_TRUE(h.boundaries().empty());
  ASSERT_EQ(h.bucket_counts().size(), 1u);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.Record(42.0);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_EQ(h.min(), 42.0);
  EXPECT_EQ(h.max(), 42.0);
}

TEST(Histogram, BucketBoundariesAreHalfOpen) {
  // Bucket i covers [b[i-1], b[i]): a value equal to a boundary lands in
  // the bucket *above* it. This exact rule is what makes the counts a
  // deterministic function of the value stream.
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.bucket_counts().size(), 4u);

  h.Record(0.5);   // underflow: (-inf, 1)
  h.Record(1.0);   // boundary: [1, 2)
  h.Record(1.99);  // [1, 2)
  h.Record(2.0);   // boundary: [2, 4)
  h.Record(4.0);   // overflow: [4, +inf)
  h.Record(100.0); // overflow

  const std::vector<std::uint64_t> expected = {1, 2, 1, 2};
  EXPECT_EQ(h.bucket_counts(), expected);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.99 + 2.0 + 4.0 + 100.0);
}

TEST(Histogram, IdenticalStreamsProduceIdenticalCounts) {
  // The determinism property bench_compare relies on, stated directly:
  // same boundaries + same values (any order) => same bucket counts.
  const std::vector<double> values = {0.3, 7.0, 0.001, 2.5, 2.5, 1e9};
  Histogram a(GainBoundaries());
  Histogram b(GainBoundaries());
  for (double v : values) a.Record(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) b.Record(*it);
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  EXPECT_EQ(a.total_count(), b.total_count());
}

TEST(Histogram, ClearResetsEverything) {
  Histogram h({1.0, 2.0});
  h.Record(0.5);
  h.Record(5.0);
  h.Clear();
  const std::vector<std::uint64_t> expected = {0, 0, 0};
  EXPECT_EQ(h.bucket_counts(), expected);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, MergeAddsCountsAndTracksExtremes) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.Record(0.5);
  a.Record(1.5);
  b.Record(1.5);
  b.Record(9.0);
  a.Merge(b);
  const std::vector<std::uint64_t> expected = {1, 2, 1};
  EXPECT_EQ(a.bucket_counts(), expected);
  EXPECT_EQ(a.total_count(), 4u);
  EXPECT_EQ(a.min(), 0.5);
  EXPECT_EQ(a.max(), 9.0);
}

TEST(Histogram, MergeIntoDefaultEmptyAdoptsWholesale) {
  // A default-constructed histogram (e.g. a fresh registry slot) adopts
  // the incoming boundaries instead of tripping the mismatch check.
  Histogram target;
  Histogram source({1.0, 2.0});
  source.Record(1.5);
  target.Merge(source);
  EXPECT_EQ(target.boundaries(), source.boundaries());
  EXPECT_EQ(target.bucket_counts(), source.bucket_counts());
  EXPECT_EQ(target.total_count(), 1u);
}

TEST(Histogram, MergeOfEmptyDefaultIsANoOp) {
  Histogram target({1.0, 2.0});
  target.Record(1.5);
  target.Merge(Histogram());
  EXPECT_EQ(target.total_count(), 1u);
  ASSERT_EQ(target.boundaries().size(), 2u);
}

TEST(Histogram, MergeWithEmptySameBoundariesKeepsExtremes) {
  Histogram a({1.0});
  a.Record(0.5);
  Histogram b({1.0});
  a.Merge(b);  // b recorded nothing: min/max must survive
  EXPECT_EQ(a.min(), 0.5);
  EXPECT_EQ(a.max(), 0.5);
  EXPECT_EQ(a.total_count(), 1u);
}

TEST(Histogram, ExponentialBoundariesAreGeometric) {
  const auto b = ExponentialBoundaries(1.0, 2.0, 5);
  const std::vector<double> expected = {1.0, 2.0, 4.0, 8.0, 16.0};
  EXPECT_EQ(b, expected);
}

TEST(Histogram, LinearBoundariesAreArithmetic) {
  const auto b = LinearBoundaries(0.5, 0.25, 3);
  const std::vector<double> expected = {0.5, 0.75, 1.0};
  EXPECT_EQ(b, expected);
}

TEST(Histogram, StandardLaddersAreStrictlyIncreasing) {
  for (const auto& boundaries :
       {GainBoundaries(), LatencyBoundariesMs()}) {
    ASSERT_FALSE(boundaries.empty());
    for (std::size_t i = 1; i < boundaries.size(); ++i) {
      EXPECT_LT(boundaries[i - 1], boundaries[i]);
    }
  }
}

TEST(HistogramRegistry, AddInsertsThenMerges) {
  HistogramRegistry registry;
  EXPECT_TRUE(registry.empty());
  Histogram h({1.0, 2.0});
  h.Record(1.5);
  registry.Add("greedy/gain", h);
  registry.Add("greedy/gain", h);
  const Histogram* found = registry.Find("greedy/gain");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->total_count(), 2u);
  EXPECT_EQ(registry.Find("no/such_key"), nullptr);
}

TEST(HistogramRegistry, MergeCombinesRegistries) {
  HistogramRegistry a;
  HistogramRegistry b;
  Histogram h({1.0});
  h.Record(0.5);
  a.Add("shared/key", h);
  b.Add("shared/key", h);
  b.Add("only/in_b", h);
  a.Merge(b);
  ASSERT_NE(a.Find("shared/key"), nullptr);
  EXPECT_EQ(a.Find("shared/key")->total_count(), 2u);
  ASSERT_NE(a.Find("only/in_b"), nullptr);
  EXPECT_EQ(a.Find("only/in_b")->total_count(), 1u);
}

TEST(HistogramRegistry, IterationIsKeyOrdered) {
  HistogramRegistry registry;
  Histogram h({1.0});
  registry.Add("z/last", h);
  registry.Add("a/first", h);
  std::vector<std::string> keys;
  for (const auto& [key, hist] : registry.histograms()) keys.push_back(key);
  const std::vector<std::string> expected = {"a/first", "z/last"};
  EXPECT_EQ(keys, expected);
}

TEST(HistogramRegistry, ClearEmpties) {
  HistogramRegistry registry;
  registry.Add("a/b", Histogram({1.0}));
  registry.Clear();
  EXPECT_TRUE(registry.empty());
}

}  // namespace
}  // namespace mbta
