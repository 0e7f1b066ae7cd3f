#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace adtm {
namespace {

TEST(Stats, AddAndTotal) {
  StatsRegistry reg;
  EXPECT_EQ(reg.total(Counter::TxCommit), 0u);
  reg.add(Counter::TxCommit);
  reg.add(Counter::TxCommit, 4);
  EXPECT_EQ(reg.total(Counter::TxCommit), 5u);
  EXPECT_EQ(reg.total(Counter::TxAbortConflict), 0u);
}

TEST(Stats, ResetClearsEverything) {
  StatsRegistry reg;
  reg.add(Counter::TxStart, 10);
  reg.add(Counter::TxRetry, 3);
  reg.reset();
  EXPECT_EQ(reg.total(Counter::TxStart), 0u);
  EXPECT_EQ(reg.total(Counter::TxRetry), 0u);
}

TEST(Stats, SumsAcrossThreads) {
  StatsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) reg.add(Counter::DeferredOps);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.total(Counter::DeferredOps),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Stats, ReportListsNonzeroCounters) {
  StatsRegistry reg;
  reg.add(Counter::TxCommit, 2);
  const std::string r = reg.report();
  EXPECT_NE(r.find("tx_commit = 2"), std::string::npos);
  EXPECT_EQ(r.find("tx_retry"), std::string::npos);
}

TEST(Stats, CounterNamesAreUnique) {
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(Counter::kCount);
       ++i) {
    for (std::uint32_t j = i + 1;
         j < static_cast<std::uint32_t>(Counter::kCount); ++j) {
      EXPECT_STRNE(counter_name(static_cast<Counter>(i)),
                   counter_name(static_cast<Counter>(j)));
    }
  }
}

TEST(LatencyHistogram, BucketRoundTrip) {
  // Power-of-two buckets: bucket_of places a value, bucket_value reports a
  // representative inside the same bucket.
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  for (std::uint32_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::bucket_value(b)),
              b)
        << "bucket " << b;
  }
  // The top bucket absorbs everything, including the maximum.
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, PercentilesWalkTheDistribution) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  // 99 fast samples (~1 us) and one slow outlier (~1 ms): p50 stays in the
  // fast bucket, p99 lands at the fast tail, p100 reports the outlier.
  for (int i = 0; i < 99; ++i) h.record(1'000);
  h.record(1'000'000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(50),
            LatencyHistogram::bucket_value(LatencyHistogram::bucket_of(1'000)));
  EXPECT_EQ(h.percentile(99),
            LatencyHistogram::bucket_value(LatencyHistogram::bucket_of(1'000)));
  EXPECT_EQ(h.percentile(100), LatencyHistogram::bucket_value(
                                   LatencyHistogram::bucket_of(1'000'000)));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
}

TEST(LatencyHistogram, MergedHistogramsGiveOneDistribution) {
  // Per-thread histograms summed by merge() give the same distribution as
  // one histogram fed every sample.
  LatencyHistogram a, b, all, sum;
  for (int i = 0; i < 90; ++i) {
    a.record(1'000);
    all.record(1'000);
  }
  for (int i = 0; i < 10; ++i) {
    b.record(1'000'000);
    all.record(1'000'000);
  }
  sum.merge(a);
  sum.merge(b);
  EXPECT_EQ(sum.count(), 100u);
  for (const double p : {50.0, 90.0, 91.0, 99.0, 100.0}) {
    EXPECT_EQ(sum.percentile(p), all.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(a.count(), 90u);  // merge reads its source, never drains it
}

}  // namespace
}  // namespace adtm
