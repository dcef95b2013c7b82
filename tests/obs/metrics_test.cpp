// Metrics property tests: counter monotonicity under concurrency, latency
// histogram buckets, quantiles, clamping and merge associativity, registry
// aggregation and read-back invariants, and the deterministic
// Prometheus/JSON export formats (DESIGN.md §9).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace spe::obs {
namespace {

using std::chrono::nanoseconds;

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kAdds = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST(Counter, SampledValueNeverGoesBackwards) {
  Counter c;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c.add(3);
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = c.value();
    ASSERT_GE(v, last);
    last = v;
  }
  stop.store(true);
  writer.join();
}

TEST(Gauge, SetOverwrites) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(0.994);
  EXPECT_DOUBLE_EQ(g.value(), 0.994);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket b covers [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_for(0), 0u);
  EXPECT_EQ(Histogram::bucket_for(1), 0u);
  EXPECT_EQ(Histogram::bucket_for(2), 1u);
  EXPECT_EQ(Histogram::bucket_for(3), 1u);
  EXPECT_EQ(Histogram::bucket_for(4), 2u);
  EXPECT_EQ(Histogram::bucket_for(1023), 9u);
  EXPECT_EQ(Histogram::bucket_for(1024), 10u);
  EXPECT_EQ(Histogram::bucket_for(~std::uint64_t{0}), 63u);
  EXPECT_EQ(Histogram::upper_edge(0), 1u);
  EXPECT_EQ(Histogram::upper_edge(1), 3u);
  EXPECT_EQ(Histogram::upper_edge(10), 2047u);
  EXPECT_EQ(Histogram::upper_edge(63), ~std::uint64_t{0});
}

// The LatencyHistogram suites check obs::Histogram in its role as the
// service's per-shard latency histogram (ns samples, negative clamped to 0).
TEST(LatencyHistogram, BucketEdges) {
  EXPECT_EQ(Histogram::bucket_for(0), 0u);
  EXPECT_EQ(Histogram::bucket_for(1), 0u);
  EXPECT_EQ(Histogram::bucket_for(2), 1u);
  EXPECT_EQ(Histogram::bucket_for(3), 1u);
  EXPECT_EQ(Histogram::bucket_for(4), 2u);
  EXPECT_EQ(Histogram::bucket_for(1024), 10u);
  EXPECT_EQ(Histogram::bucket_for(~std::uint64_t{0}), 63u);
}

TEST(LatencyHistogramBounds, BucketBoundariesArePowersOfTwo) {
  // Bucket b covers [2^(b-1), 2^b) ns: values on either side of each edge
  // land in adjacent buckets.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_EQ(Histogram::bucket_for(0), 0u);
  EXPECT_EQ(Histogram::bucket_for(1), 0u);
  EXPECT_EQ(Histogram::bucket_for(2), 1u);
  EXPECT_EQ(Histogram::bucket_for(3), 1u);
  EXPECT_EQ(Histogram::bucket_for(4), 2u);
  EXPECT_EQ(Histogram::bucket_for(7), 2u);
  EXPECT_EQ(Histogram::bucket_for(8), 3u);
  EXPECT_EQ(Histogram::bucket_for((1ull << 32) - 1), 31u);
  EXPECT_EQ(Histogram::bucket_for(1ull << 32), 32u);
  EXPECT_EQ(Histogram::bucket_for(kMax), 63u);
  EXPECT_EQ(Histogram::upper_edge(0), 1u);
  EXPECT_EQ(Histogram::upper_edge(3), 15u);
  EXPECT_EQ(Histogram::upper_edge(63), kMax);
}

TEST(Histogram, EmptyReportsZero) {
  const Histogram::Snapshot s = Histogram().snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean().count(), 0);
  EXPECT_EQ(s.p50().count(), 0);
  EXPECT_EQ(s.quantile(1.0).count(), 0);
}

TEST(LatencyHistogramBounds, RecordsLandInTheirBucketAndNegativeClampsToZero) {
  Histogram h;
  h.record(nanoseconds(-50));  // clamped to 0 -> bucket 0
  h.record(nanoseconds(1));
  h.record(nanoseconds(2));
  h.record(nanoseconds(1023));
  h.record(nanoseconds(1024));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.buckets[0], 2u);   // -50 (clamped) and 1
  EXPECT_EQ(s.buckets[1], 1u);   // 2
  EXPECT_EQ(s.buckets[9], 1u);   // 1023
  EXPECT_EQ(s.buckets[10], 1u);  // 1024
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 1023 + 1024);
  // Quantiles report the holding bucket's upper edge.
  EXPECT_EQ(s.quantile(0.0).count(), 1);
  EXPECT_EQ(s.quantile(1.0).count(), 2047);
  // Out-of-range q clamps to [0, 1].
  EXPECT_EQ(s.quantile(-1.0), s.quantile(0.0));
  EXPECT_EQ(s.quantile(2.0), s.quantile(1.0));
}

TEST(LatencyHistogram, NegativeDurationClampsToZeroBucket) {
  Histogram h;
  h.record(nanoseconds(-5));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.buckets[0], 1u);
}

TEST(LatencyHistogram, SnapshotMergeAccumulates) {
  Histogram a;
  Histogram b;
  a.record(nanoseconds(10));
  b.record(nanoseconds(10));
  b.record(nanoseconds(1000));
  Histogram::Snapshot s = a.snapshot();
  s += b.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 1020u);
}

TEST(Histogram, QuantilesAreMonotonicAndBracketSamples) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(nanoseconds(100));    // bucket [64,128)
  for (int i = 0; i < 9; ++i) h.record(nanoseconds(10'000));  // [8192,16384)
  h.record(nanoseconds(1'000'000));                           // [2^19,2^20)
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_LE(s.p50().count(), s.p95().count());
  EXPECT_LE(s.p95().count(), s.p99().count());
  // p50 lands in the 100ns bucket; p95 and p99 (ranks 95 and 99 of 100) in
  // the 10us bucket; only the max reaches the 1ms outlier.
  EXPECT_GE(s.p50().count(), 100);
  EXPECT_LT(s.p50().count(), 256);
  EXPECT_GE(s.p95().count(), 10'000);
  EXPECT_LT(s.p95().count(), 20'000);
  EXPECT_GE(s.p99().count(), 10'000);
  EXPECT_LT(s.p99().count(), 20'000);
  EXPECT_GE(s.quantile(1.0).count(), 1'000'000);
  EXPECT_EQ(s.mean().count(), (90 * 100 + 9 * 10'000 + 1'000'000) / 100);
}

Histogram::Snapshot sample(std::uint64_t seed, unsigned n) {
  Histogram h;
  std::uint64_t x = seed;
  for (unsigned i = 0; i < n; ++i) {
    // xorshift64: arbitrary but reproducible values across the int64 range.
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.record(nanoseconds(static_cast<std::int64_t>(x >> (1 + x % 48))));
  }
  return h.snapshot();
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  const Histogram::Snapshot a = sample(1, 500);
  const Histogram::Snapshot b = sample(2, 300);
  const Histogram::Snapshot c = sample(3, 700);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + b, b + a);
  const Histogram::Snapshot zero;
  EXPECT_EQ(a + zero, a);
  // Merging accumulates counts and sums.
  EXPECT_EQ((a + b).count, 800u);
  EXPECT_EQ((a + b).sum, a.sum + b.sum);
}

TEST(Histogram, MergeBucketsMatchesIndividualRecords) {
  Histogram individual;
  Histogram merged;
  Histogram source;
  for (std::int64_t v : {0, 1, 2, 100, 4096, 1 << 30}) {
    individual.record(nanoseconds(v));
    source.record(nanoseconds(v));
  }
  merged.merge_buckets(source.snapshot());
  EXPECT_EQ(merged.snapshot(), individual.snapshot());
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(nanoseconds(1 + (i % 4096)));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, AggregateOfShardsEqualsSumOfShardSnapshots) {
  // The per-shard labelled counters and the unlabelled total are registered
  // independently; the invariant the exporter relies on is that the total
  // equals the sum over shards when both are fed the same figures.
  MetricsRegistry registry;
  const std::uint64_t per_shard[] = {7, 0, 191, 23};
  std::uint64_t sum = 0;
  for (unsigned s = 0; s < 4; ++s) {
    registry.counter("spe_reads_total{shard=\"" + std::to_string(s) + "\"}")
        .add(per_shard[s]);
    sum += per_shard[s];
  }
  registry.counter("spe_reads_total", "total").add(sum);
  std::uint64_t labelled = 0;
  for (unsigned s = 0; s < 4; ++s)
    labelled +=
        registry.counter("spe_reads_total{shard=\"" + std::to_string(s) + "\"}").value();
  EXPECT_EQ(labelled, registry.counter("spe_reads_total").value());
}

TEST(MetricsRegistry, AtReadsBackButNeverCreates) {
  MetricsRegistry registry;
  registry.counter("spe_reads_total").add(7);
  registry.gauge("spe_queue_depth").set(2);
  registry.histogram("spe_read_latency_ns").record(nanoseconds(5));
  const MetricsRegistry& view = registry;
  EXPECT_EQ(view.at<Counter>("spe_reads_total").value(), 7u);
  EXPECT_EQ(view.at<Gauge>("spe_queue_depth").value(), 2.0);
  EXPECT_EQ(view.at<Histogram>("spe_read_latency_ns").snapshot().count, 1u);
  // A misspelled name or the wrong instrument type throws instead of reading
  // back a fresh zero, and registers nothing.
  EXPECT_THROW((void)view.at<Counter>("spe_read_total"), std::out_of_range);
  EXPECT_THROW((void)view.at<Gauge>("spe_reads_total"), std::out_of_range);
  EXPECT_THROW((void)view.at<Counter>("spe_read_latency_ns"), std::out_of_range);
  EXPECT_EQ(view.names().size(), 3u);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry registry;
  (void)registry.counter("spe_reads_total");
  EXPECT_THROW((void)registry.gauge("spe_reads_total"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("spe_reads_total"), std::logic_error);
  (void)registry.gauge("spe_queue_depth");
  EXPECT_THROW((void)registry.counter("spe_queue_depth"), std::logic_error);
}

TEST(MetricsRegistry, PrometheusExportIsSortedWithOneHeaderPerFamily) {
  MetricsRegistry registry;
  registry.counter("spe_reads_total{shard=\"1\"}").add(5);
  registry.counter("spe_reads_total{shard=\"0\"}", "completed reads").add(2);
  registry.counter("spe_reads_total", "completed reads").add(7);
  registry.gauge("spe_queue_depth", "queued requests").set(3);
  const std::string text = registry.render(MetricsFormat::Prometheus);
  // One TYPE header for the whole spe_reads_total family, bare name first
  // (map order), then the labelled variants sorted.
  EXPECT_NE(text.find("# TYPE spe_reads_total counter"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE spe_reads_total counter"),
            text.rfind("# TYPE spe_reads_total counter"));
  EXPECT_NE(text.find("spe_reads_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("spe_reads_total{shard=\"0\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("spe_reads_total{shard=\"1\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spe_queue_depth gauge"), std::string::npos);
  EXPECT_LT(text.find("spe_queue_depth"), text.find("spe_reads_total"));
}

TEST(MetricsRegistry, HistogramExportsCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("spe_read_latency_ns", "read latency");
  h.record(nanoseconds(1));    // bucket 0, le=1
  h.record(nanoseconds(3));    // bucket 1, le=3
  h.record(nanoseconds(3));    // bucket 1
  h.record(nanoseconds(100));  // bucket 6, le=127
  const std::string text = registry.render(MetricsFormat::Prometheus);
  EXPECT_NE(text.find("spe_read_latency_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("spe_read_latency_ns_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("spe_read_latency_ns_bucket{le=\"127\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("spe_read_latency_ns_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("spe_read_latency_ns_sum 107\n"), std::string::npos);
  EXPECT_NE(text.find("spe_read_latency_ns_count 4\n"), std::string::npos);
}

TEST(MetricsRegistry, JsonExportIsOneSortedObject) {
  MetricsRegistry registry;
  registry.counter("spe_writes_total").add(11);
  registry.gauge("spe_encrypted_fraction").set(0.5);
  registry.histogram("spe_write_latency_ns").record(nanoseconds(2));
  const std::string json = registry.render(MetricsFormat::Json);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"spe_writes_total\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"spe_encrypted_fraction\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"spe_write_latency_ns\": {\"count\": 1, \"sum\": 2"),
            std::string::npos);
  // Sorted keys: fraction before latency before writes.
  EXPECT_LT(json.find("spe_encrypted_fraction"), json.find("spe_write_latency_ns"));
  EXPECT_LT(json.find("spe_write_latency_ns"), json.find("spe_writes_total"));
}

TEST(MetricsRegistry, MergeIntoCopiesEveryInstrumentKind) {
  MetricsRegistry src;
  src.counter("spe_journal_begin_total", "begins").add(9);
  src.gauge("spe_shards").set(4);
  src.histogram("spe_read_latency_ns").record(nanoseconds(100));
  MetricsRegistry dest;
  dest.counter("spe_journal_begin_total").add(1);  // merge adds, not overwrites
  src.merge_into(dest);
  EXPECT_EQ(dest.counter("spe_journal_begin_total").value(), 10u);
  EXPECT_DOUBLE_EQ(dest.gauge("spe_shards").value(), 4.0);
  EXPECT_EQ(dest.histogram("spe_read_latency_ns").snapshot().count, 1u);
  EXPECT_EQ(dest.names().size(), 3u);
}

}  // namespace
}  // namespace spe::obs
