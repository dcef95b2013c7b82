// ServiceStats aggregation edge cases and the relaxed-consistency contract
// documented in service_stats.hpp: empty shard lists, saturating totals at
// uint64 max, queue high-water max-reduction, latency histogram bucket
// boundaries, and totals that never go backwards across successive
// snapshots taken while writers hammer the counters.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "runtime/latency_histogram.hpp"
#include "runtime/service_stats.hpp"

namespace spe::runtime {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(ServiceStats, AggregateOfEmptyShardListIsAllZero) {
  const ServiceStatsSnapshot snap = aggregate({});
  EXPECT_TRUE(snap.shards.empty());
  EXPECT_EQ(snap.total_ops(), 0u);
  EXPECT_EQ(snap.totals.reads_completed, 0u);
  EXPECT_EQ(snap.totals.faults_detected, 0u);
  EXPECT_EQ(snap.totals.blocks_scrubbed, 0u);
  EXPECT_EQ(snap.totals.queue_high_water, 0u);
  EXPECT_EQ(snap.totals.read_latency.count, 0u);
  // And the report still renders.
  EXPECT_NE(snap.to_string().find("service totals"), std::string::npos);
}

TEST(ServiceStats, AggregateSumsPerShardRowsAndKeepsThem) {
  ShardStatsSnapshot a;
  a.shard = 0;
  a.reads_completed = 10;
  a.writes_completed = 4;
  a.blocks_scrubbed = 2;
  ShardStatsSnapshot b;
  b.shard = 1;
  b.reads_completed = 5;
  b.writes_completed = 6;
  b.blocks_scrubbed = 1;
  const ServiceStatsSnapshot snap = aggregate({a, b});
  EXPECT_EQ(snap.totals.reads_completed, 15u);
  EXPECT_EQ(snap.totals.writes_completed, 10u);
  EXPECT_EQ(snap.totals.blocks_scrubbed, 3u);
  EXPECT_EQ(snap.total_ops(), 25u);
  ASSERT_EQ(snap.shards.size(), 2u);
  EXPECT_EQ(snap.shards[0].reads_completed, 10u);
  EXPECT_EQ(snap.shards[1].reads_completed, 5u);
}

TEST(ServiceStats, AggregateSaturatesAtUint64MaxInsteadOfWrapping) {
  ShardStatsSnapshot a;
  a.reads_completed = kMax - 5;
  a.faults_corrected = kMax;
  ShardStatsSnapshot b;
  b.reads_completed = 100;  // would wrap to 94
  b.faults_corrected = 1;   // would wrap to 0
  const ServiceStatsSnapshot snap = aggregate({a, b});
  EXPECT_EQ(snap.totals.reads_completed, kMax);
  EXPECT_EQ(snap.totals.faults_corrected, kMax);
  // Exact sums still exact below the clamp.
  ShardStatsSnapshot c;
  c.reads_completed = 7;
  EXPECT_EQ(aggregate({b, c}).totals.reads_completed, 107u);
}

TEST(ServiceStats, QueueHighWaterAggregatesByMaxNotSum) {
  ShardStatsSnapshot a;
  a.queue_high_water = 12;
  ShardStatsSnapshot b;
  b.queue_high_water = 40;
  ShardStatsSnapshot c;
  c.queue_high_water = 7;
  EXPECT_EQ(aggregate({a, b, c}).totals.queue_high_water, 40u);
}

TEST(ServiceStats, SnapshotCountersCopiesEveryField) {
  ShardCounters counters;
  counters.reads_completed.store(3);
  counters.writes_coalesced.store(5);
  counters.blocks_scrubbed.store(2);
  counters.note_queue_depth(9);
  counters.note_queue_depth(4);  // high water keeps the max
  counters.read_latency.record(std::chrono::nanoseconds(100));
  const ShardStatsSnapshot snap = snapshot_counters(7, counters);
  EXPECT_EQ(snap.shard, 7u);
  EXPECT_EQ(snap.reads_completed, 3u);
  EXPECT_EQ(snap.writes_coalesced, 5u);
  EXPECT_EQ(snap.blocks_scrubbed, 2u);
  EXPECT_EQ(snap.queue_high_water, 9u);
  EXPECT_EQ(snap.read_latency.count, 1u);
}

TEST(LatencyHistogramBounds, BucketBoundariesArePowersOfTwo) {
  // Bucket b covers [2^(b-1), 2^b): values on either side of each edge land
  // in adjacent buckets.
  EXPECT_EQ(LatencyHistogram::bucket_for(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_for(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_for(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_for(3), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_for(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_for(7), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_for(8), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_for((1ull << 32) - 1), 31u);
  EXPECT_EQ(LatencyHistogram::bucket_for(1ull << 32), 32u);
  EXPECT_EQ(LatencyHistogram::bucket_for(kMax), 63u);
  EXPECT_EQ(LatencyHistogram::upper_edge_ns(0), 1u);
  EXPECT_EQ(LatencyHistogram::upper_edge_ns(3), 15u);
  EXPECT_EQ(LatencyHistogram::upper_edge_ns(63), kMax);
}

TEST(LatencyHistogramBounds, RecordsLandInTheirBucketAndNegativeClampsToZero) {
  LatencyHistogram h;
  h.record(std::chrono::nanoseconds(-50));  // clamped to 0 -> bucket 0
  h.record(std::chrono::nanoseconds(1));
  h.record(std::chrono::nanoseconds(2));
  h.record(std::chrono::nanoseconds(1023));
  h.record(std::chrono::nanoseconds(1024));
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.buckets[0], 2u);   // -50 (clamped) and 1
  EXPECT_EQ(s.buckets[1], 1u);   // 2
  EXPECT_EQ(s.buckets[9], 1u);   // 1023
  EXPECT_EQ(s.buckets[10], 1u);  // 1024
  EXPECT_EQ(s.sum_ns, 0u + 1 + 2 + 1023 + 1024);
  // Quantiles report the holding bucket's upper edge.
  EXPECT_EQ(s.quantile(0.0).count(), 1);
  EXPECT_EQ(s.quantile(1.0).count(), 2047);
}

TEST(ServiceStats, TotalsNeverGoBackwardsAcrossSnapshotsUnderLoad) {
  // The header's relaxed-consistency contract: concurrent snapshots are not
  // mutually consistent, but every aggregated total is monotonic.
  std::vector<std::unique_ptr<ShardCounters>> counters;
  for (int s = 0; s < 3; ++s) counters.push_back(std::make_unique<ShardCounters>());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (auto& c : counters)
    writers.emplace_back([&stop, &c] {
      while (!stop.load(std::memory_order_relaxed)) {
        c->reads_completed.fetch_add(1, std::memory_order_relaxed);
        c->writes_completed.fetch_add(2, std::memory_order_relaxed);
        c->faults_detected.fetch_add(1, std::memory_order_relaxed);
        c->blocks_scrubbed.fetch_add(1, std::memory_order_relaxed);
        c->read_latency.record(std::chrono::nanoseconds(64));
      }
    });
  ServiceStatsSnapshot last;
  for (int i = 0; i < 2000; ++i) {
    std::vector<ShardStatsSnapshot> rows;
    for (unsigned s = 0; s < counters.size(); ++s)
      rows.push_back(snapshot_counters(s, *counters[s]));
    const ServiceStatsSnapshot snap = aggregate(std::move(rows));
    ASSERT_GE(snap.totals.reads_completed, last.totals.reads_completed);
    ASSERT_GE(snap.totals.writes_completed, last.totals.writes_completed);
    ASSERT_GE(snap.totals.faults_detected, last.totals.faults_detected);
    ASSERT_GE(snap.totals.blocks_scrubbed, last.totals.blocks_scrubbed);
    ASSERT_GE(snap.totals.read_latency.count, last.totals.read_latency.count);
    ASSERT_GE(snap.total_ops(), last.total_ops());
    last = snap;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

}  // namespace
}  // namespace spe::runtime
