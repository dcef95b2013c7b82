// The service's exported totals and the relaxed-consistency contract
// documented in shard_counters.hpp, checked through MemoryService::
// fill_metrics: every ShardCounters field reaches its family, per-shard
// series sum into saturating totals, queue high-water reduces by max, and
// totals never go backwards across successive exports taken while writers
// hammer the shards' instruments.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/memory_service.hpp"

namespace spe::runtime {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// No background thread, so only the test moves the counters.
ServiceConfig quiet_config(unsigned shards) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.worker_threads = 1;
  cfg.scavenger_enabled = false;
  cfg.scrub_enabled = false;
  return cfg;
}

std::uint64_t total(const obs::MetricsRegistry& m, const std::string& name) {
  return m.at<obs::Counter>(name).value();
}

std::string shard(const std::string& family, unsigned s) {
  return family + "{shard=\"" + std::to_string(s) + "\"}";
}

TEST(ServiceStats, FillMetricsCopiesEveryCounterField) {
  MemoryService service(quiet_config(2));
  ShardCounters& c = service.shard(1).counters();
  const std::map<std::string, obs::Counter*> fields = {
      {"spe_reads_total", &c.reads_completed},
      {"spe_writes_total", &c.writes_completed},
      {"spe_writes_coalesced_total", &c.writes_coalesced},
      {"spe_requests_rejected_total", &c.rejected},
      {"spe_background_encrypted_total", &c.background_encrypted},
      {"spe_faults_detected_total", &c.faults_detected},
      {"spe_faults_corrected_total", &c.faults_corrected},
      {"spe_faults_uncorrectable_total", &c.faults_uncorrectable},
      {"spe_blocks_quarantined_total", &c.blocks_quarantined},
      {"spe_read_retries_total", &c.read_retries},
      {"spe_write_retries_total", &c.write_retries},
      {"spe_blocks_remapped_total", &c.blocks_remapped},
      {"spe_blocks_scrubbed_total", &c.blocks_scrubbed},
  };
  std::uint64_t value = 1;
  for (const auto& [name, counter] : fields) counter->add(value++);
  c.read_latency.record(std::chrono::nanoseconds(100));
  c.write_latency.record(std::chrono::nanoseconds(200));
  c.write_latency.record(std::chrono::nanoseconds(300));
  c.background_latency.record(std::chrono::nanoseconds(400));
  c.note_queue_depth(9);
  c.note_queue_depth(4);  // high water keeps the max

  obs::MetricsRegistry m;
  service.fill_metrics(m);
  value = 1;
  for (const auto& [name, counter] : fields) EXPECT_EQ(total(m, name), value++) << name;
  EXPECT_EQ(m.at<obs::Histogram>("spe_read_latency_ns").snapshot().count, 1u);
  EXPECT_EQ(m.at<obs::Histogram>("spe_write_latency_ns").snapshot().sum, 500u);
  EXPECT_EQ(m.at<obs::Histogram>("spe_background_latency_ns").snapshot().count, 1u);
  EXPECT_EQ(m.at<obs::Gauge>("spe_queue_high_water").value(), 9.0);
}

TEST(ServiceStats, AggregateSumsPerShardRowsAndKeepsThem) {
  MemoryService service(quiet_config(2));
  ShardCounters& a = service.shard(0).counters();
  a.reads_completed.add(10);
  a.writes_completed.add(4);
  a.blocks_scrubbed.add(2);
  ShardCounters& b = service.shard(1).counters();
  b.reads_completed.add(5);
  b.writes_completed.add(6);
  b.blocks_scrubbed.add(1);
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  EXPECT_EQ(total(m, "spe_reads_total"), 15u);
  EXPECT_EQ(total(m, "spe_writes_total"), 10u);
  EXPECT_EQ(total(m, "spe_blocks_scrubbed_total"), 3u);
  EXPECT_EQ(total(m, shard("spe_reads_total", 0)), 10u);
  EXPECT_EQ(total(m, shard("spe_reads_total", 1)), 5u);
  EXPECT_EQ(total(m, shard("spe_writes_total", 1)), 6u);
}

TEST(ServiceStats, AggregateSaturatesAtUint64MaxInsteadOfWrapping) {
  MemoryService service(quiet_config(3));
  service.shard(0).counters().reads_completed.add(kMax - 5);
  service.shard(0).counters().faults_corrected.add(kMax);
  service.shard(1).counters().reads_completed.add(100);  // would wrap to 94
  service.shard(1).counters().faults_corrected.add(1);   // would wrap to 0
  // Exact sums stay exact below the clamp.
  service.shard(1).counters().writes_completed.add(100);
  service.shard(2).counters().writes_completed.add(7);
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  EXPECT_EQ(total(m, "spe_reads_total"), kMax);
  EXPECT_EQ(total(m, "spe_faults_corrected_total"), kMax);
  EXPECT_EQ(total(m, "spe_writes_total"), 107u);
}

TEST(ServiceStats, QueueHighWaterAggregatesByMaxNotSum) {
  MemoryService service(quiet_config(3));
  service.shard(0).counters().note_queue_depth(12);
  service.shard(1).counters().note_queue_depth(40);
  service.shard(2).counters().note_queue_depth(7);
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  EXPECT_EQ(m.at<obs::Gauge>("spe_queue_high_water").value(), 40.0);
}

TEST(ServiceStats, TotalsNeverGoBackwardsAcrossSnapshotsUnderLoad) {
  // The relaxed-consistency contract: concurrent exports are not mutually
  // consistent, but every exported total is monotonic.
  MemoryService service(quiet_config(3));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned s = 0; s < service.shard_count(); ++s)
    writers.emplace_back([&stop, &c = service.shard(s).counters()] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.reads_completed.add(1);
        c.writes_completed.add(2);
        c.faults_detected.add(1);
        c.blocks_scrubbed.add(1);
        c.read_latency.record(std::chrono::nanoseconds(64));
      }
    });
  const char* const families[] = {"spe_reads_total", "spe_writes_total",
                                  "spe_faults_detected_total", "spe_blocks_scrubbed_total"};
  std::map<std::string, std::uint64_t> last;
  std::uint64_t last_latency_count = 0;
  for (int i = 0; i < 1000; ++i) {
    obs::MetricsRegistry m;
    service.fill_metrics(m);
    for (const char* family : families) {
      const std::uint64_t v = total(m, family);
      ASSERT_GE(v, last[family]) << family;
      last[family] = v;
    }
    // One read per shard feeds both its series and the total.
    std::uint64_t labelled = 0;
    for (unsigned s = 0; s < service.shard_count(); ++s)
      labelled += total(m, shard("spe_reads_total", s));
    ASSERT_EQ(labelled, last["spe_reads_total"]);
    const std::uint64_t n = m.at<obs::Histogram>("spe_read_latency_ns").snapshot().count;
    ASSERT_GE(n, last_latency_count);
    last_latency_count = n;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

}  // namespace
}  // namespace spe::runtime
