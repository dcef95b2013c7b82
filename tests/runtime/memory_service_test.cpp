#include "runtime/memory_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace spe::runtime {
namespace {

using namespace std::chrono_literals;

// Block payloads carry their identity in every byte: data[i] - data[0] must
// equal 31*i (mod 256) for any (addr, version) pair, so a single corrupted
// or torn decrypt is detected without knowing which version a racing read
// observed.
std::vector<std::uint8_t> tagged_block(std::uint64_t addr, unsigned version,
                                       unsigned block_bytes) {
  std::vector<std::uint8_t> data(block_bytes);
  for (unsigned i = 0; i < block_bytes; ++i)
    data[i] = static_cast<std::uint8_t>(7 * addr + 37 * version + 31 * i);
  return data;
}

bool block_is_well_formed(const std::vector<std::uint8_t>& data) {
  for (unsigned i = 0; i < data.size(); ++i)
    if (static_cast<std::uint8_t>(data[i] - data[0]) !=
        static_cast<std::uint8_t>(31 * i))
      return false;
  return true;
}

/// Reads an exported counter back by name from a fresh fill_metrics().
std::uint64_t exported(const MemoryService& service, const std::string& name) {
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  return m.at<obs::Counter>(name).value();
}

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 64;
  cfg.scavenger_interval = 200us;
  return cfg;
}

TEST(MemoryService, SyncRoundTripBothModes) {
  for (const core::SpeMode mode : {core::SpeMode::Serial, core::SpeMode::Parallel}) {
    ServiceConfig cfg = small_config();
    cfg.mode = mode;
    MemoryService service(cfg);
    for (std::uint64_t addr = 0; addr < 16; ++addr) {
      const auto data = tagged_block(addr, 0, service.block_bytes());
      service.write(addr, data);
      EXPECT_EQ(service.read(addr), data) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(MemoryService, FutureApiCompletesOutOfOrderSubmissions) {
  MemoryService service(small_config());
  std::vector<std::future<void>> writes;
  for (std::uint64_t addr = 0; addr < 32; ++addr)
    writes.push_back(
        service.submit_write(addr, tagged_block(addr, 1, service.block_bytes())));
  for (auto& f : writes) f.get();
  std::vector<std::future<std::vector<std::uint8_t>>> reads;
  for (std::uint64_t addr = 0; addr < 32; ++addr)
    reads.push_back(service.submit_read(addr));
  for (std::uint64_t addr = 0; addr < 32; ++addr)
    EXPECT_EQ(reads[addr].get(), tagged_block(addr, 1, service.block_bytes()));
}

TEST(MemoryService, AddressShardingCoversAllShards) {
  MemoryService service(small_config());
  std::vector<bool> hit(service.shard_count(), false);
  for (std::uint64_t addr = 0; addr < 256; ++addr) {
    const unsigned s = service.shard_of(addr);
    ASSERT_LT(s, service.shard_count());
    hit[s] = true;
  }
  for (unsigned s = 0; s < service.shard_count(); ++s) EXPECT_TRUE(hit[s]) << s;
}

// The satellite stress test: >=4 client threads, mixed reads/writes on a
// small overlapping block set; every read must decrypt to a well-formed
// (bit-exact) payload written by someone.
TEST(MemoryService, ConcurrentMixedTrafficStaysBitExact) {
  ServiceConfig cfg = small_config();
  cfg.shards = 8;
  cfg.worker_threads = 4;
  MemoryService service(cfg);
  constexpr std::uint64_t kBlocks = 24;
  constexpr unsigned kClients = 4;
  constexpr unsigned kOpsPerClient = 150;

  for (std::uint64_t addr = 0; addr < kBlocks; ++addr)
    service.write(addr, tagged_block(addr, 0, service.block_bytes()));

  std::atomic<unsigned> malformed{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      std::uint64_t state = 0x9E3779B9u * (c + 1);
      for (unsigned op = 0; op < kOpsPerClient; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t addr = (state >> 33) % kBlocks;
        if ((state >> 13) & 1) {
          service.write(addr,
                        tagged_block(addr, static_cast<unsigned>(state & 0xFF),
                                     service.block_bytes()));
        } else {
          if (!block_is_well_formed(service.read(addr))) malformed.fetch_add(1);
        }
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(malformed.load(), 0u);

  // After quiescing, every block must still decrypt bit-exactly.
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr)
    EXPECT_TRUE(block_is_well_formed(service.read(addr))) << "block " << addr;

  EXPECT_EQ(exported(service, "spe_requests_rejected_total"), 0u);  // Block never bounces
  // Every submitted op completed: initial fills + client ops + quiesce reads.
  EXPECT_EQ(exported(service, "spe_reads_total") + exported(service, "spe_writes_total"),
            2 * kBlocks + static_cast<std::uint64_t>(kClients) * kOpsPerClient);
}

TEST(MemoryService, TinyQueuesWithBlockPolicyStayLive) {
  ServiceConfig cfg = small_config();
  cfg.queue_capacity = 1;
  MemoryService service(cfg);
  std::vector<std::thread> clients;
  std::atomic<unsigned> completed{0};
  for (unsigned c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      for (unsigned i = 0; i < 50; ++i) {
        // Distinct blocks: a write can never coalesce into a queued one, so
        // every write needs its own slot of the depth-1 queues.
        const std::uint64_t addr = c * 50 + i;
        service.write(addr, tagged_block(addr, i, service.block_bytes()));
        completed.fetch_add(1);
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), 200u);
}

TEST(MemoryService, RejectPolicySurfacesQueueFullToSubmitter) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.worker_threads = 1;
  cfg.queue_capacity = 2;
  cfg.backpressure = BackpressurePolicy::Reject;
  MemoryService service(cfg);
  // Flood one shard faster than its worker can drain; with depth 2 some
  // submission must bounce, and every accepted future must still complete.
  // Every write targets a distinct block, so none coalesces past the cap.
  unsigned rejected = 0;
  std::vector<std::future<void>> accepted;
  for (unsigned i = 0; i < 400; ++i) {
    try {
      accepted.push_back(service.submit_write(i, tagged_block(i, i, service.block_bytes())));
    } catch (const QueueFullError& e) {
      EXPECT_EQ(e.shard(), 0u);
      ++rejected;
    }
  }
  for (auto& f : accepted) f.get();
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(exported(service, "spe_requests_rejected_total"), rejected);
}

TEST(MemoryService, SerialScavengerReencryptsEverything) {
  ServiceConfig cfg = small_config();
  cfg.mode = core::SpeMode::Serial;
  cfg.scavenger_interval = 100us;
  cfg.scavenger_blocks_per_pass = 8;
  MemoryService service(cfg);
  for (std::uint64_t addr = 0; addr < 32; ++addr)
    service.write(addr, tagged_block(addr, 2, service.block_bytes()));
  for (std::uint64_t addr = 0; addr < 32; ++addr) (void)service.read(addr);

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (service.encrypted_fraction() < 1.0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_DOUBLE_EQ(service.encrypted_fraction(), 1.0);
  EXPECT_GT(exported(service, "spe_background_encrypted_total"), 0u);

  // The re-encrypted blocks must still decrypt bit-exactly.
  for (std::uint64_t addr = 0; addr < 32; ++addr)
    EXPECT_EQ(service.read(addr), tagged_block(addr, 2, service.block_bytes()));
}

TEST(MemoryService, ParallelModeNeverLeavesPlaintext) {
  ServiceConfig cfg = small_config();
  cfg.mode = core::SpeMode::Parallel;
  MemoryService service(cfg);
  for (std::uint64_t addr = 0; addr < 16; ++addr)
    service.write(addr, tagged_block(addr, 3, service.block_bytes()));
  for (std::uint64_t addr = 0; addr < 16; ++addr) (void)service.read(addr);
  EXPECT_DOUBLE_EQ(service.encrypted_fraction(), 1.0);
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  EXPECT_EQ(m.at<obs::Gauge>("spe_plaintext_blocks").value(), 0.0);
}

TEST(MemoryService, StopIsIdempotentAndSubmitsAfterStopThrow) {
  MemoryService service(small_config());
  service.write(1, tagged_block(1, 0, service.block_bytes()));
  service.stop();
  service.stop();
  EXPECT_THROW((void)service.submit_read(1), ServiceStoppedError);
  EXPECT_THROW(service.write(1, tagged_block(1, 1, service.block_bytes())),
               ServiceStoppedError);
  // Metrics remain readable after shutdown.
  EXPECT_EQ(exported(service, "spe_writes_total"), 1u);
}

// Two threads racing into stop(): exactly one runs the shutdown, the other
// must block until it is fully done — not return early, not double-join.
// Regression test for the concurrent-stop contract (the net server calls
// stop() from its own threads while a destructor may race it).
TEST(MemoryService, ConcurrentStopFromTwoThreadsIsSafe) {
  for (unsigned round = 0; round < 8; ++round) {
    MemoryService service(small_config());
    service.write(1, tagged_block(1, 0, service.block_bytes()));
    std::atomic<bool> go{false};
    auto stopper = [&] {
      while (!go.load()) std::this_thread::yield();
      service.stop();
      // Whoever returns first, the shutdown must already be complete.
      EXPECT_THROW((void)service.submit_read(1), ServiceStoppedError);
    };
    std::thread a(stopper);
    std::thread b(stopper);
    go.store(true);
    a.join();
    b.join();
    EXPECT_EQ(exported(service, "spe_writes_total"), 1u) << "round " << round;
  }
}

// Shutdown racing live traffic: every future obtained before stop() must
// settle — either with its value or with the typed ServiceStoppedError —
// and never with a std::future_error from an abandoned promise.
TEST(MemoryService, RacingShutdownSettlesEveryFutureTyped) {
  for (unsigned round = 0; round < 4; ++round) {
    ServiceConfig cfg = small_config();
    cfg.queue_capacity = 8;
    MemoryService service(cfg);
    std::atomic<bool> go{false};
    std::atomic<unsigned> completed{0}, stopped{0}, broken{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < 4; ++c)
      clients.emplace_back([&, c] {
        while (!go.load()) std::this_thread::yield();
        for (unsigned i = 0; i < 64; ++i) {
          const std::uint64_t addr = c * 64 + i;
          try {
            auto f = service.submit_write(
                addr, tagged_block(addr, i, service.block_bytes()));
            f.get();
            completed.fetch_add(1);
          } catch (const ServiceStoppedError&) {
            stopped.fetch_add(1);
          } catch (const std::future_error&) {
            broken.fetch_add(1);
          }
        }
      });
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    service.stop();
    for (auto& t : clients) t.join();
    EXPECT_EQ(broken.load(), 0u) << "round " << round;
    EXPECT_EQ(completed.load() + stopped.load(), 4u * 64u) << "round " << round;
  }
}

TEST(MemoryService, LatencyMetricsPopulate) {
  MemoryService service(small_config());
  for (std::uint64_t addr = 0; addr < 8; ++addr)
    service.write(addr, tagged_block(addr, 0, service.block_bytes()));
  for (std::uint64_t addr = 0; addr < 8; ++addr) (void)service.read(addr);
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  const auto reads = m.at<obs::Histogram>("spe_read_latency_ns").snapshot();
  EXPECT_EQ(m.at<obs::Histogram>("spe_write_latency_ns").snapshot().count, 8u);
  EXPECT_EQ(reads.count, 8u);
  EXPECT_GT(reads.p99().count(), 0);
  EXPECT_LE(reads.p50().count(), reads.p99().count());
}

}  // namespace
}  // namespace spe::runtime
