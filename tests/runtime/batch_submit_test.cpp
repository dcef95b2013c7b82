// Batch submit semantics (DESIGN.md §12).
//
// The contracts under test:
//   * submit_read_batch / submit_write_batch return one future per address,
//     in argument order, and never throw mid-batch — a bounced entry (Reject
//     backpressure, racing stop()) resolves its own future with the typed
//     error while the rest of the batch stays queued.
//   * Batch dispatch through the shard workers preserves per-block ordering:
//     with a single submitter, a read of addr returns exactly the last
//     version written to addr before the read was submitted, coalescing or
//     not, batch or single submits.
//
// The fuzz corpus tests are seeded and deterministic; the concurrent test is
// the TSan target for this layer.

#include "runtime/memory_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

namespace spe::runtime {
namespace {

using namespace std::chrono_literals;

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

ServiceConfig batch_config() {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 128;
  cfg.scavenger_interval = 200us;
  return cfg;
}

/// Flattens per-address payloads into the contiguous buffer
/// submit_write_batch expects (block i at offset i * block_bytes).
std::vector<std::uint8_t> flatten(const std::vector<std::uint64_t>& addrs,
                                  unsigned version, unsigned block_bytes) {
  std::vector<std::uint8_t> flat;
  flat.reserve(addrs.size() * block_bytes);
  for (const std::uint64_t addr : addrs) {
    const auto block = tagged_block(addr, version, block_bytes);
    flat.insert(flat.end(), block.begin(), block.end());
  }
  return flat;
}

TEST(BatchSubmit, WriteBatchThenReadBatchRoundTrips) {
  MemoryService service(batch_config());
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t a = 0; a < 32; ++a) addrs.push_back(a);
  const auto flat = flatten(addrs, 5, service.block_bytes());

  auto writes = service.submit_write_batch(addrs, flat);
  ASSERT_EQ(writes.size(), addrs.size());
  for (auto& f : writes) f.get();

  auto reads = service.submit_read_batch(addrs);
  ASSERT_EQ(reads.size(), addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i)
    EXPECT_EQ(reads[i].get(), tagged_block(addrs[i], 5, service.block_bytes()));
}

TEST(BatchSubmit, EmptyBatchesReturnNoFutures) {
  MemoryService service(batch_config());
  EXPECT_TRUE(service.submit_read_batch({}).empty());
  EXPECT_TRUE(service.submit_write_batch({}, {}).empty());
}

TEST(BatchSubmit, WriteBatchValidatesFlatBufferSize) {
  MemoryService service(batch_config());
  const std::vector<std::uint64_t> addrs{1, 2, 3};
  const std::vector<std::uint8_t> short_buf(2 * service.block_bytes());
  EXPECT_THROW((void)service.submit_write_batch(addrs, short_buf),
               std::invalid_argument);
}

// Seeded fuzz corpus, single submitter: interleaved reads, writes and
// coalescible rewrites of a small hot set, submitted through a mix of batch
// and scalar entry points. Per-shard FIFO queues mean each read must observe
// exactly the last version written to its block before the read went in —
// coalescing (latest-wins) is not allowed to reorder across a read.
TEST(BatchSubmit, FuzzCorpusPreservesPerBlockOrdering) {
  MemoryService service(batch_config());
  constexpr std::uint64_t kBlocks = 12;
  std::map<std::uint64_t, unsigned> last_version;
  std::vector<std::pair<std::future<std::vector<std::uint8_t>>, unsigned>>
      pending_reads;  // future + version it must observe
  std::vector<std::future<void>> pending_writes;
  std::vector<std::pair<std::uint64_t, unsigned>> read_addrs;

  std::uint64_t state = 0xB41C9A5Eu;
  unsigned next_version = 1;
  for (unsigned op = 0; op < 400; ++op) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t addr = (state >> 33) % kBlocks;
    switch ((state >> 13) % 4) {
      case 0: {  // scalar write
        const unsigned v = next_version++;
        pending_writes.push_back(service.submit_write(
            addr, tagged_block(addr, v, service.block_bytes())));
        last_version[addr] = v;
        break;
      }
      case 1: {  // batched write burst, includes a same-addr rewrite
        std::vector<std::uint64_t> addrs{addr, (addr + 1) % kBlocks, addr};
        std::vector<std::uint8_t> flat;
        for (const std::uint64_t a : addrs) {
          const unsigned v = next_version++;
          const auto block = tagged_block(a, v, service.block_bytes());
          flat.insert(flat.end(), block.begin(), block.end());
          last_version[a] = v;
        }
        for (auto& f : service.submit_write_batch(addrs, flat))
          pending_writes.push_back(std::move(f));
        break;
      }
      case 2: {  // scalar read
        const auto it = last_version.find(addr);
        if (it == last_version.end()) break;
        pending_reads.emplace_back(service.submit_read(addr), it->second);
        read_addrs.emplace_back(addr, it->second);
        break;
      }
      default: {  // batched read burst over the written set
        std::vector<std::uint64_t> addrs;
        std::vector<unsigned> expect;
        for (std::uint64_t a = addr; a < addr + 4; ++a) {
          const auto it = last_version.find(a % kBlocks);
          if (it == last_version.end()) continue;
          addrs.push_back(a % kBlocks);
          expect.push_back(it->second);
        }
        auto futures = service.submit_read_batch(addrs);
        for (std::size_t i = 0; i < futures.size(); ++i) {
          pending_reads.emplace_back(std::move(futures[i]), expect[i]);
          read_addrs.emplace_back(addrs[i], expect[i]);
        }
        break;
      }
    }
  }
  for (auto& f : pending_writes) f.get();
  for (std::size_t i = 0; i < pending_reads.size(); ++i) {
    const auto data = pending_reads[i].first.get();
    EXPECT_EQ(data, tagged_block(read_addrs[i].first, read_addrs[i].second,
                                 service.block_bytes()))
        << "read " << i << " of block " << read_addrs[i].first;
  }
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  EXPECT_GT(m.at<obs::Counter>("spe_writes_coalesced_total").value(), 0u);
}

// Reject backpressure: flooding one single-worker shard through the batch
// API must never throw out of submit_*_batch — bounced entries resolve their
// own futures with QueueFullError and every accepted entry still completes.
TEST(BatchSubmit, RejectBackpressureResolvesBouncedFuturesInPlace) {
  ServiceConfig cfg = batch_config();
  cfg.shards = 1;
  cfg.worker_threads = 1;
  cfg.queue_capacity = 2;
  cfg.backpressure = BackpressurePolicy::Reject;
  MemoryService service(cfg);

  // Distinct blocks, so no write coalesces into a queued one past the cap.
  std::vector<std::uint64_t> addrs;
  for (unsigned i = 0; i < 300; ++i) addrs.push_back(i);
  auto futures =
      service.submit_write_batch(addrs, flatten(addrs, 9, service.block_bytes()));
  ASSERT_EQ(futures.size(), addrs.size());

  unsigned bounced = 0, completed = 0;
  std::set<std::uint64_t> written;  // addrs with at least one accepted write
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      futures[i].get();
      ++completed;
      written.insert(addrs[i]);
    } catch (const QueueFullError& e) {
      EXPECT_EQ(e.shard(), 0u);
      ++bounced;
    }
  }
  EXPECT_GT(bounced, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(bounced + completed, addrs.size());
  obs::MetricsRegistry m;
  service.fill_metrics(m);
  EXPECT_EQ(m.at<obs::Counter>("spe_requests_rejected_total").value(), bounced);

  // Same contract on the read side. Only addresses that landed a write can
  // promise well-formed payloads — an all-bounced address reads back
  // whatever the unwritten block decrypts to.
  auto reads = service.submit_read_batch(addrs);
  ASSERT_EQ(reads.size(), addrs.size());
  unsigned read_ok = 0, read_bounced = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    try {
      const auto data = reads[i].get();
      if (written.count(addrs[i]) != 0) {
        EXPECT_EQ(data, tagged_block(addrs[i], 9, service.block_bytes()))
            << "read " << i << " of block " << addrs[i];
      }
      ++read_ok;
    } catch (const QueueFullError&) {
      ++read_bounced;
    }
  }
  EXPECT_EQ(read_ok + read_bounced, addrs.size());
  EXPECT_GT(read_ok, 0u);
}

TEST(BatchSubmit, BatchAfterStopResolvesEveryFutureStopped) {
  MemoryService service(batch_config());
  service.write(1, tagged_block(1, 0, service.block_bytes()));
  service.stop();
  const std::vector<std::uint64_t> addrs{1, 2, 3};
  auto reads = service.submit_read_batch(addrs);
  auto writes =
      service.submit_write_batch(addrs, flatten(addrs, 1, service.block_bytes()));
  ASSERT_EQ(reads.size(), addrs.size());
  ASSERT_EQ(writes.size(), addrs.size());
  for (auto& f : reads) EXPECT_THROW((void)f.get(), ServiceStoppedError);
  for (auto& f : writes) EXPECT_THROW(f.get(), ServiceStoppedError);
}

// The TSan target: concurrent batch submitters on overlapping blocks. Every
// future settles, every read decrypts to a
// well-formed payload written by someone.
TEST(BatchSubmit, ConcurrentBatchSubmittersStayBitExact) {
  ServiceConfig cfg = batch_config();
  cfg.shards = 8;
  cfg.worker_threads = 4;
  MemoryService service(cfg);
  constexpr std::uint64_t kBlocks = 24;
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr)
    service.write(addr, tagged_block(addr, 0, service.block_bytes()));

  std::atomic<unsigned> malformed{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      std::uint64_t state = 0x51CADE * (c + 1);
      for (unsigned round = 0; round < 40; ++round) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::vector<std::uint64_t> addrs;
        for (unsigned i = 0; i < 6; ++i)
          addrs.push_back((state >> (8 + i)) % kBlocks);
        if ((state >> 7) & 1) {
          const auto flat =
              flatten(addrs, static_cast<unsigned>(state & 0xFF),
                      service.block_bytes());
          for (auto& f : service.submit_write_batch(addrs, flat)) f.get();
        } else {
          for (auto& f : service.submit_read_batch(addrs))
            if (!block_is_well_formed(f.get())) malformed.fetch_add(1);
        }
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(malformed.load(), 0u);

  for (std::uint64_t addr = 0; addr < kBlocks; ++addr)
    EXPECT_TRUE(block_is_well_formed(service.read(addr))) << "block " << addr;
}

}  // namespace
}  // namespace spe::runtime
