// Checkpoint/restore round-trips of runtime shard state beyond the raw cell
// levels: the encrypted fraction, the quarantined-block set and the
// spare-remap table must all survive save/load, checkpoints must be
// byte-deterministic for a given seed + workload, and malformed or
// mismatched checkpoints must be rejected with specific errors.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/memory_service.hpp"

namespace spe::runtime {
namespace {

std::vector<std::uint8_t> tagged_block(std::uint64_t addr, unsigned version,
                                       unsigned block_bytes) {
  std::vector<std::uint8_t> data(block_bytes);
  for (unsigned i = 0; i < block_bytes; ++i)
    data[i] = static_cast<std::uint8_t>(7 * addr + 37 * version + 31 * i);
  return data;
}

// Dense stuck cells only (no transient noise, no drift): every fault draw
// is a pure function of (device, block, remap epoch, cell), so the same
// workload on the same seed always produces the same quarantines, remaps
// and stored levels — and so do reads replayed after a restore.
ServiceConfig deterministic_fault_config() {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 64;
  cfg.mode = core::SpeMode::Parallel;
  cfg.scavenger_enabled = false;
  cfg.scrub_enabled = false;
  cfg.retry_backoff_base = std::chrono::microseconds{0};
  cfg.fault_injection = true;
  cfg.fault_seed = 0xBADC0FFEE;
  cfg.faults.stuck_at_lrs_rate = 8e-3;
  cfg.faults.stuck_at_hrs_rate = 8e-3;
  cfg.faults.read_noise_rate = 0.0;
  cfg.faults.dropped_pulse_rate = 0.0;
  cfg.faults.drift_sigma = 0.0;
  return cfg;
}

constexpr std::uint64_t kBlocks = 192;

struct ReadOutcome {
  bool ok = false;
  std::vector<std::uint8_t> data;  // valid when ok
};

/// Sequential write+read sweep; returns the per-address read outcome
/// (payload or typed fault). Deterministic for a fixed config.
std::vector<ReadOutcome> run_workload(MemoryService& service) {
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr) {
    try {
      service.write(addr, tagged_block(addr, 1, service.block_bytes()));
    } catch (const UncorrectableFaultError&) {
    }
  }
  std::vector<ReadOutcome> outcomes(kBlocks);
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr) {
    try {
      outcomes[addr].data = service.read(addr);
      outcomes[addr].ok = true;
    } catch (const UncorrectableFaultError&) {
    } catch (const QuarantinedBlockError&) {
    }
  }
  return outcomes;
}

TEST(CheckpointRestore, FaultedShardStateSurvivesRoundTrip) {
  ServiceConfig cfg = deterministic_fault_config();
  MemoryService service(cfg);
  const auto outcomes = run_workload(service);

  // The workload must have exercised the machinery we claim to round-trip.
  obs::MetricsRegistry before;
  service.fill_metrics(before);
  EXPECT_GT(before.at<obs::Counter>("spe_injected_faults_total").value(), 0u);
  EXPECT_GT(before.at<obs::Counter>("spe_blocks_remapped_total").value(), 0u);
  const double encrypted_before = service.encrypted_fraction();
  std::vector<std::map<std::uint64_t, std::uint32_t>> remaps_before;
  for (unsigned s = 0; s < service.shard_count(); ++s)
    remaps_before.push_back(service.shard(s).injector()->remap_table());

  std::ostringstream out;
  service.checkpoint(out);
  std::istringstream in(out.str());
  MemoryService restored(cfg, in);

  // Quiescent checkpoint: recovery has nothing to replay or roll back.
  EXPECT_TRUE(restored.recovery_report().clean());

  // Encrypted fraction, quarantine set and remap table all survived.
  EXPECT_DOUBLE_EQ(restored.encrypted_fraction(), encrypted_before);
  obs::MetricsRegistry after;
  restored.fill_metrics(after);
  EXPECT_EQ(after.at<obs::Gauge>("spe_quarantined_blocks").value(),
            before.at<obs::Gauge>("spe_quarantined_blocks").value());
  for (unsigned s = 0; s < restored.shard_count(); ++s) {
    ASSERT_NE(restored.shard(s).injector(), nullptr);
    EXPECT_EQ(restored.shard(s).injector()->remap_table(), remaps_before[s])
        << "shard " << s;
  }

  // Every address reads back exactly as it did before the round trip:
  // same payload when it was readable, same typed-fault class when not.
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr) {
    if (outcomes[addr].ok) {
      EXPECT_EQ(restored.read(addr), outcomes[addr].data) << "block " << addr;
    } else {
      EXPECT_THROW((void)restored.read(addr), QuarantinedBlockError)
          << "block " << addr;
    }
  }
}

TEST(CheckpointRestore, CheckpointBytesAreDeterministicPerSeed) {
  const ServiceConfig cfg = deterministic_fault_config();
  std::ostringstream a, b;
  {
    MemoryService service(cfg);
    (void)run_workload(service);
    service.checkpoint(a);
  }
  {
    MemoryService service(cfg);
    (void)run_workload(service);
    service.checkpoint(b);
  }
  EXPECT_EQ(a.str(), b.str());

  // A different fault seed must produce a different image (the checkpoint
  // really does reflect the faulted state, not just the written payloads).
  ServiceConfig other = cfg;
  other.fault_seed ^= 1;
  std::ostringstream c;
  MemoryService service(other);
  (void)run_workload(service);
  service.checkpoint(c);
  EXPECT_NE(a.str(), c.str());
}

TEST(CheckpointRestore, ShardCountMismatchIsRejected) {
  ServiceConfig cfg = deterministic_fault_config();
  cfg.fault_injection = false;
  MemoryService service(cfg);
  service.write(0, tagged_block(0, 0, service.block_bytes()));
  std::ostringstream out;
  service.checkpoint(out);

  ServiceConfig narrower = cfg;
  narrower.shards = 2;
  std::istringstream in(out.str());
  try {
    MemoryService restored(narrower, in);
    FAIL() << "expected shard count rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard count mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointRestore, ForeignFleetSeedIsRejected) {
  ServiceConfig cfg = deterministic_fault_config();
  cfg.fault_injection = false;
  MemoryService service(cfg);
  service.write(0, tagged_block(0, 0, service.block_bytes()));
  std::ostringstream out;
  service.checkpoint(out);

  ServiceConfig foreign = cfg;
  foreign.device_seed_base += 100;  // a different fleet's shards
  std::istringstream in(out.str());
  try {
    MemoryService restored(foreign, in);
    FAIL() << "expected device seed rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("device seed mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointRestore, GarbageAndTruncatedCheckpointsAreRejected) {
  ServiceConfig cfg = deterministic_fault_config();
  cfg.fault_injection = false;

  std::istringstream garbage("not a checkpoint at all");
  try {
    MemoryService restored(cfg, garbage);
    FAIL() << "expected bad magic rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }

  MemoryService service(cfg);
  service.write(0, tagged_block(0, 0, service.block_bytes()));
  std::ostringstream out;
  service.checkpoint(out);
  const std::string full = out.str();
  std::istringstream chopped(full.substr(0, full.size() / 2));
  try {
    MemoryService restored(cfg, chopped);
    FAIL() << "expected truncation rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated while reading"), std::string::npos)
        << e.what();
  }

  EXPECT_THROW(MemoryService(cfg, std::string("/nonexistent/dir/ckpt.bin")),
               std::runtime_error);
}

}  // namespace
}  // namespace spe::runtime
