// Kill-point crash recovery: MemoryService::capture_kill_points returns one
// checkpoint image per intent-journal transition of the target shard
// (exactly what a power loss at that instant would leave in the array, with
// the other shards at their pre-op state); each test restores a fresh
// MemoryService from one such image and asserts the journal recovery
// classifies and repairs the torn operation correctly.

#include <gtest/gtest.h>

#include <cstdint>
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

ServiceConfig crash_config(core::SpeMode mode) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.worker_threads = 2;
  cfg.queue_capacity = 64;
  cfg.mode = mode;
  // Deterministic journals: only the operation under test may touch the
  // target shard while the hook is armed.
  cfg.scavenger_enabled = false;
  cfg.scrub_enabled = false;
  cfg.retry_backoff_base = std::chrono::microseconds{0};
  return cfg;
}

constexpr std::uint64_t kBlocks = 32;
constexpr std::uint64_t kAddr = 5;

void fill_initial(MemoryService& service) {
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr)
    service.write(addr, tagged_block(addr, 0, service.block_bytes()));
}

// A write is Program begin + one advance per unit, then Encrypt begin + one
// advance per pulse, then commit. A snapshot taken inside the encrypt tail
// must replay forward: the plaintext was fully programmed, so resuming the
// pulse sequence from the logged index yields the in-flight payload.
TEST(CrashRecovery, MidEncryptSnapshotReplaysForward) {
  ServiceConfig cfg = crash_config(core::SpeMode::Parallel);
  MemoryService service(cfg);
  fill_initial(service);
  const unsigned target = service.shard_of(kAddr);
  const auto v1 = tagged_block(kAddr, 1, service.block_bytes());

  const auto snapshots = service.capture_kill_points(
      target, [&] { service.write(kAddr, v1); });
  // Program phase + encrypt phase + commit; well over 10 kill points.
  ASSERT_GT(snapshots.size(), 10u);
  const std::size_t mid_encrypt = snapshots.size() - 10;  // inside the pulse tail

  std::istringstream in(snapshots[mid_encrypt]);
  MemoryService restored(cfg, in);

  const ShardRecovery totals = restored.recovery_report().totals();
  EXPECT_EQ(totals.replayed_forward, 1u);
  EXPECT_EQ(totals.rolled_back, 0u);
  EXPECT_EQ(totals.torn_quarantined, 0u);
  EXPECT_EQ(totals.crc_quarantined, 0u);
  // The interrupted write completed during recovery: the new payload reads
  // back bit-exactly, and every untouched block kept its old contents.
  EXPECT_EQ(restored.read(kAddr), v1);
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr) {
    if (addr == kAddr) continue;
    EXPECT_EQ(restored.read(addr),
              tagged_block(addr, 0, restored.block_bytes()))
        << "block " << addr;
  }
}

// A snapshot inside the program phase is unrecoverable — the old contents
// are gone and the new ones are incomplete. Recovery must quarantine the
// block (reads throw the typed TornBlockError, never stale or garbled
// data), and a rewrite lifts the quarantine.
TEST(CrashRecovery, MidProgramSnapshotIsTornAndRewriteLifts) {
  ServiceConfig cfg = crash_config(core::SpeMode::Parallel);
  MemoryService service(cfg);
  fill_initial(service);
  const unsigned target = service.shard_of(kAddr);

  const auto snapshots = service.capture_kill_points(target, [&] {
    service.write(kAddr, tagged_block(kAddr, 1, service.block_bytes()));
  });
  ASSERT_GT(snapshots.size(), 4u);

  std::istringstream in(snapshots[2]);  // after the second unit's program pulse
  MemoryService restored(cfg, in);

  const ShardRecovery totals = restored.recovery_report().totals();
  EXPECT_EQ(totals.torn_quarantined, 1u);
  EXPECT_EQ(totals.replayed_forward, 0u);
  EXPECT_FALSE(restored.recovery_report().clean());

  try {
    (void)restored.read(kAddr);
    FAIL() << "expected TornBlockError";
  } catch (const TornBlockError& e) {
    EXPECT_EQ(e.block_addr(), kAddr);
    EXPECT_EQ(e.shard(), target);
  }
  // A rewrite remaps the block and lifts the quarantine.
  const auto v2 = tagged_block(kAddr, 2, restored.block_bytes());
  restored.write(kAddr, v2);
  EXPECT_EQ(restored.read(kAddr), v2);
  EXPECT_FALSE(restored.shard(target).quarantine_reason(kAddr).has_value());
}

// Serial-mode reads decrypt in place; the journal carries the encrypted
// pre-image, so a crash mid-decrypt rolls back to the encrypted resting
// state and no data is lost.
TEST(CrashRecovery, MidDecryptSnapshotRollsBack) {
  ServiceConfig cfg = crash_config(core::SpeMode::Serial);
  MemoryService service(cfg);
  fill_initial(service);
  const unsigned target = service.shard_of(kAddr);

  const auto snapshots = service.capture_kill_points(
      target, [&] { (void)service.read(kAddr); });
  // Decrypt begin + one advance per pulse + commit.
  ASSERT_GT(snapshots.size(), 4u);

  std::istringstream in(snapshots[snapshots.size() / 2]);  // mid-decrypt
  MemoryService restored(cfg, in);

  const ShardRecovery totals = restored.recovery_report().totals();
  EXPECT_EQ(totals.rolled_back, 1u);
  EXPECT_EQ(totals.torn_quarantined, 0u);
  EXPECT_EQ(restored.read(kAddr),
            tagged_block(kAddr, 0, restored.block_bytes()));
}

// A checkpoint taken at a quiescent point has an empty journal: recovery
// finds nothing to do and every block reads back bit-exactly.
TEST(CrashRecovery, QuiescentCheckpointRestoresClean) {
  ServiceConfig cfg = crash_config(core::SpeMode::Parallel);
  MemoryService service(cfg);
  fill_initial(service);

  std::ostringstream out;
  service.checkpoint(out);
  std::istringstream in(out.str());
  MemoryService restored(cfg, in);

  const RecoveryReport& report = restored.recovery_report();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.totals().journal_entries, 0u);
  EXPECT_EQ(report.totals().clean_blocks, kBlocks);
  EXPECT_NE(report.to_string().find("recovery:"), std::string::npos);
  for (std::uint64_t addr = 0; addr < kBlocks; ++addr)
    EXPECT_EQ(restored.read(addr), tagged_block(addr, 0, restored.block_bytes()));
}

// File-based round trip of the same thing (checkpoint_file + path ctor).
TEST(CrashRecovery, CheckpointFileRoundTrips) {
  ServiceConfig cfg = crash_config(core::SpeMode::Parallel);
  cfg.shards = 2;
  MemoryService service(cfg);
  for (std::uint64_t addr = 0; addr < 8; ++addr)
    service.write(addr, tagged_block(addr, 0, service.block_bytes()));
  const std::string path = ::testing::TempDir() + "spe_checkpoint_test.bin";
  service.checkpoint_file(path);

  MemoryService restored(cfg, path);
  EXPECT_TRUE(restored.recovery_report().clean());
  for (std::uint64_t addr = 0; addr < 8; ++addr)
    EXPECT_EQ(restored.read(addr), tagged_block(addr, 0, restored.block_bytes()));
}

// An intent journaled under one key schedule cannot be replayed under
// another: restoring a mid-encrypt snapshot with a different key seed must
// detect the epoch mismatch and quarantine the block as torn rather than
// resume the pulse sequence with the wrong schedule.
TEST(CrashRecovery, EpochMismatchQuarantinesInsteadOfReplaying) {
  ServiceConfig cfg = crash_config(core::SpeMode::Parallel);
  MemoryService service(cfg);
  fill_initial(service);
  const unsigned target = service.shard_of(kAddr);

  const auto snapshots = service.capture_kill_points(target, [&] {
    service.write(kAddr, tagged_block(kAddr, 1, service.block_bytes()));
  });
  ASSERT_GT(snapshots.size(), 10u);

  std::istringstream in(snapshots[snapshots.size() - 10]);  // mid-encrypt
  ServiceConfig other_key = cfg;
  other_key.key_seed = cfg.key_seed ^ 0xDEADBEEF;
  MemoryService restored(other_key, in);

  const ShardRecovery totals = restored.recovery_report().totals();
  EXPECT_EQ(totals.replayed_forward, 0u);
  EXPECT_EQ(totals.torn_quarantined, 1u);
  EXPECT_THROW((void)restored.read(kAddr), TornBlockError);
}

}  // namespace
}  // namespace spe::runtime
