// Tenant registry + key-domain tests (DESIGN.md §15): spec validation,
// address ownership, wire-token authentication, per-(tenant, epoch) key
// derivation, quota/admission accounting, and online key rotation through
// MemoryService — including a crash taken mid-rotation, where the restore
// path must re-learn the epoch from the shard checkpoints and finish the
// drain without losing a block.

#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "runtime/memory_service.hpp"
#include "tenant/registry.hpp"
#include "tenant/token.hpp"

namespace spe::tenant {
namespace {

TenantSpec make_spec(TenantId id, std::uint64_t begin, std::uint64_t end) {
  TenantSpec spec;
  spec.id = id;
  spec.ranges = {{begin, end}};
  spec.token_secret = 0x1000 + id;
  spec.key_seed = 0x2000 + id;
  return spec;
}

TEST(TenantRegistry, RejectsInvalidSpecs) {
  EXPECT_THROW(TenantRegistry({make_spec(0, 0, 8)}), std::invalid_argument);
  EXPECT_THROW(TenantRegistry({make_spec(1, 0, 8), make_spec(1, 8, 16)}),
               std::invalid_argument);
  EXPECT_THROW(TenantRegistry({make_spec(1, 8, 8)}), std::invalid_argument);
  EXPECT_THROW(TenantRegistry({make_spec(1, 16, 8)}), std::invalid_argument);
  // Ranges must be disjoint across tenants.
  EXPECT_THROW(TenantRegistry({make_spec(1, 0, 16), make_spec(2, 8, 24)}),
               std::invalid_argument);
}

TEST(TenantRegistry, OwnershipLookup) {
  const TenantRegistry reg({make_spec(1, 0, 16), make_spec(2, 32, 48)});
  EXPECT_EQ(reg.owner_of(0), 1u);
  EXPECT_EQ(reg.owner_of(15), 1u);
  EXPECT_EQ(reg.owner_of(16), kDefaultTenant);  // gap between ranges
  EXPECT_EQ(reg.owner_of(32), 2u);
  EXPECT_EQ(reg.owner_of(47), 2u);
  EXPECT_EQ(reg.owner_of(48), kDefaultTenant);
  EXPECT_TRUE(reg.known(1) && reg.known(2) && reg.known(kDefaultTenant));
  EXPECT_FALSE(reg.known(3));
  EXPECT_EQ(reg.ids(), (std::vector<TenantId>{1, 2}));
}

TEST(TenantRegistry, AuthenticatesWireTokens) {
  const TenantRegistry reg({make_spec(1, 0, 16)});
  const std::uint64_t secret = 0x1001;  // make_spec's secret for id 1
  const std::uint64_t good = make_token(secret, 1, /*request_id=*/7, /*opcode=*/2);
  EXPECT_TRUE(reg.authenticate(1, good, 7, 2));
  // Wrong secret, wrong request id, wrong opcode, replayed tenant id: all fail.
  EXPECT_FALSE(reg.authenticate(1, make_token(secret + 1, 1, 7, 2), 7, 2));
  EXPECT_FALSE(reg.authenticate(1, good, 8, 2));
  EXPECT_FALSE(reg.authenticate(1, good, 7, 3));
  EXPECT_FALSE(reg.authenticate(2, good, 7, 2));  // unknown tenant fails closed
  // The default domain needs no token (frames without the tenant extension).
  EXPECT_TRUE(reg.authenticate(kDefaultTenant, 0, 1, 1));
  // Failures against a known tenant are counted.
  EXPECT_GE(reg.counters(1).auth_failures.load(), 3u);
}

TEST(TenantToken, BindsAllFields) {
  const std::uint64_t t = make_token(1, 2, 3, 4);
  EXPECT_NE(t, make_token(9, 2, 3, 4));
  EXPECT_NE(t, make_token(1, 9, 3, 4));
  EXPECT_NE(t, make_token(1, 2, 9, 4));
  EXPECT_NE(t, make_token(1, 2, 3, 9));
  EXPECT_EQ(t, make_token(1, 2, 3, 4));  // deterministic
  EXPECT_TRUE(ct_equal(t, t));
  EXPECT_FALSE(ct_equal(t, t ^ 1));
}

TEST(TenantRegistry, DerivesIndependentKeys) {
  const TenantRegistry reg({make_spec(1, 0, 16), make_spec(2, 32, 48)});
  const core::SpeKey a0 = reg.derive_key(1, 0);
  EXPECT_EQ(a0, reg.derive_key(1, 0));          // deterministic
  EXPECT_NE(a0, reg.derive_key(2, 0));          // across tenants
  EXPECT_NE(a0, reg.derive_key(1, 1));          // across epochs
  EXPECT_NE(reg.derive_key(1, 1), reg.derive_key(2, 1));
}

TEST(TenantRegistry, KeyHandlesAreDisjointFromDeviceIds) {
  const std::uint64_t h = TenantRegistry::key_handle(3, 1, 0);
  EXPECT_NE(h >> 63, 0u);  // high bit forced: never collides with device ids
  EXPECT_NE(h, TenantRegistry::key_handle(4, 1, 0));
  EXPECT_NE(h, TenantRegistry::key_handle(3, 2, 0));
  EXPECT_NE(h, TenantRegistry::key_handle(3, 1, 1));
}

TEST(TenantRegistry, QuotaChargesAndReleases) {
  TenantSpec spec = make_spec(1, 0, 16);
  spec.block_quota = 2;
  TenantRegistry reg({spec});
  EXPECT_TRUE(reg.try_charge_block(1));
  EXPECT_TRUE(reg.try_charge_block(1));
  EXPECT_FALSE(reg.try_charge_block(1));
  EXPECT_EQ(reg.counters(1).quota_rejections.load(), 1u);
  reg.release_block(1);
  EXPECT_TRUE(reg.try_charge_block(1));
  // The default domain is unlimited.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(reg.try_charge_block(kDefaultTenant));
}

TEST(TenantRegistry, InflightAdmissionCap) {
  TenantSpec spec = make_spec(1, 0, 16);
  spec.max_inflight = 2;
  TenantRegistry reg({spec});
  EXPECT_TRUE(reg.try_acquire_inflight(1));
  EXPECT_TRUE(reg.try_acquire_inflight(1));
  EXPECT_FALSE(reg.try_acquire_inflight(1));
  EXPECT_EQ(reg.counters(1).admission_rejections.load(), 1u);
  reg.release_inflight(1);
  EXPECT_TRUE(reg.try_acquire_inflight(1));
}

TEST(TenantRegistry, EpochAdvanceAndRestore) {
  TenantRegistry reg({make_spec(1, 0, 16)});
  EXPECT_EQ(reg.key_epoch(1), 0u);
  EXPECT_EQ(reg.advance_epoch(1), 1u);
  EXPECT_EQ(reg.key_epoch(1), 1u);
  // restore_epoch is a CAS-max: it raises, never lowers.
  reg.restore_epoch(1, 5);
  EXPECT_EQ(reg.key_epoch(1), 5u);
  reg.restore_epoch(1, 3);
  EXPECT_EQ(reg.key_epoch(1), 5u);
  // The default domain's key is the device key; it does not rotate here.
  EXPECT_THROW(reg.advance_epoch(kDefaultTenant), std::invalid_argument);
  EXPECT_THROW(reg.advance_epoch(99), std::invalid_argument);
}

// --- rotation through the service ------------------------------------------

runtime::ServiceConfig rotation_config(std::shared_ptr<TenantRegistry> reg) {
  runtime::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.worker_threads = 1;
  cfg.scavenger_enabled = true;
  cfg.scavenger_interval = std::chrono::microseconds{200};
  cfg.tenants = std::move(reg);
  return cfg;
}

std::vector<std::uint8_t> pattern(std::uint64_t addr, unsigned block_bytes,
                                  unsigned generation) {
  std::vector<std::uint8_t> data(block_bytes);
  for (unsigned i = 0; i < block_bytes; ++i)
    data[i] = static_cast<std::uint8_t>(addr * 11 + i * 3 + generation * 97);
  return data;
}

bool drain_rotation(runtime::MemoryService& service, TenantId tenant) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.rotation_pending(tenant) != 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(TenantRotation, RotatesUnderLiveTrafficWithZeroFailedReads) {
  auto reg = std::make_shared<TenantRegistry>(
      std::vector<TenantSpec>{make_spec(1, 0, 64)});
  runtime::MemoryService service(rotation_config(reg));
  const unsigned bytes = service.block_bytes();
  for (std::uint64_t addr = 0; addr < 16; ++addr)
    service.write(addr, pattern(addr, bytes, 0));

  const auto result = service.rotate_tenant_key(1);
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(reg->key_epoch(1), 1u);
  EXPECT_LE(result.scheduled, 16u);

  // Old-epoch reads and new writes are served during the drain.
  for (std::uint64_t addr = 0; addr < 16; ++addr) {
    if (addr % 4 == 0) service.write(addr, pattern(addr, bytes, 1));
    const unsigned generation = (addr % 4 == 0) ? 1 : 0;
    EXPECT_EQ(service.read(addr), pattern(addr, bytes, generation)) << addr;
  }
  ASSERT_TRUE(drain_rotation(service, 1));
  for (std::uint64_t addr = 0; addr < 16; ++addr) {
    const unsigned generation = (addr % 4 == 0) ? 1 : 0;
    EXPECT_EQ(service.read(addr), pattern(addr, bytes, generation)) << addr;
  }
  EXPECT_EQ(reg->counters(1).rotations.load(), 1u);
  service.stop();
}

TEST(TenantRotation, SecondRotationChainsEpochs) {
  auto reg = std::make_shared<TenantRegistry>(
      std::vector<TenantSpec>{make_spec(1, 0, 64)});
  runtime::MemoryService service(rotation_config(reg));
  const unsigned bytes = service.block_bytes();
  for (std::uint64_t addr = 0; addr < 8; ++addr)
    service.write(addr, pattern(addr, bytes, 0));
  EXPECT_EQ(service.rotate_tenant_key(1).epoch, 1u);
  ASSERT_TRUE(drain_rotation(service, 1));
  EXPECT_EQ(service.rotate_tenant_key(1).epoch, 2u);
  ASSERT_TRUE(drain_rotation(service, 1));
  for (std::uint64_t addr = 0; addr < 8; ++addr)
    EXPECT_EQ(service.read(addr), pattern(addr, bytes, 0)) << addr;
  service.stop();
}

// A drained rotation retires the old-epoch controller. Its pulses stay in
// the exported cipher counters: a counter never goes backwards.
TEST(TenantRotation, DrainedRotationKeepsPulseCountersMonotonic) {
  auto reg = std::make_shared<TenantRegistry>(
      std::vector<TenantSpec>{make_spec(1, 0, 64)});
  runtime::MemoryService service(rotation_config(reg));
  const unsigned bytes = service.block_bytes();
  for (std::uint64_t addr = 0; addr < 16; ++addr) {
    service.write(addr, pattern(addr, bytes, 0));
    EXPECT_EQ(service.read(addr), pattern(addr, bytes, 0)) << addr;
  }
  const auto pulses = [&] {
    obs::MetricsRegistry registry;
    service.fill_metrics(registry);
    return registry.at<obs::Counter>("spe_encrypt_pulses_total").value() +
           registry.at<obs::Counter>("spe_decrypt_pulses_total").value();
  };
  const std::uint64_t before = pulses();
  ASSERT_GT(before, 0u);
  const auto result = service.rotate_tenant_key(1);
  ASSERT_TRUE(drain_rotation(service, 1));
  const std::uint64_t after = pulses();
  EXPECT_GE(after, before);
  if (result.scheduled > 0) {
    EXPECT_GT(after, before) << "the drain decrypts and re-encrypts "
                             << result.scheduled << " blocks";
  }
  service.stop();
}

TEST(TenantRotation, RejectsUnknownAndUnregisteredTenants) {
  auto reg = std::make_shared<TenantRegistry>(
      std::vector<TenantSpec>{make_spec(1, 0, 64)});
  runtime::MemoryService service(rotation_config(reg));
  EXPECT_THROW((void)service.rotate_tenant_key(99), std::invalid_argument);
  service.stop();
  runtime::ServiceConfig plain;
  plain.shards = 1;
  plain.worker_threads = 1;
  runtime::MemoryService single(plain);
  EXPECT_THROW((void)single.rotate_tenant_key(1), std::logic_error);
  single.stop();
}

TEST(TenantRotation, CrashMidRotationRestoresEpochAndFinishesDrain) {
  const std::vector<TenantSpec> specs{make_spec(1, 0, 64)};
  std::string image;
  {
    auto reg = std::make_shared<TenantRegistry>(specs);
    runtime::MemoryService service(rotation_config(reg));
    const unsigned bytes = service.block_bytes();
    for (std::uint64_t addr = 0; addr < 16; ++addr)
      service.write(addr, pattern(addr, bytes, 0));
    ASSERT_EQ(service.rotate_tenant_key(1).epoch, 1u);
    // Checkpoint immediately: the drain is (very likely) still in flight,
    // so the image carries blocks under both epochs plus the rotating list.
    std::ostringstream out;
    service.checkpoint(out);
    image = out.str();
    service.stop();
  }
  // A fresh registry knows nothing of the rotation (epoch 0); the restore
  // path must re-learn epoch 1 from the shard checkpoints.
  auto reg = std::make_shared<TenantRegistry>(specs);
  std::istringstream in(image);
  runtime::MemoryService restored(rotation_config(reg), in);
  EXPECT_EQ(reg->key_epoch(1), 1u);
  ASSERT_TRUE(drain_rotation(restored, 1));
  const unsigned bytes = restored.block_bytes();
  for (std::uint64_t addr = 0; addr < 16; ++addr)
    EXPECT_EQ(restored.read(addr), pattern(addr, bytes, 0)) << addr;
  // Quota accounting was recounted from the surviving blocks.
  EXPECT_EQ(reg->counters(1).resident_blocks.load(), 16u);
  restored.stop();
}

TEST(TenantQuota, ServiceWritesBounceOverQuota) {
  TenantSpec spec = make_spec(1, 0, 64);
  spec.block_quota = 4;
  auto reg = std::make_shared<TenantRegistry>(std::vector<TenantSpec>{spec});
  runtime::MemoryService service(rotation_config(reg));
  const unsigned bytes = service.block_bytes();
  for (std::uint64_t addr = 0; addr < 4; ++addr)
    service.write(addr, pattern(addr, bytes, 0));
  EXPECT_THROW(service.write(4, pattern(4, bytes, 0)),
               runtime::QuotaExceededError);
  // Rewriting a resident block is not a new charge.
  service.write(0, pattern(0, bytes, 1));
  EXPECT_EQ(service.read(0), pattern(0, bytes, 1));
  EXPECT_GE(reg->counters(1).quota_rejections.load(), 1u);
  service.stop();
}

}  // namespace
}  // namespace spe::tenant
