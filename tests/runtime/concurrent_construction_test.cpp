// Concurrent service construction: MemoryService builds its shards on
// parallel builder threads, and each shard device's calibration is a
// single-flight build in core::get_calibration. These tests pin that the
// parallel build is indistinguishable from a serial one (same tables, same
// bytes, same failures) and that no physics solve is repeated or skipped.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/calibration.hpp"
#include "core/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "runtime/memory_service.hpp"
#include "util/single_flight.hpp"

namespace spe::runtime {
namespace {

constexpr unsigned kCellsPerDevice = 64;  // one nodal solve per 8x8 PoE cell

std::uint64_t xbar_solves() {
  return obs::MetricsRegistry::global().counter("spe_xbar_solves_total").value();
}

// Each test draws its own device seeds, so calibrations are built fresh
// even when every test runs in one process.
ServiceConfig fleet_config(std::uint64_t device_seed_base) {
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.worker_threads = 2;
  cfg.mode = core::SpeMode::Parallel;  // no background re-encryption
  cfg.scavenger_enabled = false;
  cfg.scrub_enabled = false;
  cfg.device_seed_base = device_seed_base;
  return cfg;
}

xbar::CrossbarParams shard_params(const ServiceConfig& cfg, unsigned shard) {
  return core::with_device_variation(cfg.shard_memory.base_params,
                                     cfg.device_seed_base + shard);
}

template <typename Fn>
void run_together(unsigned threads, Fn fn) {
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      fn(t);
    });
  for (std::thread& th : pool) th.join();
}

TEST(ConcurrentConstruction, CalibrationIsSingleFlightPerFingerprint) {
  const auto params = core::with_device_variation(xbar::CrossbarParams{}, 0xC0CA1);
  constexpr unsigned kThreads = 8;
  std::vector<const core::CipherCalibration*> seen(kThreads);
  const std::uint64_t before = xbar_solves();
  run_together(kThreads, [&](unsigned t) { seen[t] = core::get_calibration(params).get(); });
  EXPECT_EQ(xbar_solves() - before, kCellsPerDevice);
  for (const auto* cal : seen) EXPECT_EQ(cal, seen[0]);
  EXPECT_EQ(core::get_calibration(params).get(), seen[0]);
}

TEST(ConcurrentConstruction, SingleFlightCacheDoesNotKeepFailedBuilds) {
  util::SingleFlightCache<int, int> cache;
  std::atomic<unsigned> builds{0};
  std::atomic<unsigned> failures{0};
  run_together(4, [&](unsigned) {
    try {
      (void)cache.get(1, [&]() -> int {
        ++builds;
        throw std::runtime_error("transient");
      });
    } catch (const std::runtime_error&) {
      ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 4u);       // waiters see the builder's exception
  EXPECT_GE(builds.load(), 1u);
  const unsigned after_failures = builds.load();
  EXPECT_EQ(cache.get(1, [&] { ++builds; return 7; }), 7);  // retried, not cached
  EXPECT_EQ(cache.get(1, [&] { ++builds; return 8; }), 7);  // now cached
  EXPECT_EQ(builds.load(), after_failures + 1);
}

TEST(ConcurrentConstruction, ShardCalibrationsMatchADirectBuild) {
  const ServiceConfig cfg = fleet_config(0xCA1B0000);
  const std::uint64_t before = xbar_solves();
  MemoryService service(cfg);
  EXPECT_EQ(xbar_solves() - before, cfg.shards * kCellsPerDevice);

  for (unsigned s = 0; s < cfg.shards; ++s) {
    const auto params = shard_params(cfg, s);
    const std::uint64_t cached_before = xbar_solves();
    const auto cached = core::get_calibration(params);
    ASSERT_EQ(xbar_solves(), cached_before) << "shard " << s << " was not cached";
    const core::CipherCalibration direct(params);
    EXPECT_EQ(cached->fingerprint(), direct.fingerprint()) << "shard " << s;
    for (unsigned tier = 0; tier < core::CipherCalibration::kTiers; ++tier)
      EXPECT_EQ(cached->tier_attenuation(tier), direct.tier_attenuation(tier))
          << "shard " << s << " tier " << tier;
    for (unsigned cell = 0; cell < direct.cell_count(); ++cell) {
      EXPECT_EQ(cached->shape(cell).cells, direct.shape(cell).cells) << "shard " << s;
      EXPECT_EQ(cached->shape(cell).tiers, direct.shape(cell).tiers) << "shard " << s;
    }
    for (unsigned code = 0; code < direct.library().size(); ++code)
      for (unsigned tier = 0; tier < core::CipherCalibration::kTiers; ++tier) {
        EXPECT_EQ(cached->perm(code, tier), direct.perm(code, tier)) << "shard " << s;
        EXPECT_EQ(cached->inv_perm(code, tier), direct.inv_perm(code, tier))
            << "shard " << s;
      }
  }
}

std::string checkpoint_after_writes(const ServiceConfig& cfg) {
  MemoryService service(cfg);
  for (std::uint64_t addr = 0; addr < 64; ++addr) {
    std::vector<std::uint8_t> data(service.block_bytes());
    for (unsigned i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>(13 * addr + 7 * i);
    service.write(addr, data);
  }
  std::ostringstream out;
  service.checkpoint(out);
  return out.str();
}

TEST(ConcurrentConstruction, ServicesFromOneConfigCheckpointIdentically) {
  const ServiceConfig cfg = fleet_config(0xC4EC0000);
  const std::string first = checkpoint_after_writes(cfg);
  const std::string second = checkpoint_after_writes(cfg);
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(first == second) << "checkpoints differ (" << first.size() << " vs "
                               << second.size() << " bytes)";
}

TEST(ConcurrentConstruction, RestoreFromAnotherFleetThrowsAfterJoiningBuilders) {
  const std::string blob = checkpoint_after_writes(fleet_config(0xF1EE0000));
  std::istringstream in(blob);
  try {
    MemoryService restored(fleet_config(0xF1EE1000), in);
    FAIL() << "restore onto a different fleet must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("device seed mismatch"), std::string::npos)
        << e.what();
  }
  // Reaching this line at all means every builder thread was joined before
  // the exception left the constructor (a joinable std::thread terminates).
  // The original fleet still restores from the same bytes.
  std::istringstream again(blob);
  MemoryService restored(fleet_config(0xF1EE0000), again);
  EXPECT_EQ(restored.recovery_report().shards.size(), 8u);
}

TEST(ConcurrentConstruction, DecryptWidthsMatchPinnedValues) {
  // Computed on demand now; the values are those the eagerly built table
  // held, pinned bit-for-bit.
  const auto cal = core::get_calibration(xbar::CrossbarParams{});
  struct Pin {
    unsigned code;
    unsigned tier;
    double width;
  };
  const Pin pins[] = {
      {10, 0, 0x1.4c305a3adef92p-27},  // 9.668 ns
      {12, 0, 0x1.bc98a222d5171p-27},  // 12.94 ns
      {14, 0, 0x1.189953f97c584p-26},  // 16.33 ns
      {3, 1, 0x1.c8571c4687a3cp-29},   // 3.320 ns
      {20, 2, 0x1.3ec460ed80a18p-25},  // 37.11 ns
  };
  for (const Pin& pin : pins)
    EXPECT_EQ(cal->decrypt_width(pin.code, pin.tier), pin.width)
        << "code " << pin.code << " tier " << pin.tier;
  EXPECT_THROW((void)cal->decrypt_width(cal->library().size(), 0), std::out_of_range);
  EXPECT_THROW((void)cal->decrypt_width(0, core::CipherCalibration::kTiers),
               std::out_of_range);
}

}  // namespace
}  // namespace spe::runtime
