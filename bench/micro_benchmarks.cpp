// Google-benchmark microbenchmarks: throughput of the building blocks —
// SPE encrypt/decrypt, the key-stream PRNG, AES and Trivium baselines, the
// crossbar nodal solve, calibration, and the placement ILP.

#include <benchmark/benchmark.h>

#include "core/datasets.hpp"
#include "crypto/aes.hpp"
#include "crypto/stream_cipher.hpp"
#include "ilp/poe_placement.hpp"
#include "nist/suite.hpp"
#include "sim/system.hpp"
#include "xbar/sneak_path.hpp"

namespace {

using namespace spe;

const std::shared_ptr<const core::CipherCalibration>& shared_cal() {
  static const auto cal = core::get_calibration(xbar::CrossbarParams{});
  return cal;
}

void BM_SpeEncryptUnit(benchmark::State& state) {
  const core::SpeCipher cipher(core::SpeKey{0x1234, 0x5678}, shared_cal());
  std::vector<std::uint8_t> pt(16, 0xA5), ct(16);
  for (auto _ : state) {
    pt[0] = static_cast<std::uint8_t>(state.iterations());
    cipher.encrypt_bytes(pt, ct);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SpeEncryptUnit);

void BM_SpeRoundTripUnit(benchmark::State& state) {
  const core::SpeCipher cipher(core::SpeKey{0x1234, 0x5678}, shared_cal());
  std::vector<std::uint8_t> pt(16, 0x3C);
  core::UnitLevels levels = cipher.levels_from_bytes(pt);
  for (auto _ : state) {
    cipher.encrypt(levels);
    cipher.decrypt(levels);
    benchmark::DoNotOptimize(levels);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SpeRoundTripUnit);

void BM_CoupledLcg(benchmark::State& state) {
  util::CoupledLcg prng(0xBEEF);
  for (auto _ : state) benchmark::DoNotOptimize(prng.next_bits(32));
}
BENCHMARK(BM_CoupledLcg);

void BM_KeySchedule(benchmark::State& state) {
  const core::AddressLut lut(core::default_poes_8x8(), 8, 8);
  const core::VoltageLut volts;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const core::KeySchedule schedule(core::SpeKey{seed++, 7}, lut, volts);
    benchmark::DoNotOptimize(schedule.steps().data());
  }
}
BENCHMARK(BM_KeySchedule);

void BM_Aes128Block(benchmark::State& state) {
  const std::array<std::uint8_t, 16> key{1, 2, 3, 4, 5, 6, 7, 8};
  const crypto::Aes128 aes(key);
  std::array<std::uint8_t, 16> block{};
  for (auto _ : state) {
    aes.encrypt_block(std::span<std::uint8_t, 16>(block));
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes128Block);

void BM_TriviumByte(benchmark::State& state) {
  const std::array<std::uint8_t, 10> key{1, 2, 3}, iv{4, 5, 6};
  crypto::Trivium trivium(key, iv);
  for (auto _ : state) benchmark::DoNotOptimize(trivium.next_byte());
  state.SetBytesProcessed(state.iterations());
}
BENCHMARK(BM_TriviumByte);

void BM_NodalSolve8x8(benchmark::State& state) {
  xbar::Crossbar xb;
  xb.set_all_gates(true);
  for (auto _ : state) {
    const auto sol = xbar::solve_poe(xb, {3, 4}, 1.0);
    benchmark::DoNotOptimize(sol.cell_voltage(0, 0));
  }
}
BENCHMARK(BM_NodalSolve8x8);

void BM_PhysicalPoePulse(benchmark::State& state) {
  xbar::Crossbar xb;
  for (unsigned i = 0; i < 64; ++i) xb.cell(i).memristor().set_state(0.5);
  const device::Pulse pulse{1.0, 0.05e-6};
  for (auto _ : state) {
    const auto sol = xbar::apply_poe_pulse(xb, {3, 4}, pulse);
    benchmark::DoNotOptimize(sol.cell_voltage(3, 4));
  }
}
BENCHMARK(BM_PhysicalPoePulse);

void BM_Calibration(benchmark::State& state) {
  xbar::CrossbarParams params;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    // Unique params per iteration to defeat the cache.
    const auto p = core::with_device_variation(params, ++seed);
    const core::CipherCalibration cal(p);
    benchmark::DoNotOptimize(cal.fingerprint());
  }
}
BENCHMARK(BM_Calibration)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_IlpFixedPlacement(benchmark::State& state) {
  ilp::PortfolioOptions opt;
  opt.base.node_limit = 500'000;
  for (auto _ : state) {
    const auto placement = ilp::solve_fixed_poes_portfolio(8, 8, 12, opt);
    benchmark::DoNotOptimize(placement.feasible);
  }
}
BENCHMARK(BM_IlpFixedPlacement)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_NistSuite64k(benchmark::State& state) {
  util::Xoshiro256ss rng(1);
  util::BitVector bits;
  for (int i = 0; i < 1024; ++i) bits.append_bits(rng(), 64);
  for (auto _ : state) {
    const auto results = nist::run_all(bits);
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_NistSuite64k)->Unit(benchmark::kMillisecond);

void BM_SimulateWorkload(benchmark::State& state) {
  sim::SimConfig cfg;
  cfg.instructions = 200'000;
  for (auto _ : state) {
    const auto result =
        sim::simulate(sim::workload_by_name("bzip2"), core::Scheme::SpeSerial, cfg);
    benchmark::DoNotOptimize(result.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_SimulateWorkload)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
