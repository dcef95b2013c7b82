#pragma once
// Workloads of the repository benchmark: their shapes, the seeded op stream
// each load thread consumes, the shadow copy every read is checked against,
// and the closed loops that drive the in-process service and the wire path.
//
// A Deployment is one fully set-up system under test: a MemoryService (8
// shards, 2 workers), its preloaded blocks and, for the wire workload, a
// net::Server with two registered tenants and one connected v4 client per
// tenant. The benchmark builds several per run (set-up is itself measured)
// and drives the last one.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/specu.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/memory_service.hpp"
#include "tenant/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr unsigned kShards = 8;
inline constexpr unsigned kWorkers = 2;

struct WorkloadSpec {
  std::string name;
  bool wire = false;             ///< drive net::Server over loopback
  spe::core::SpeMode mode = spe::core::SpeMode::Serial;
  bool background = true;        ///< scavenger + scrub thread running
  unsigned blocks = 0;           ///< preloaded blocks per stream
  double zipf = 0.0;             ///< Zipf exponent over the blocks; 0 = uniform
  unsigned write_pct = 50;
  unsigned window = 32;          ///< ops outstanding per stream (closed loop)
  unsigned streams = 1;          ///< load threads (one per tenant on the wire)
};

/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// One generated operation: `index` is a block of the stream's range.
struct Op {
  bool write = false;
  unsigned index = 0;
};

/// The seeded, endless op sequence of one stream. The same (seed, stream)
/// always yields the same sequence.
class OpStream {
public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed, unsigned stream);
  [[nodiscard]] Op next();

private:
  spe::util::Xoshiro256ss rng_;
  unsigned blocks_;
  unsigned write_pct_;
  std::vector<double> cdf_;        ///< Zipf CDF over ranks (empty = uniform)
  std::vector<unsigned> rank_to_index_;
};

/// Shadow copy of one stream's block range. Versions count the writes
/// submitted per block (1 = the preload image); the image of a version is a
/// deterministic function of (seed, address, version). The service runs a
/// shard's requests in submission order, so a read must return the image of
/// the last write submitted before it.
class Shadow {
public:
  Shadow(std::uint64_t seed, std::uint64_t base, unsigned blocks, unsigned block_bytes);

  [[nodiscard]] std::uint64_t addr(unsigned index) const noexcept { return base_ + index; }
  [[nodiscard]] unsigned blocks() const noexcept {
    return static_cast<unsigned>(versions_.size());
  }
  [[nodiscard]] bool owns(std::uint64_t addr) const noexcept {
    return addr >= base_ && addr < base_ + versions_.size();
  }
  /// Records a write submission and returns the version it carries.
  std::uint32_t begin_write(unsigned index) noexcept { return ++versions_[index]; }
  [[nodiscard]] std::uint32_t current(unsigned index) const noexcept {
    return versions_[index];
  }
  [[nodiscard]] std::vector<std::uint8_t> image(unsigned index, std::uint32_t version) const;
  [[nodiscard]] bool matches(unsigned index, std::uint32_t version,
                             std::span<const std::uint8_t> data) const;
  /// Self-test hook: from now on the image `matches` expects for `index`
  /// differs from every image written, so the checker must flag the block.
  void corrupt(unsigned index) noexcept { corrupted_ = index; }

private:
  std::uint64_t seed_;
  std::uint64_t base_;
  unsigned block_bytes_;
  std::vector<std::uint32_t> versions_;
  std::optional<unsigned> corrupted_;
};

struct SetupTimes {
  double service_s = 0;       ///< MemoryService construction (calibration, TPM handshake)
  double preload_s = 0;
  double server_start_s = 0;  ///< server start + client connects (wire only)
  double total_s = 0;         ///< construction start to ready for the first op
  double xbar_solves = 0;     ///< spe_xbar_solves_total during construction
};

struct Deployment {
  WorkloadSpec spec;
  std::vector<Shadow> shadows;  ///< one per stream
  std::shared_ptr<spe::tenant::TenantRegistry> tenants;
  std::unique_ptr<spe::runtime::MemoryService> service;
  std::unique_ptr<spe::net::Server> server;
  std::vector<std::unique_ptr<spe::net::Client>> clients;  ///< one per stream
  SetupTimes times;
};

/// Builds, preloads and (for the wire) starts and connects a deployment.
/// Each call uses device seeds no earlier call in the process used, so every
/// set-up pays for calibration like a fresh process would.
[[nodiscard]] std::unique_ptr<Deployment> deploy(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 const spe::runtime::ObsConfig& obs);

/// Device seed for a parameter set no deployment has calibrated yet.
[[nodiscard]] std::uint64_t fresh_device_seed();

/// One submitted op, as the trace analysis needs it.
struct Submission {
  bool write = false;
  std::uint64_t addr = 0;
};

/// One client-observed latency, stamped with when the op completed.
struct Sample {
  std::uint64_t at_ns = 0;       ///< completion, since the phase started
  std::uint64_t latency_ns = 0;  ///< submit/send to future ready/response
};

/// What one measured phase did, as the clients saw it.
struct PhaseResult {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;      ///< typed failures and non-Ok statuses
  std::uint64_t mismatches = 0;  ///< reads whose data differs from the shadow
  std::vector<Sample> read_samples;
  std::vector<Sample> write_samples;
  double seconds = 0;
  double encrypted_fraction = 1.0;  ///< time average over the phase
  std::string first_error;
  /// Every op in submission order, stream after stream (when requested).
  std::vector<Submission> log;

  [[nodiscard]] std::uint64_t ops() const noexcept { return reads + writes; }
  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return reads + writes + failed;
  }
};

/// Drives the deployment closed-loop for `seconds`, then waits for every
/// outstanding op. `keep_log` records the submission order for the trace.
[[nodiscard]] PhaseResult run_phase(Deployment& dep, std::uint64_t seed, double seconds,
                                    bool keep_log);

struct ReadBack {
  std::uint64_t blocks = 0;
  std::uint64_t failures = 0;  ///< mismatches, typed errors, missing or unknown blocks
};

/// Reads every resident block through the service and compares it with the
/// shadow. Call after run_phase, with nothing in flight.
[[nodiscard]] ReadBack verify_resident(Deployment& dep);

/// Closes the clients and stops the server and the service, joining all of
/// their threads. Counters stay readable.
void quiesce(Deployment& dep);

}  // namespace perfbench
