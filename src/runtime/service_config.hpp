#pragma once
// Configuration for the sharded SPE memory service (src/runtime). The
// service fronts N independent bank shards — each one Snvmm + Specu pair,
// all provisioned from one TPM — behind a fixed-size worker pool, and runs
// the paper's SPE-serial background engine (Section 4.1) as a scavenger
// thread with a tunable duty cycle.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/snvmm.hpp"
#include "core/specu.hpp"
#include "fault/fault_plan.hpp"
#include "tenant/registry.hpp"

namespace spe::runtime {

/// What submit_read / submit_write do when the target shard's queue is at
/// capacity.
enum class BackpressurePolicy {
  Block,   ///< producer waits until the worker drains a slot
  Reject,  ///< submit throws QueueFullError immediately
};

/// Typed rejection raised under BackpressurePolicy::Reject when the target
/// shard's queue is at capacity. (Submits racing a shutdown get
/// ServiceStoppedError instead.)
class QueueFullError : public std::runtime_error {
public:
  QueueFullError(unsigned shard, std::size_t depth)
      : std::runtime_error("spe::runtime: shard " + std::to_string(shard) +
                           " queue full (depth " + std::to_string(depth) + ")"),
        shard_(shard),
        depth_(depth) {}

  [[nodiscard]] unsigned shard() const noexcept { return shard_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

private:
  unsigned shard_;
  std::size_t depth_;
};

/// The service has been stopped (or is stopping). Raised by submits that
/// race or follow stop(), and set on any still-queued futures the shutdown
/// drained — a client blocked on .get() across a stop() sees this typed
/// error rather than a std::future_error from a broken promise.
class ServiceStoppedError : public std::runtime_error {
public:
  explicit ServiceStoppedError(unsigned shard)
      : std::runtime_error("spe::runtime: service stopped (shard " +
                           std::to_string(shard) + "); request not executed"),
        shard_(shard) {}

  [[nodiscard]] unsigned shard() const noexcept { return shard_; }

private:
  unsigned shard_;
};

/// A read hit faults the SEC-DED planes could not correct, even after the
/// bounded re-read retries; the block has been quarantined. A later write
/// to the address remaps it to a spare physical location and lifts the
/// quarantine.
class UncorrectableFaultError : public std::runtime_error {
public:
  UncorrectableFaultError(unsigned shard, std::uint64_t block_addr)
      : std::runtime_error("spe::runtime: uncorrectable fault in block " +
                           std::to_string(block_addr) + " (shard " +
                           std::to_string(shard) + "); block quarantined"),
        shard_(shard),
        block_addr_(block_addr) {}

  [[nodiscard]] unsigned shard() const noexcept { return shard_; }
  [[nodiscard]] std::uint64_t block_addr() const noexcept { return block_addr_; }

private:
  unsigned shard_;
  std::uint64_t block_addr_;
};

/// Read of a block that is currently quarantined (fails fast, no sense).
class QuarantinedBlockError : public std::runtime_error {
public:
  QuarantinedBlockError(unsigned shard, std::uint64_t block_addr)
      : std::runtime_error("spe::runtime: block " + std::to_string(block_addr) +
                           " (shard " + std::to_string(shard) +
                           ") is quarantined; rewrite it to remap"),
        shard_(shard),
        block_addr_(block_addr) {}

  [[nodiscard]] unsigned shard() const noexcept { return shard_; }
  [[nodiscard]] std::uint64_t block_addr() const noexcept { return block_addr_; }

private:
  unsigned shard_;
  std::uint64_t block_addr_;
};

/// Read of a block that was caught mid-operation by a crash and could not
/// be replayed forward or rolled back (e.g. interrupted during the write
/// phase, or journaled under a different key-schedule epoch). The data is
/// unrecoverable; like a fault quarantine, a rewrite remaps and lifts it.
class TornBlockError : public std::runtime_error {
public:
  TornBlockError(unsigned shard, std::uint64_t block_addr)
      : std::runtime_error("spe::runtime: block " + std::to_string(block_addr) +
                           " (shard " + std::to_string(shard) +
                           ") was torn by a crash; rewrite it to remap"),
        shard_(shard),
        block_addr_(block_addr) {}

  [[nodiscard]] unsigned shard() const noexcept { return shard_; }
  [[nodiscard]] std::uint64_t block_addr() const noexcept { return block_addr_; }

private:
  unsigned shard_;
  std::uint64_t block_addr_;
};

/// Write would create a block the owning tenant has no quota headroom for
/// (tenant::TenantSpec::block_quota). Nothing was programmed; the request
/// can be retried after the tenant frees capacity or its quota is raised.
class QuotaExceededError : public std::runtime_error {
public:
  QuotaExceededError(unsigned shard, std::uint64_t block_addr, std::uint32_t tenant)
      : std::runtime_error("spe::runtime: tenant " + std::to_string(tenant) +
                           " over block quota writing block " +
                           std::to_string(block_addr) + " (shard " +
                           std::to_string(shard) + ")"),
        shard_(shard),
        block_addr_(block_addr),
        tenant_(tenant) {}

  [[nodiscard]] unsigned shard() const noexcept { return shard_; }
  [[nodiscard]] std::uint64_t block_addr() const noexcept { return block_addr_; }
  [[nodiscard]] std::uint32_t tenant() const noexcept { return tenant_; }

private:
  unsigned shard_;
  std::uint64_t block_addr_;
  std::uint32_t tenant_;
};

/// Observability knobs (src/obs wiring). Tracing is process-global — a
/// service whose config asks for it enables the global Tracer at
/// construction (restarting the trace session); metrics export needs no
/// opt-in.
struct ObsConfig {
  bool trace = false;               ///< enable the global Tracer at service start
  bool deterministic_trace = false; ///< logical ticks (golden-trace mode)
  bool trace_pulses = false;        ///< per-pulse journal.advance instants
  std::size_t trace_buffer_events = std::size_t{1} << 16;  ///< per-thread ring
};

struct ServiceConfig {
  unsigned shards = 8;          ///< independent Snvmm+Specu bank pairs
  unsigned worker_threads = 4;  ///< fixed pool; shard s is served by worker s % threads
  std::size_t queue_capacity = 1024;  ///< per-shard bounded MPSC queue
  BackpressurePolicy backpressure = BackpressurePolicy::Block;

  core::SpeMode mode = core::SpeMode::Serial;
  core::SnvmmConfig shard_memory = core::Snvmm::default_config();  ///< per-shard
  std::uint64_t device_seed_base = 1;  ///< shard s gets device_seed_base + s
  std::uint64_t key_seed = 0x5EC0DE;   ///< SpeKey derivation for TPM provisioning
  std::uint64_t platform_measurement = 0xB007C0DE;

  // SPE-serial scavenger (ignored in Parallel mode): every interval it
  // sweeps the shards and re-encrypts up to blocks_per_pass plaintext
  // blocks per shard.
  bool scavenger_enabled = true;
  std::chrono::microseconds scavenger_interval{500};
  unsigned scavenger_blocks_per_pass = 4;

  // --- resilience (SEC-DED plane code over stored levels, src/ecc) --------
  bool ecc_enabled = true;       ///< verify+correct levels on every read
  bool verify_writes = true;     ///< program-verify after each write, remap on failure
  /// Exponential backoff between ECC retries (up to 3 re-senses per read,
  /// 3 re-programs per write before a remap): base << attempt.
  std::chrono::microseconds retry_backoff_base{5};
  /// Scrub pass (piggybacked on the scavenger thread): per interval, each
  /// shard ages + ECC-verifies up to this many resident blocks in place.
  bool scrub_enabled = true;
  unsigned scrub_blocks_per_pass = 8;

  // --- deterministic fault injection (src/fault) --------------------------
  /// Off by default; when on, every shard gets a FaultInjector over one
  /// shared FaultPlan(fault_seed, faults), keyed by the shard's device id.
  bool fault_injection = false;
  std::uint64_t fault_seed = 0xFA117;
  fault::FaultModelConfig faults;

  // --- observability (src/obs: tracing, metrics) -------------------------
  ObsConfig obs;

  // --- multi-tenant key domains (src/tenant, DESIGN.md §15) ---------------
  /// Optional tenant registry. When set, every shard powers one extra Specu
  /// per registered tenant (its key derived per (tenant, epoch) and sealed
  /// in the TPM under a synthetic handle), blocks encrypt under their
  /// address-range owner's key domain, writes that create blocks charge the
  /// owner's block quota (QuotaExceededError when exhausted), and
  /// MemoryService::rotate_tenant_key drives online key rotation. Null (the
  /// default) keeps the single-tenant behaviour byte-for-byte: one default
  /// key domain, no quota checks, no extra state in checkpoints.
  std::shared_ptr<tenant::TenantRegistry> tenants;
};

}  // namespace spe::runtime
