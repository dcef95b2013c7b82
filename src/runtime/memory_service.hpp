#pragma once
// The sharded SPE memory service: N BankShards behind a fixed-size worker
// pool plus one background re-encryption scavenger. Block addresses hash
// onto shards; shard s is always served by worker s % worker_threads, so a
// shard's requests execute in submission order on one thread while distinct
// shards proceed in parallel. submit_read / submit_write return futures;
// read / write are the blocking conveniences.
//
// Threading model
//   producers (any thread) --push--> per-shard bounded queue --drain-->
//   worker (one per shard group) --> Snvmm+Specu under the shard mutex
//   scavenger (one thread) sweeps shards: Specu::background_encrypt
//
// The only cross-shard shared state is the TPM (read-only after
// construction) and the calibration cache (internally synchronised).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/tpm.hpp"
#include "obs/metrics.hpp"
#include "runtime/recovery.hpp"
#include "runtime/service_config.hpp"
#include "runtime/shard.hpp"

namespace spe::runtime {

class MemoryService {
public:
  /// Builds the shards, provisions and powers them from an internal TPM,
  /// and starts the worker + scavenger threads. Throws std::runtime_error
  /// if any shard fails the power-on handshake.
  explicit MemoryService(ServiceConfig config = {});

  /// Restore constructors: rebuild the whole fleet from a checkpoint()
  /// stream/file, power the shards back on, run journal recovery on each
  /// (see recovery_report()), and only then start the worker + scavenger
  /// threads. `config` must describe the same fleet shape (shard count,
  /// seeds) the checkpoint was taken from.
  MemoryService(ServiceConfig config, std::istream& checkpoint);
  MemoryService(ServiceConfig config, const std::string& checkpoint_path);

  ~MemoryService();

  MemoryService(const MemoryService&) = delete;
  MemoryService& operator=(const MemoryService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] unsigned block_bytes() const noexcept { return shards_[0]->block_bytes(); }
  [[nodiscard]] unsigned shard_of(std::uint64_t block_addr) const noexcept;

  /// Expected queue wait for a request submitted to `shard` right now:
  /// current queue depth × the shard's EWMA per-request execution time.
  /// A statistical estimate (both inputs are relaxed reads) — the serving
  /// layer's deadline-aware load shedding compares it against an op's
  /// declared deadline, where an occasional misestimate only costs one
  /// retry, never correctness.
  [[nodiscard]] std::uint64_t estimated_queue_wait_ns(unsigned shard) const noexcept {
    if (shard >= shards_.size()) return 0;
    const std::uint64_t depth = shards_[shard]->queue().depth();
    const std::uint64_t avg = shards_[shard]->counters().avg_execute_ns.load(
        std::memory_order_relaxed);
    return depth * avg;
  }

  /// Async API. The future resolves once the shard worker has executed the
  /// operation (QueueFullError propagates out of submit itself under the
  /// Reject policy or after stop()).
  [[nodiscard]] std::future<std::vector<std::uint8_t>> submit_read(std::uint64_t block_addr);
  [[nodiscard]] std::future<void> submit_write(std::uint64_t block_addr,
                                               std::span<const std::uint8_t> data);

  /// Batch submits: one future per address, pushed in argument order (so a
  /// shard's requests land back-to-back and its worker drains them in one
  /// pass).
  /// `data` carries addrs.size() * block_bytes() bytes, block i at offset
  /// i * block_bytes(). Never throws mid-batch: an entry bounced by Reject
  /// backpressure (or a racing stop()) resolves its own future with the
  /// error, leaving the other entries queued — the result always has
  /// addrs.size() futures.
  [[nodiscard]] std::vector<std::future<std::vector<std::uint8_t>>> submit_read_batch(
      std::span<const std::uint64_t> addrs);
  [[nodiscard]] std::vector<std::future<void>> submit_write_batch(
      std::span<const std::uint64_t> addrs, std::span<const std::uint8_t> data);

  /// Blocking conveniences.
  [[nodiscard]] std::vector<std::uint8_t> read(std::uint64_t block_addr);
  void write(std::uint64_t block_addr, std::span<const std::uint8_t> data);

  /// Drains every queue, fulfils outstanding futures, and joins all
  /// threads; any request still queued after the final drain (shutdown
  /// races) fails with ServiceStoppedError rather than a broken promise.
  /// Idempotent and safe to call from several threads at once: exactly one
  /// caller runs the shutdown, the rest block until it completes. The
  /// destructor calls it.
  void stop();

  // --- crash consistency ----------------------------------------------------

  /// Serialises every shard's durable state (v2 image incl. the intent
  /// journal, quarantine map, remap table) into one checkpoint stream. Safe
  /// against concurrent workers (per-shard locking), but for a quiescent
  /// point-in-time image settle outstanding futures first.
  void checkpoint(std::ostream& out) const;
  void checkpoint_file(const std::string& path) const;

  /// Kill-point capture: runs `op` with the crash hook armed on shard
  /// `shard_id` and returns one checkpoint image per intent-journal
  /// transition that shard made, in order. Each image is that shard's
  /// durable state at the transition plus every other shard's state from
  /// just before `op` — what a power loss at that instant would leave.
  /// Restore one with the istream constructor. `op` must finish its work
  /// before returning, and nothing else may touch the shard meanwhile; an
  /// exception from `op` propagates after the hook is disarmed.
  [[nodiscard]] std::vector<std::string> capture_kill_points(
      unsigned shard_id, const std::function<void()>& op);

  /// Outcome of the journal recovery a restore constructor ran; empty
  /// shards vector for a service that was built fresh.
  [[nodiscard]] const RecoveryReport& recovery_report() const noexcept {
    return recovery_report_;
  }

  /// Sorted addresses of every resident block across all shards (per-shard
  /// locking; quiesce for a point-in-time answer).
  [[nodiscard]] std::vector<std::uint64_t> resident_blocks() const;

  /// Resident-weighted encrypted fraction across all shards (1.0 if empty);
  /// reads only each shard's resident and plaintext counts.
  [[nodiscard]] double encrypted_fraction() const;

  // --- observability (src/obs wiring; DESIGN.md §9) -------------------------

  /// Registers every documented spe_* metric into `registry`, reading each
  /// shard's instruments (ShardCounters) once: per-shard series plus
  /// saturating totals. Then folds in the process-global registry (journal /
  /// crossbar / recovery counters). Consumers read values back by name with
  /// MetricsRegistry::at.
  void fill_metrics(obs::MetricsRegistry& registry) const;

  /// fill_metrics() into a fresh registry, rendered as Prometheus text or
  /// one JSON object (deterministic, name-sorted either way).
  [[nodiscard]] std::string export_metrics(
      obs::MetricsFormat format = obs::MetricsFormat::Prometheus) const;

  /// Synchronous full scrub pass: every shard ages + SEC-DED-verifies each
  /// of its resident blocks exactly once. Returns total blocks scrubbed.
  /// Deterministic when the background scavenger/scrub thread is disabled —
  /// this is what the fault campaign uses for replayable reports.
  unsigned scrub_all();

  // --- multi-tenant key domains (src/tenant; DESIGN.md §15) ------------------

  struct RotationResult {
    std::uint64_t epoch = 0;      ///< the new key epoch
    std::uint64_t scheduled = 0;  ///< blocks queued for re-encryption
  };

  /// Online key rotation for a registered tenant: advances the registry
  /// epoch, derives + seals the new epoch's key on every shard's device, and
  /// flips each shard's domain — reads are served from the old key while the
  /// scavenger drains the re-encryption backlog (zero failed reads; the wire
  /// ROTATE_KEY op lands here). Serialized against concurrent rotations.
  /// Throws std::logic_error without a registry, std::invalid_argument for
  /// an unknown tenant.
  RotationResult rotate_tenant_key(tenant::TenantId tenant);

  /// Blocks across all shards still resting under `tenant`'s previous key
  /// (0 = the last rotation has fully drained and was byte-verified safe).
  [[nodiscard]] std::uint64_t rotation_pending(tenant::TenantId tenant) const;

  /// Direct shard access for tests and the fault campaign (quiesce first —
  /// callers must not race the shard's worker).
  [[nodiscard]] BankShard& shard(unsigned idx) noexcept { return *shards_[idx]; }

private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<BankShard*> shards;
    std::thread thread;
  };

  void worker_loop(Worker& worker);
  void scavenger_loop();
  void notify_worker(unsigned shard);
  /// Shared constructor tails: TPM provisioning + power-on handshake for
  /// every shard, then (after the restore path has run journal recovery)
  /// worker/scavenger thread startup.
  void provision_and_power();
  void start_threads();
  /// Every shard's BankShard::save_state blob, in shard order.
  [[nodiscard]] std::vector<std::string> shard_blobs() const;
  /// Restore-constructor body: parse the checkpoint, rebuild + power the
  /// shards, run journal recovery, start the threads.
  void init_from_checkpoint(std::istream& checkpoint);

  ServiceConfig config_;
  RecoveryReport recovery_report_;
  core::Tpm tpm_;
  std::mutex rotation_mutex_;  ///< serializes rotate_tenant_key (tpm_ writes)
  std::vector<std::unique_ptr<BankShard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread scavenger_;
  std::mutex scavenger_mutex_;
  std::condition_variable scavenger_cv_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_started_{false};  ///< one thread won the stop() race
  std::mutex stop_mutex_;                  ///< guards stop_done_
  std::condition_variable stop_cv_;
  bool stop_done_ = false;  ///< the winning stop() ran to completion
};

}  // namespace spe::runtime
