#pragma once
// One bank shard of the memory service: an independent Snvmm array with its
// own SPECU, request queue, counters — and, since PR 2, its own resilience
// machinery: a deterministic FaultInjector (optional), a SEC-DED plane-code
// shadow of every resident block's stored levels, bounded retry with
// exponential backoff, and a quarantine set for blocks the code cannot
// recover. The state mutex serialises the shard's array between its worker
// thread and the background scavenger — shards never share crypto or fault
// state, so there is no cross-shard locking.
//
// Datapath with ECC enabled (the default):
//   write: Specu programs+encrypts -> checks recomputed -> injector may
//          corrupt the programmed levels -> program-verify (SEC-DED) ->
//          correct / retry / remap-to-spare / quarantine.
//   read:  sense a copy (injector may pin stuck cells + flip noise bits)
//          -> SEC-DED verify -> corrected copy written back (scrub-on-read)
//          -> retry with backoff when uncorrectable -> quarantine + throw
//          UncorrectableFaultError when retries are exhausted -> Specu
//          decrypts and the checks are refreshed for the new resting state.
//   scrub: age the stored levels (drift + stuck pins), verify, correct.
//
// Crash consistency (this PR): every Specu pulse sequence advances an
// intent journal that lives inside the Snvmm (it is non-volatile, so it
// survives a crash with the cell levels). save_state() serialises the
// shard's durable state — the v2 device image (levels + journal) plus the
// quarantine map, spare-remap table and scrub cursor — and the restore
// constructor plus recover() rebuild a shard from such a blob, replaying
// or rolling back whatever the journal caught mid-flight.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/snvmm.hpp"
#include "core/snvmm_io.hpp"
#include "core/specu.hpp"
#include "core/tpm.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/recovery.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/service_config.hpp"
#include "runtime/shard_counters.hpp"

namespace spe::runtime {

/// Why a block is quarantined; selects the typed error a read raises.
enum class QuarantineReason : std::uint8_t {
  Uncorrectable = 1,  ///< SEC-DED gave up (or the image record failed CRC)
  Torn = 2,           ///< crash caught the block mid-operation, unrecoverable
};

class BankShard {
public:
  BankShard(unsigned id, const ServiceConfig& config,
            std::shared_ptr<const fault::FaultPlan> fault_plan = nullptr);

  /// Restore constructor: rebuilds the shard's durable state from a blob
  /// written by save_state(). The image's device seed must match what
  /// `config` derives for this shard id (the checkpoint belongs to the same
  /// fleet). Journal recovery is NOT run here — power the shard on first,
  /// then call recover().
  BankShard(unsigned id, const ServiceConfig& config,
            std::shared_ptr<const fault::FaultPlan> fault_plan, std::istream& in);

  BankShard(const BankShard&) = delete;
  BankShard& operator=(const BankShard&) = delete;

  [[nodiscard]] unsigned id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t device_id() const noexcept { return memory_.device_id(); }
  [[nodiscard]] unsigned block_bytes() const noexcept { return memory_.block_bytes(); }
  [[nodiscard]] RequestQueue& queue() noexcept { return queue_; }
  [[nodiscard]] ShardCounters& counters() noexcept { return counters_; }

  /// Power-on handshake against the service TPM. False = key withheld.
  [[nodiscard]] bool power_on(const core::Tpm& tpm, std::uint64_t measurement);

  // --- multi-tenant key domains (DESIGN.md §15) -----------------------------

  /// Builds one key domain per registered tenant (ServiceConfig::tenants):
  /// a Specu powered under the tenant's synthetic TPM handle at its current
  /// epoch. Partitions the plaintext pending sets by address ownership and,
  /// on the restore path, rebuilds in-flight rotations from the
  /// checkpoint's rotation records. Call after power_on and before
  /// recover(). No-op without a registry; false when any tenant
  /// handshake fails.
  [[nodiscard]] bool power_on_tenants(const core::Tpm& tpm, std::uint64_t measurement);

  /// Begins an online key rotation for `tenant` onto `new_epoch`: the
  /// current domain controller becomes the old-key reader, a fresh one is
  /// powered under the new epoch's sealed handle, and every encrypted owned
  /// resident block is scheduled for re-encryption (drained by the
  /// scavenger; reads are served from the old key meanwhile). A rotation
  /// still in flight is drained synchronously first. Returns how many
  /// blocks were scheduled.
  std::uint64_t begin_rotation(tenant::TenantId tenant, std::uint32_t new_epoch,
                               const core::Tpm& tpm, std::uint64_t measurement);

  /// Blocks still resting under `tenant`'s previous key on this shard (0
  /// when no rotation is in flight here).
  [[nodiscard]] std::uint64_t rotation_pending(tenant::TenantId tenant) const;

  /// (tenant, epoch) pairs named by the restore blob's rotation records
  /// (current plus, mid-rotation, old epochs). The service seals keys for
  /// these handles before calling power_on_tenants. Empty on the fresh path.
  [[nodiscard]] std::vector<std::pair<tenant::TenantId, std::uint32_t>>
  restored_epochs() const;

  /// Worker side: executes a drained batch in FIFO order under the state
  /// lock, fulfilling every promise (value or exception).
  void execute_batch(std::vector<Request> batch);

  /// Scavenger side: re-encrypts up to `max_blocks` plaintext blocks,
  /// timing each one into the background-latency histogram.
  unsigned scavenge(unsigned max_blocks);

  /// Scrubbing pass (piggybacked on the scavenger thread, also callable
  /// synchronously): ages + SEC-DED-verifies up to `max_blocks` resident
  /// blocks round-robin, correcting in place and quarantining what it
  /// cannot fix. Returns the number of blocks scrubbed.
  unsigned scrub(unsigned max_blocks);

  // --- crash consistency ----------------------------------------------------

  /// Serialises the shard's durable state (v2 device image incl. the intent
  /// journal, quarantine map, spare-remap table, scrub cursor). Safe to call
  /// concurrently with the worker: takes the state lock.
  void save_state(std::ostream& out) const;

  /// Kill-point hook: when set, it is invoked after EVERY intent-journal
  /// transition (begin / pulse advance / commit) with this shard's id and a
  /// save_state() blob of the exact mid-operation durable state — what a
  /// power loss at that instant would leave in the array. Runs on the worker
  /// thread with the state lock held; the hook must not call back into the
  /// shard. Pass nullptr to clear.
  void set_crash_hook(std::function<void(unsigned, const std::string&)> hook);

  /// Journal recovery after a restore + power_on: classifies every open
  /// intent (replay-forward / roll-back / torn-quarantine), quarantines
  /// CRC-corrupt blocks, and rebuilds the SEC-DED shadows of the surviving
  /// resident blocks. Idempotent (the journal is drained as it is applied).
  ShardRecovery recover();

  /// Resident and plaintext (SPE-serial exposure) block counts, read
  /// together under the state lock.
  struct Occupancy {
    std::size_t resident = 0;
    std::size_t plaintext = 0;
  };
  [[nodiscard]] Occupancy occupancy() const;
  /// Blocks currently quarantined.
  [[nodiscard]] std::size_t quarantined_blocks() const;
  /// Faults materialised by this shard's injector (0 without one).
  [[nodiscard]] std::uint64_t injected_faults() const;

  /// Addresses of every resident block (sorted — Snvmm keeps an ordered
  /// map). Safe against the worker: takes the state lock. The cluster
  /// migration planner uses this to enumerate what a node actually holds.
  [[nodiscard]] std::vector<std::uint64_t> resident_blocks() const;

  [[nodiscard]] core::Specu::Stats specu_stats() const;

  /// Quarantine state of a block (test access; quiesce first).
  [[nodiscard]] std::optional<QuarantineReason> quarantine_reason(
      std::uint64_t addr) const;

  /// The shard's injector (null when fault injection is off) — test access;
  /// callers must not race the worker (quiesce first).
  [[nodiscard]] fault::FaultInjector* injector() noexcept { return injector_.get(); }

private:
  /// One tenant's key domain on this shard: the current-epoch controller
  /// and, while a rotation drains, the previous-epoch controller that still
  /// reads the not-yet-re-encrypted blocks listed in `rotating`. unique_ptr because Specu binds a reference
  /// to the shard's Snvmm and is re-created per epoch.
  struct Domain {
    std::unique_ptr<core::Specu> specu;        ///< current-epoch controller
    std::unique_ptr<core::Specu> old_specu;    ///< previous epoch, while rotating
    std::uint32_t key_epoch = 0;
    std::uint32_t old_key_epoch = 0;
    std::set<std::uint64_t> rotating;  ///< resting ciphertext still old-epoch
  };

  /// Serialised rotation state of one domain (save_state blobs carry a
  /// record count and the records after the scrub cursor).
  struct DomainRecord {
    tenant::TenantId tenant = 0;
    std::uint32_t key_epoch = 0;
    bool old_active = false;
    std::uint32_t old_key_epoch = 0;
    std::vector<std::uint64_t> rotating;
  };

  /// Durable state parsed off a save_state() blob, staged so the restore
  /// constructor can initialise members in declaration order.
  struct RestoredState {
    core::ImageLoadResult image;
    std::unordered_map<std::uint64_t, QuarantineReason> quarantined;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> remap_table;
    std::uint64_t scrub_cursor = 0;
    std::vector<DomainRecord> domains;
  };
  [[nodiscard]] static RestoredState read_state(std::istream& in);
  BankShard(unsigned id, const ServiceConfig& config,
            std::shared_ptr<const fault::FaultPlan> fault_plan, RestoredState state);

  // All private helpers assume state_mutex_ is held.
  void save_state_locked(std::ostream& out) const;
  [[nodiscard]] std::vector<std::uint8_t> read_block_guarded(std::uint64_t addr);
  void write_block_guarded(std::uint64_t addr, std::span<const std::uint8_t> data);
  /// Sense + SEC-DED verify of a resident block against its shadow checks,
  /// with bounded re-sense retries. Returns false when uncorrectable (the
  /// caller quarantines); counts detected/corrected/retries.
  [[nodiscard]] bool verify_block(std::uint64_t addr, core::Snvmm::Block& block,
                                  const std::vector<std::uint8_t>& checks);
  void refresh_checks(std::uint64_t addr);
  void quarantine(std::uint64_t addr, QuarantineReason reason);
  void backoff(unsigned attempt) const;
  /// Key domain owning `addr`; nullptr for the default domain (no registry,
  /// unclaimed address, or domain not powered).
  [[nodiscard]] Domain* domain_of(std::uint64_t addr);
  /// Fresh un-powered controller over this shard's array (same mode/PoEs as
  /// the default specu_).
  [[nodiscard]] std::unique_ptr<core::Specu> make_domain_specu();
  /// One step of a rotation drain: decrypt the next `rotating` block under
  /// the old key (journaled) and re-encrypt it under the current key.
  /// Returns the drained address; nullopt when no rotation has work.
  std::optional<std::uint64_t> rotation_drain_one_locked();
  /// Drops the old-key controller once nothing rests under it any more.
  void finish_rotation_locked(Domain& domain);
  /// Destroys a key-domain controller, folding its stats into
  /// retired_stats_ so the exported cipher counters never go backwards.
  void retire_specu_locked(std::unique_ptr<core::Specu>& specu);
  [[nodiscard]] core::Specu::Stats specu_stats_locked() const;

  unsigned id_;
  ServiceConfig config_;
  ShardCounters counters_;
  RequestQueue queue_;
  mutable std::mutex state_mutex_;  ///< guards memory_ + specu_ + resilience state
  core::Snvmm memory_;
  core::Specu specu_;
  std::map<tenant::TenantId, Domain> domains_;  ///< per-tenant key domains
  core::Specu::Stats retired_stats_;  ///< summed stats of destroyed controllers
  std::vector<DomainRecord> restored_domains_;  ///< consumed by power_on_tenants()
  std::unique_ptr<fault::FaultInjector> injector_;  ///< null = no injection
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> checks_;
  std::unordered_map<std::uint64_t, QuarantineReason> quarantined_;
  std::vector<std::uint64_t> restored_crc_corrupt_;  ///< consumed by recover()
  std::function<void(unsigned, const std::string&)> crash_hook_;
  std::uint64_t scrub_cursor_ = 0;  ///< round-robin resume point
};

}  // namespace spe::runtime
