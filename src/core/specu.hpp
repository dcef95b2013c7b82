#pragma once
// The Sneak-Path Encryption Control Unit (Section 4.1, Fig. 1b). Sits
// between the L2 cache and the NVMM; holds the key in volatile storage
// (obtained from the TPM at power-on, lost at power-down) and orchestrates
// the two-phase read (decrypt + read) and write (write + encrypt)
// operations. Two operating modes (Section 7):
//
//  * SPE-serial:   a decrypted block STAYS decrypted in the array until it
//                  is written back or the background engine re-encrypts it
//                  (cheap reads of hot blocks; a small window of plaintext
//                  exposure — "99.4% of memory encrypted on average").
//  * SPE-parallel: every block is re-encrypted immediately after the read
//                  data leaves for the cache (100% encrypted; each read
//                  pays decrypt + encrypt latency).
//
// The SPECU here is the *functional* controller; cycle costs live in the
// area/latency model and are charged by the architecture simulator.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/snvmm.hpp"
#include "core/spe_cipher.hpp"
#include "core/tpm.hpp"

namespace spe::core {

enum class SpeMode { Serial, Parallel };

class Specu {
public:
  /// Per-pulse ageing relative to a full write (Section 5.2 / wear module).
  static constexpr double kPulseWear = 0.02;

  /// Creates the control unit for `memory`. No key yet: reads/writes throw
  /// until power_on() succeeds.
  Specu(Snvmm& memory, SpeMode mode, std::vector<unsigned> poes = {});

  /// Power-on handshake: TPM authenticates the platform and releases the
  /// key. Returns false (and stays locked) on authentication failure.
  bool power_on(const Tpm& tpm, std::uint64_t platform_measurement);

  /// Multi-tenant power-on: same handshake, but against an explicit sealing
  /// handle instead of the device id — tenant key domains seal per-(tenant,
  /// epoch) keys under synthetic handles so several controllers can share
  /// one crossbar, each under its own key.
  bool power_on(const Tpm& tpm, std::uint64_t platform_measurement,
                std::uint64_t key_handle);

  /// Orderly power-down: every plaintext block is encrypted (counted into
  /// stats; the cold-boot analysis uses the count), then the volatile key
  /// is destroyed. Returns the number of blocks that had to be secured.
  unsigned power_down();

  /// Hard power loss (the cold-boot scenario): the key is lost but
  /// plaintext blocks are NOT secured first. Returns how many plaintext
  /// blocks were abandoned in the array.
  unsigned power_loss();

  [[nodiscard]] bool powered() const noexcept { return ciphers_.size() > 0; }
  [[nodiscard]] SpeMode mode() const noexcept { return mode_; }

  /// Key-schedule epoch: a digest of the full per-unit pulse schedule the
  /// current key derives. Journal intents are stamped with it; recovery
  /// refuses to replay pulses recorded under a different schedule (a wrong
  /// key would reconstruct wrong chains and corrupt silently). 0 until the
  /// first successful power_on().
  [[nodiscard]] std::uint64_t schedule_epoch() const noexcept { return epoch_; }

  /// Pulses in one full block encryption (units x schedule length); the
  /// `total` of Encrypt/Decrypt journal intents. 0 when not powered.
  [[nodiscard]] std::uint32_t pulses_per_block() const noexcept;

  /// Cache-block write: stores plaintext and encrypts it (write phase +
  /// encryption phase, Section 4.1).
  void write_block(std::uint64_t block_addr, std::span<const std::uint8_t> data);

  /// Cache-block read: decrypts in the array, reads out, and (parallel
  /// mode) immediately re-encrypts; serial mode leaves the block decrypted
  /// and queues it for the background engine.
  [[nodiscard]] std::vector<std::uint8_t> read_block(std::uint64_t block_addr);

  /// Serial-mode background engine: re-encrypts up to `max_blocks` pending
  /// plaintext blocks; returns how many it secured.
  unsigned background_encrypt(unsigned max_blocks = 1);

  /// One background re-encryption, reporting *which* block it secured so
  /// callers tracking per-block metadata (the runtime's ECC shadows) can
  /// refresh it; nullopt when nothing is pending or the key is gone.
  [[nodiscard]] std::optional<std::uint64_t> background_encrypt_one();

  // --- crash recovery primitives ------------------------------------------
  // Building blocks for the runtime's journal-recovery state machine; both
  // journal themselves, so a crash *during* recovery is itself recoverable.

  /// Finishes an interrupted encryption from pulse index `progress`
  /// (unit-major, as logged by the intent journal). The block ends fully
  /// encrypted and is removed from the plaintext pending set.
  void resume_encrypt(std::uint64_t block_addr, std::uint32_t progress);

  /// Undoes an interrupted decryption by restoring the journaled pre-image:
  /// the block returns to its encrypted resting state and the intent is
  /// committed. The restore is a plain level copy (no pulses), the analog
  /// equivalent of re-programming the saved ciphertext.
  void rollback_decrypt(std::uint64_t block_addr, std::span<const std::uint8_t> pre_image);

  // --- pending-set ownership (multi-tenant key domains) -------------------
  // Several Specus can front one Snvmm, each owning a disjoint address set.
  // The constructor conservatively adopts EVERY unencrypted resident block;
  // the owner partitions the pending sets with these before serving traffic.

  /// Keeps only pending plaintext addresses for which `owned` returns true.
  /// Returns how many addresses were handed off (dropped).
  unsigned retain_plaintext(const std::function<bool(std::uint64_t)>& owned);

  /// Removes one address from the pending set (another controller takes
  /// over its re-encryption). Returns whether it was pending here.
  bool drop_pending(std::uint64_t block_addr) { return plaintext_.erase(block_addr) > 0; }

  /// Adopts responsibility for re-encrypting a plaintext block (rotation
  /// hands blocks decrypted under the old key to the new-key controller).
  void adopt_pending(std::uint64_t block_addr) { plaintext_.insert(block_addr); }

  /// Rotation handoff: decrypts the resting ciphertext in place (journaled,
  /// so a crash mid-way rolls back to the old-key ciphertext) and leaves the
  /// plaintext OUT of this controller's pending set — the new key domain's
  /// controller re-encrypts it under the new key. Works in both modes (no
  /// immediate re-encrypt, unlike a parallel-mode read). A block already
  /// plaintext is just dropped from pending.
  void decrypt_for_handoff(std::uint64_t block_addr);

  /// Blocks currently sitting in the array as plaintext.
  [[nodiscard]] std::size_t plaintext_blocks() const noexcept { return plaintext_.size(); }
  /// Fraction of resident blocks currently encrypted (1.0 for empty array).
  [[nodiscard]] double encrypted_fraction() const;

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t decrypt_ops = 0;   ///< per crossbar-unit decryptions
    std::uint64_t encrypt_ops = 0;   ///< per crossbar-unit encryptions
    std::uint64_t encrypt_pulses = 0;  ///< PoE pulses applied encrypting
    std::uint64_t decrypt_pulses = 0;  ///< reverse pulses applied decrypting
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

private:
  [[nodiscard]] const SpeCipher& cipher(unsigned unit) const { return *ciphers_.at(unit); }
  [[nodiscard]] unsigned schedule_length() const;
  void begin_intent(std::uint64_t addr, JournalOp op, std::uint32_t progress,
                    std::uint32_t total, std::vector<std::uint8_t> pre_image = {});
  /// Applies pulses [progress, pulses_per_block()) forward, in place on the
  /// block's levels through SpeCipher's fast steps; commits the open Encrypt
  /// intent. Caller must have begun the intent.
  void encrypt_block_in_place(std::uint64_t addr, Snvmm::Block& block,
                              std::uint32_t progress = 0);
  void decrypt_block_in_place(std::uint64_t addr, Snvmm::Block& block);

  Snvmm& memory_;
  SpeMode mode_;
  std::vector<unsigned> poes_;
  std::shared_ptr<const CipherCalibration> calibration_;
  std::vector<std::unique_ptr<SpeCipher>> ciphers_;  ///< one per unit index
  /// One fast-step scratch per unit, reused across blocks so the digest
  /// cache and chain-prefix buffers are not reallocated per block.
  std::vector<SpeCipher::FastScratch> scratch_;
  std::set<std::uint64_t> plaintext_;                ///< serial-mode pending set
  std::uint64_t epoch_ = 0;                          ///< key-schedule digest
  Stats stats_;
};

}  // namespace spe::core
