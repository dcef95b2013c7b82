#pragma once
// The behavioural Sneak-Path Encryption cipher (Section 5).
//
// State model: one crossbar unit stores 64 memristor cells; each cell's
// analog state is tracked on a 64-level internal grid (6 bits). The MLC-2
// *read* value of a cell is the top two bits of its level (the four
// resistance bands). Plaintext bytes are written as band-centre levels;
// encryption perturbs levels in place; what an attacker reads out is the
// quantised 2-bit symbol per cell (128 ciphertext bits per unit).
//
// One encryption = the key schedule's sequence of PoE pulses. One pulse
// applies, to every cell of the PoE's calibrated polyomino, a bijective
// level permutation selected by: the pulse code, the cell's attenuation
// tier, the device fingerprint, a digest of the crossbar state OUTSIDE the
// polyomino, and a running chain over the cells already processed in the
// pulse (two passes, forward then backward, for full intra-pulse
// diffusion). The digest and chain model the global resistive coupling of
// the physical sneak paths — the data-dependence Section 5.3 describes —
// in an exactly invertible form: decryption replays the pulses in reverse
// order and inverts each pass back-to-front, the behavioural equivalent of
// the paper's reverse-sequence, hysteresis-corrected decryption. A wrong
// PoE order reconstructs wrong chains and produces garbage (Fig. 2b); a
// different device has different tables and also fails.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/key_schedule.hpp"

namespace spe::core {

/// Internal levels of one crossbar unit (row-major cells).
using UnitLevels = std::vector<std::uint8_t>;

class SpeCipher {
public:
  /// `poes` defaults to the precomputed 16-PoE placement when empty.
  SpeCipher(const SpeKey& key, std::shared_ptr<const CipherCalibration> calibration,
            std::vector<unsigned> poes = {}, unsigned unit_index = 0);

  [[nodiscard]] const CipherCalibration& calibration() const noexcept { return *cal_; }
  [[nodiscard]] const std::vector<PulseStep>& schedule() const noexcept {
    return schedule_.steps();
  }
  [[nodiscard]] unsigned cell_count() const noexcept { return cal_->cell_count(); }

  /// Encrypts / decrypts the unit's levels in place. Sizes must equal
  /// cell_count(). decrypt(encrypt(x)) == x exactly.
  void encrypt(UnitLevels& levels) const;
  void decrypt(UnitLevels& levels) const;

  // --- resumable sequence cursor (crash consistency) -----------------------
  // One encryption is schedule() applied as steps 0..N-1; one decryption is
  // the inverses applied as steps N-1..0. These primitives expose a single
  // step so the SPECU can advance its intent journal between pulses and
  // recovery can resume an interrupted encryption from the logged index:
  // encrypt == encrypt_step(0..N-1); decrypt == decrypt_step(N-1..0).
  void encrypt_step(UnitLevels& levels, unsigned step) const;
  void decrypt_step(UnitLevels& levels, unsigned step) const;

  /// Truncated encryption with only the first `pulses` steps — the PoE-count
  /// ablation of Section 6.1 ("fewer than 16 PoEs fail a large number of
  /// tests").
  void encrypt_truncated(UnitLevels& levels, unsigned pulses) const;

  /// Decryption with a caller-supplied step order (indices into schedule()),
  /// applied back-to-front as given — used to demonstrate Fig. 2b's
  /// wrong-order failure.
  void decrypt_with_order(UnitLevels& levels, std::span<const unsigned> order) const;

  // --- byte <-> level conversion (2 bits per cell, paper logic polarity:
  // "11" = lowest-resistance band) -----------------------------------------
  [[nodiscard]] UnitLevels levels_from_bytes(std::span<const std::uint8_t> plaintext) const;
  void bytes_from_levels(const UnitLevels& levels, std::span<std::uint8_t> out) const;
  [[nodiscard]] unsigned block_bytes() const noexcept { return cell_count() / 4; }

  /// Convenience one-way path for the randomness data sets: plaintext bytes
  /// in, quantised ciphertext bytes out.
  void encrypt_bytes(std::span<const std::uint8_t> plaintext,
                     std::span<std::uint8_t> ciphertext) const;

  // --- fast steps (the SPECU's execution path) -----------------------------
  // Bit-identical reformulation of encrypt_step / decrypt_step that Specu
  // runs for every block. The caller seeds a FastScratch once per unit
  // operation (from any state, so a resume mid-schedule works too); the
  // scratch carries an incremental per-cell digest cache (outside_digest
  // becomes an XOR delta instead of a full rescan) and a chain-prefix buffer
  // that turns the inverse pass's per-position chain replay into one O(n)
  // sweep. Steps run in place on the caller's storage — no per-step copies.
  // The scalar steps above stay the paper-faithful reference;
  // tests/core/specu_oracle_test pins Specu to them byte-for-byte.
  struct FastScratch {
    std::vector<std::uint64_t> cell_hash;     ///< mix64((level << 16) | i) per cell
    std::uint64_t all_fold = 0;               ///< XOR of cell_hash over all cells
    std::vector<std::uint64_t> chain_prefix;  ///< per-pass inverse-chain buffer
  };
  void init_fast_scratch(std::span<const std::uint8_t> levels, FastScratch& scratch) const;
  void encrypt_step_fast(std::span<std::uint8_t> levels, unsigned step,
                         FastScratch& scratch) const;
  void decrypt_step_fast(std::span<std::uint8_t> levels, unsigned step,
                         FastScratch& scratch) const;

private:
  void apply_pulse(UnitLevels& levels, const PulseStep& step, unsigned step_index,
                   bool encrypt) const;
  void apply_pass(UnitLevels& levels, const CipherCalibration::Shape& shape,
                  const PulseStep& step, unsigned step_index, unsigned pass,
                  std::uint64_t digest, bool reverse_order, bool encrypt) const;
  [[nodiscard]] std::uint64_t outside_digest(const UnitLevels& levels,
                                             const CipherCalibration::Shape& shape) const;
  void apply_pulse_fast(std::span<std::uint8_t> levels, const PulseStep& step,
                        unsigned step_index, bool encrypt, FastScratch& scratch) const;
  void apply_pass_fast(std::span<std::uint8_t> levels,
                       const CipherCalibration::Shape& shape, const PulseStep& step,
                       unsigned step_index, unsigned pass, std::uint64_t digest,
                       bool reverse_order, bool encrypt, FastScratch& scratch) const;

  std::shared_ptr<const CipherCalibration> cal_;
  AddressLut addresses_;
  VoltageLut voltages_;
  KeySchedule schedule_;
};

}  // namespace spe::core
