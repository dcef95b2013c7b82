#pragma once
// Physics calibration of the behavioural SPE cipher.
//
// The physics tier (device + xbar) is exact but far too slow to encrypt the
// millions of blocks the randomness evaluation needs, so the cipher runs on
// tables derived from it once per device:
//
//  * Polyomino shapes: for every candidate PoE, the sneak-path network is
//    solved (mid-band data pattern) and the covered-cell set extracted with
//    the write threshold Vt, classified into attenuation tiers
//    (0 = the PoE itself, 1 = same-column arm, 2 = same-row arm).
//  * Level-transition permutations: for every (pulse code, tier) the TEAM
//    equations are integrated from each of the 64 internal levels under the
//    tier's mean voltage share. The physical map is monotone-compressive
//    (saturating), so the behavioural bijection is the cyclic shift by the
//    mean integrated displacement — exact to invert, physics-scaled, with
//    wrap-around standing in for write-verify recycling of saturated cells.
//  * Decrypt pulse widths (on demand, not tabulated): for a (pulse code,
//    tier), the width of the opposite-polarity pulse that undoes the
//    encryption pulse from the band-centre state (the Fig. 5 hysteresis LUT
//    used by a physical SPECU; the behavioural cipher inverts its tables
//    exactly instead, so the serving path never asks).
//
// Everything is a deterministic function of the crossbar parameters, so two
// devices share tables iff they share physics — the device-binding property.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/fingerprint.hpp"
#include "device/mlc.hpp"
#include "device/pulse.hpp"
#include "xbar/polyomino.hpp"

namespace spe::core {

class CipherCalibration {
public:
  static constexpr unsigned kTiers = 3;
  static constexpr unsigned kLevels = device::MlcCodec::kInternalLevels;

  /// Covered cells of one PoE's polyomino, in fixed processing order
  /// (tier-major, then flat index; the PoE itself is first).
  struct Shape {
    std::vector<std::uint16_t> cells;
    std::vector<std::uint8_t> tiers;   ///< parallel to `cells`
  };

  using LevelPerm = std::array<std::uint8_t, kLevels>;

  CipherCalibration(xbar::CrossbarParams params,
                    device::PulseLibrary library = device::PulseLibrary{});

  [[nodiscard]] const xbar::CrossbarParams& params() const noexcept { return params_; }
  [[nodiscard]] const device::PulseLibrary& library() const noexcept { return library_; }
  [[nodiscard]] DeviceFingerprint fingerprint() const noexcept { return fingerprint_; }

  [[nodiscard]] const Shape& shape(unsigned poe_cell) const;
  /// Mean voltage share of covered cells in each tier [V] (signed by pulse).
  [[nodiscard]] double tier_attenuation(unsigned tier) const;

  [[nodiscard]] const LevelPerm& perm(unsigned pulse_code, unsigned tier) const;
  [[nodiscard]] const LevelPerm& inv_perm(unsigned pulse_code, unsigned tier) const;

  /// Physical decrypt width [s] for the inverse of (pulse_code, tier) from
  /// the band-centre representative state (Fig. 5 LUT). Runs the inverse
  /// width search on each call.
  [[nodiscard]] double decrypt_width(unsigned pulse_code, unsigned tier) const;

  /// Number of cells in the crossbar (rows * cols).
  [[nodiscard]] unsigned cell_count() const noexcept { return params_.cell_count(); }

private:
  void extract_shapes();
  void build_perms();
  /// Signed voltage a covered cell of `tier` sees under `pulse`.
  [[nodiscard]] double tier_voltage(const device::Pulse& pulse, unsigned tier) const;

  xbar::CrossbarParams params_;
  device::PulseLibrary library_;
  DeviceFingerprint fingerprint_;
  std::vector<Shape> shapes_;                 // per PoE cell
  std::array<double, kTiers> attenuation_{};  // mean |V| per tier
  std::vector<LevelPerm> perms_;              // [code * kTiers + tier]
  std::vector<LevelPerm> inv_perms_;
};

/// Calibrations are deterministic in the parameters; this process-wide cache
/// builds each device fingerprint's calibration once, however many cipher
/// instances ask (the hardware-avalanche data set sweeps many parameter
/// sets; every service shard is its own device). Thread-safe and
/// single-flight: builds for different fingerprints run in parallel without
/// holding a lock, concurrent callers for one fingerprint wait for its one
/// build and share the result, and a build that throws is not cached (its
/// waiters rethrow, the next caller retries).
[[nodiscard]] std::shared_ptr<const CipherCalibration> get_calibration(
    const xbar::CrossbarParams& params);

}  // namespace spe::core
