#include "core/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "device/cell.hpp"
#include "util/single_flight.hpp"

namespace spe::core {

CipherCalibration::CipherCalibration(xbar::CrossbarParams params, device::PulseLibrary library)
    : params_(params), library_(std::move(library)), fingerprint_(fingerprint_of(params)) {
  extract_shapes();
  build_perms();
}

void CipherCalibration::extract_shapes() {
  xbar::Crossbar xb(params_);
  // Mid-band reference pattern: every cell at the centre of the level grid.
  for (unsigned i = 0; i < xb.cell_count(); ++i) xb.cell(i).memristor().set_state(0.5);

  const unsigned cells = params_.cell_count();
  shapes_.resize(cells);
  std::array<double, kTiers> tier_sum{};
  std::array<unsigned, kTiers> tier_count{};

  for (unsigned p = 0; p < cells; ++p) {
    const xbar::PoE poe{p / params_.cols, p % params_.cols};
    const xbar::Polyomino poly = xbar::extract_polyomino(xb, poe, 1.0);

    // Collect covered cells with tier classification, ordered tier-major.
    struct Entry {
      std::uint16_t cell;
      std::uint8_t tier;
    };
    std::vector<Entry> entries;
    for (unsigned c = 0; c < cells; ++c) {
      if (!poly.mask[c]) continue;
      std::uint8_t tier;
      if (c == p)
        tier = 0;
      else if (c % params_.cols == poe.col)
        tier = 1;  // same-column arm
      else
        tier = 2;  // same-row arm / residual spill
      entries.push_back({static_cast<std::uint16_t>(c), tier});
      tier_sum[tier] += poly.voltages[c];
      ++tier_count[tier];
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.tier != b.tier) return a.tier < b.tier;
      return a.cell < b.cell;
    });
    Shape& s = shapes_[p];
    s.cells.reserve(entries.size());
    s.tiers.reserve(entries.size());
    for (const Entry& e : entries) {
      s.cells.push_back(e.cell);
      s.tiers.push_back(e.tier);
    }
  }
  for (unsigned t = 0; t < kTiers; ++t) {
    attenuation_[t] = tier_count[t] ? tier_sum[t] / tier_count[t]
                                    : params_.transistor.v_threshold;
  }
}

namespace {

/// Builds the bijective level transform from the TEAM-integrated target
/// map. The physical map is monotone and *compressive* (it saturates at
/// the window boundaries), so it cannot itself be a bijection; the
/// behavioural table therefore abstracts the pulse as a CYCLIC SHIFT by
/// the mean integrated displacement. The shift is exactly invertible, its
/// magnitude carries the physics (polarity, pulse width, tier attenuation,
/// device parameters), and the wrap-around models the write-verify
/// recycling of saturated cells a physical SPECU performs. (See DESIGN.md
/// section 2 — the per-cell *nonlinearity* of SPE comes from the
/// data-dependent transform selection, not from this table alone.)
CipherCalibration::LevelPerm shift_bijection(
    const std::array<int, CipherCalibration::kLevels>& target) {
  constexpr int n = CipherCalibration::kLevels;
  double total = 0.0;
  for (int l = 0; l < n; ++l)
    total += std::clamp(target[static_cast<unsigned>(l)], 0, n - 1) - l;
  const long shift = std::lround(total / n);
  const unsigned s = static_cast<unsigned>(((shift % n) + n) % n);
  CipherCalibration::LevelPerm perm{};
  for (unsigned l = 0; l < static_cast<unsigned>(n); ++l)
    perm[l] = static_cast<std::uint8_t>((l + s) % n);
  return perm;
}

}  // namespace

double CipherCalibration::tier_voltage(const device::Pulse& pulse, unsigned tier) const {
  // Tier voltage share: the PoE sees (almost) the full drive; arms see the
  // calibrated mean sneak share. Clamp to at least Vt so covered cells
  // always move (they were selected by the Vt cut).
  const double share = tier == 0 ? std::abs(attenuation_[0])
                                 : std::max(std::abs(attenuation_[tier]),
                                            params_.transistor.v_threshold);
  return (pulse.voltage >= 0 ? 1.0 : -1.0) * share;
}

void CipherCalibration::build_perms() {
  const device::MlcCodec codec(params_.team);
  const unsigned codes = library_.size();
  perms_.resize(static_cast<std::size_t>(codes) * kTiers);
  inv_perms_.resize(perms_.size());

  for (unsigned code = 0; code < codes; ++code) {
    const device::Pulse& pulse = library_.pulse(code);
    for (unsigned tier = 0; tier < kTiers; ++tier) {
      const double v_eff = tier_voltage(pulse, tier);

      std::array<int, kLevels> target{};
      for (unsigned level = 0; level < kLevels; ++level) {
        device::Cell cell(params_.team, params_.transistor, codec.state_for_level(level));
        cell.set_gate(true);
        cell.apply_cell_voltage(v_eff, pulse.width);
        target[level] = static_cast<int>(codec.level_for_state(cell.memristor().state()));
      }
      const LevelPerm perm = shift_bijection(target);
      LevelPerm inv{};
      for (unsigned l = 0; l < kLevels; ++l) inv[perm[l]] = static_cast<std::uint8_t>(l);
      const std::size_t slot = static_cast<std::size_t>(code) * kTiers + tier;
      perms_[slot] = perm;
      inv_perms_[slot] = inv;
    }
  }
}

const CipherCalibration::Shape& CipherCalibration::shape(unsigned poe_cell) const {
  if (poe_cell >= shapes_.size()) throw std::out_of_range("CipherCalibration::shape");
  return shapes_[poe_cell];
}

double CipherCalibration::tier_attenuation(unsigned tier) const {
  if (tier >= kTiers) throw std::out_of_range("CipherCalibration::tier_attenuation");
  return attenuation_[tier];
}

const CipherCalibration::LevelPerm& CipherCalibration::perm(unsigned pulse_code,
                                                            unsigned tier) const {
  const std::size_t slot = static_cast<std::size_t>(pulse_code) * kTiers + tier;
  if (slot >= perms_.size()) throw std::out_of_range("CipherCalibration::perm");
  return perms_[slot];
}

const CipherCalibration::LevelPerm& CipherCalibration::inv_perm(unsigned pulse_code,
                                                                unsigned tier) const {
  const std::size_t slot = static_cast<std::size_t>(pulse_code) * kTiers + tier;
  if (slot >= inv_perms_.size()) throw std::out_of_range("CipherCalibration::inv_perm");
  return inv_perms_[slot];
}

double CipherCalibration::decrypt_width(unsigned pulse_code, unsigned tier) const {
  if (pulse_code >= library_.size() || tier >= kTiers)
    throw std::out_of_range("CipherCalibration::decrypt_width");
  // Physical decrypt width from the band-1 centre representative.
  const device::MlcCodec codec(params_.team);
  const device::Pulse& pulse = library_.pulse(pulse_code);
  const double v_eff = tier_voltage(pulse, tier);
  device::Cell rep(params_.team, params_.transistor, codec.state_for_symbol(1));
  rep.set_gate(true);
  const double start = rep.memristor().state();
  rep.apply_cell_voltage(v_eff, pulse.width);
  return device::find_inverse_pulse_width(rep, -v_eff, start);
}

std::shared_ptr<const CipherCalibration> get_calibration(const xbar::CrossbarParams& params) {
  static util::SingleFlightCache<DeviceFingerprint, std::shared_ptr<const CipherCalibration>>
      cache;
  return cache.get(fingerprint_of(params),
                   [&] { return std::make_shared<const CipherCalibration>(params); });
}

}  // namespace spe::core
