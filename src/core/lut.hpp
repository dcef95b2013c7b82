#pragma once
// The SPECU's look-up tables (Fig. 1b): the Address LUT maps PRNG output to
// PoE locations, the Voltage LUT maps PRNG output to pulse codes. The PoE
// *set* comes from the Table-1 ILP (Section 5.5); the PRNG chooses the order
// in which the set is traversed and the pulse applied at each PoE.

#include <cstdint>
#include <vector>

#include "device/pulse.hpp"
#include "util/rng.hpp"
#include "xbar/sneak_path.hpp"

namespace spe::core {

/// The default 16-PoE placement for an 8x8 crossbar, precomputed with the
/// placement ILP (relaxed-boundary variant; see ilp/poe_placement.hpp and
/// the fig6_coverage bench, which re-derives and checks it). Flat row-major
/// cell indices.
[[nodiscard]] const std::vector<unsigned>& default_poes_8x8();

/// PoE placement for an arbitrary rows x cols crossbar. 8x8 returns the
/// precomputed default table; anything else is solved on first use through
/// the placement solver portfolio (ilp/placement_solver.hpp, minimum-count
/// model, security margin S = cells/16) and memoised process-wide, so the
/// ILP runs once per (rows, cols) no matter how many shards spin up
/// (concurrent callers wait for the one solve; a failed solve is not cached).
/// The heuristic backends run on a fixed seed with no time limit, so every
/// host and restart gets the same placement. Throws std::runtime_error when
/// no backend finds a feasible placement.
[[nodiscard]] std::vector<unsigned> poes_for_crossbar(unsigned rows, unsigned cols);

/// Address LUT: the ordered PoE universe for one crossbar unit.
class AddressLut {
public:
  AddressLut(std::vector<unsigned> poe_cells, unsigned rows, unsigned cols);

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(cells_.size()); }
  [[nodiscard]] unsigned cell(unsigned idx) const;
  [[nodiscard]] xbar::PoE poe(unsigned idx) const;

  /// A key-driven permutation of the LUT entries (Fisher-Yates driven by the
  /// address PRNG) — the PoE application sequence of Section 5.4.
  [[nodiscard]] std::vector<unsigned> permuted_order(util::CoupledLcg& prng) const;

private:
  std::vector<unsigned> cells_;
  unsigned rows_;
  unsigned cols_;
};

/// Voltage LUT: 5-bit PRNG fields -> discrete (polarity, width) pulses.
class VoltageLut {
public:
  explicit VoltageLut(device::PulseLibrary library = device::PulseLibrary{});

  [[nodiscard]] const device::PulseLibrary& library() const noexcept { return library_; }
  [[nodiscard]] const device::Pulse& pulse(unsigned code) const { return library_.pulse(code); }

  /// Draws the next pulse code from the voltage PRNG (5 bits).
  [[nodiscard]] unsigned next_code(util::CoupledLcg& prng) const;

private:
  device::PulseLibrary library_;
};

}  // namespace spe::core
