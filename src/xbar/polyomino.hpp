#pragma once
// Polyomino extraction and the Table-1 canonical stencil.
//
// Physical polyomino (Fig. 4): solve the sneak-path network for a PoE
// drive and collect every cell whose voltage share meets the write
// threshold Vt. The shape depends on the crossbar's physical parameters and
// on the data stored in every cell — the properties SPE's security rests on.
// (The idealised Table-1 stencil used by the placement ILP lives in
// ilp/poe_placement.hpp as table1_stencil().)

#include <cstdint>
#include <string>
#include <vector>

#include "xbar/sneak_path.hpp"

namespace spe::xbar {

/// A polyomino: the set of cells whose resistance moves when a pulse is
/// applied at `poe` (Section 5.2).
struct Polyomino {
  PoE poe;
  std::vector<std::uint8_t> mask;  ///< rows*cols flags, row-major.
  std::vector<double> voltages;    ///< per-cell |voltage| from the solve.

  [[nodiscard]] unsigned count() const noexcept;
  [[nodiscard]] bool covers(unsigned flat) const { return mask.at(flat) != 0; }
};

/// Extracts the physical polyomino for a PoE at the given drive voltage.
/// Does not modify cell states (solve only). The threshold is the
/// transistor write threshold from the crossbar parameters.
[[nodiscard]] Polyomino extract_polyomino(Crossbar& xbar, PoE poe, double voltage);

/// Renders a mask + voltage map in the style of Fig. 4 (PoE marked '#',
/// covered cells with their voltage, untouched cells '.').
[[nodiscard]] std::string render_polyomino(const Polyomino& poly, unsigned rows,
                                           unsigned cols);

}  // namespace spe::xbar
