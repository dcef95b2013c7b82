#pragma once
// The 1T1M crossbar array (Section 5.1, Fig. 3). An M x N grid of Cells with
// distributed wire resistance: every row wire and column wire is modelled as
// a chain of resistive segments with one node per crossing, so sneak-path
// voltages (Fig. 3b) fall out of an exact DC nodal solve rather than a
// lumped approximation.
//
// In normal operation only the addressed row's transistors are ON,
// eliminating sneak paths; the SneakPathController switches every gate ON to
// *introduce* sneak paths on demand for SPE (Section 4).

#include <cstdint>
#include <vector>

#include "device/cell.hpp"

namespace spe::xbar {

/// Electrical and geometric parameters of one crossbar unit.
struct CrossbarParams {
  unsigned rows = 8;
  unsigned cols = 8;
  double r_wire_row = 5.0;   ///< Row-wire resistance per segment [Ohm].
  double r_wire_col = 2.5;   ///< Column-wire resistance per segment [Ohm].
  double r_driver = 100.0;   ///< Line-driver source resistance [Ohm].
  spe::device::TeamParams team;
  spe::device::TransistorParams transistor;

  [[nodiscard]] unsigned cell_count() const noexcept { return rows * cols; }
};

/// Row-major cell index helpers (the paper numbers cells 1..64 row-major in
/// Fig. 4; we use 0-based indices everywhere).
struct CellIndex {
  unsigned row = 0;
  unsigned col = 0;
  bool operator==(const CellIndex&) const = default;
};

class Crossbar {
public:
  explicit Crossbar(CrossbarParams params = {});

  [[nodiscard]] const CrossbarParams& params() const noexcept { return params_; }
  [[nodiscard]] unsigned rows() const noexcept { return params_.rows; }
  [[nodiscard]] unsigned cols() const noexcept { return params_.cols; }
  [[nodiscard]] unsigned cell_count() const noexcept { return params_.cell_count(); }

  [[nodiscard]] unsigned index_of(CellIndex idx) const;
  [[nodiscard]] CellIndex position_of(unsigned flat) const;

  [[nodiscard]] spe::device::Cell& cell(CellIndex idx);
  [[nodiscard]] const spe::device::Cell& cell(CellIndex idx) const;
  [[nodiscard]] spe::device::Cell& cell(unsigned flat);

  /// Gate control. select_row() is the normal-operation mode (Fig. 3a);
  /// set_all_gates(true) is the sneak-path mode (Fig. 3b).
  void set_all_gates(bool on);
  void select_row(unsigned row);

  /// Idealised write-verify programming of one cell to an MLC symbol band
  /// centre (the NVMM controller's job; SPE never uses this during
  /// encryption — it perturbs states through pulses only). A cell pinned by
  /// Cell::force_stuck() refuses to move — the spe_fault stuck-at hook.
  void write_symbol(CellIndex idx, unsigned symbol);
  [[nodiscard]] unsigned read_symbol(CellIndex idx) const;

  /// Loads `symbols.size()` cells row-major; size must equal cell_count().
  void load_symbols(const std::vector<unsigned>& symbols);
  [[nodiscard]] std::vector<unsigned> dump_symbols() const;

  [[nodiscard]] const spe::device::MlcCodec& codec() const noexcept { return codec_; }

private:
  CrossbarParams params_;
  spe::device::MlcCodec codec_;
  std::vector<spe::device::Cell> cells_;
};

}  // namespace spe::xbar
