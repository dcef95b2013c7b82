#include "xbar/crossbar.hpp"

#include <stdexcept>

namespace spe::xbar {

Crossbar::Crossbar(CrossbarParams params) : params_(params), codec_(params.team) {
  if (params_.rows == 0 || params_.cols == 0)
    throw std::invalid_argument("Crossbar: rows and cols must be nonzero");
  cells_.reserve(cell_count());
  for (unsigned i = 0; i < cell_count(); ++i)
    cells_.emplace_back(params_.team, params_.transistor, 0.5);
}

unsigned Crossbar::index_of(CellIndex idx) const {
  if (idx.row >= params_.rows || idx.col >= params_.cols)
    throw std::out_of_range("Crossbar::index_of");
  return idx.row * params_.cols + idx.col;
}

CellIndex Crossbar::position_of(unsigned flat) const {
  if (flat >= cell_count()) throw std::out_of_range("Crossbar::position_of");
  return {flat / params_.cols, flat % params_.cols};
}

spe::device::Cell& Crossbar::cell(CellIndex idx) { return cells_[index_of(idx)]; }
const spe::device::Cell& Crossbar::cell(CellIndex idx) const { return cells_[index_of(idx)]; }

spe::device::Cell& Crossbar::cell(unsigned flat) {
  if (flat >= cell_count()) throw std::out_of_range("Crossbar::cell");
  return cells_[flat];
}

void Crossbar::set_all_gates(bool on) {
  for (auto& c : cells_) c.set_gate(on);
}

void Crossbar::select_row(unsigned row) {
  if (row >= params_.rows) throw std::out_of_range("Crossbar::select_row");
  for (unsigned r = 0; r < params_.rows; ++r)
    for (unsigned c = 0; c < params_.cols; ++c)
      cells_[r * params_.cols + c].set_gate(r == row);
}

void Crossbar::write_symbol(CellIndex idx, unsigned symbol) {
  cell(idx).program_state(codec_.state_for_symbol(symbol));
}

unsigned Crossbar::read_symbol(CellIndex idx) const {
  return codec_.symbol_for_state(cell(idx).memristor().state());
}

void Crossbar::load_symbols(const std::vector<unsigned>& symbols) {
  if (symbols.size() != cell_count())
    throw std::invalid_argument("Crossbar::load_symbols: size mismatch");
  for (unsigned i = 0; i < cell_count(); ++i)
    cells_[i].program_state(codec_.state_for_symbol(symbols[i]));
}

std::vector<unsigned> Crossbar::dump_symbols() const {
  std::vector<unsigned> out(cell_count());
  for (unsigned i = 0; i < cell_count(); ++i)
    out[i] = codec_.symbol_for_state(cells_[i].memristor().state());
  return out;
}

}  // namespace spe::xbar
