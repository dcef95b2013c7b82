#include "xbar/polyomino.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace spe::xbar {

unsigned Polyomino::count() const noexcept {
  unsigned n = 0;
  for (auto m : mask) n += m;
  return n;
}

Polyomino extract_polyomino(Crossbar& xbar, PoE poe, double voltage) {
  const NodalSolution sol = solve_poe(xbar, poe, voltage);
  const double vt = xbar.params().transistor.v_threshold;

  Polyomino poly;
  poly.poe = poe;
  poly.mask.assign(xbar.cell_count(), 0);
  poly.voltages.assign(xbar.cell_count(), 0.0);
  for (unsigned r = 0; r < xbar.rows(); ++r) {
    for (unsigned c = 0; c < xbar.cols(); ++c) {
      const double v = std::fabs(sol.cell_voltage(r, c));
      const unsigned flat = xbar.index_of({r, c});
      poly.voltages[flat] = v;
      poly.mask[flat] = v >= vt ? 1 : 0;
    }
  }
  return poly;
}

std::string render_polyomino(const Polyomino& poly, unsigned rows, unsigned cols) {
  std::string out;
  char buf[32];
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      const unsigned flat = r * cols + c;
      if (poly.poe.row == r && poly.poe.col == c) {
        std::snprintf(buf, sizeof(buf), "[%4.2f]", poly.voltages[flat]);
      } else if (poly.mask[flat]) {
        std::snprintf(buf, sizeof(buf), " %4.2f ", poly.voltages[flat]);
      } else {
        std::snprintf(buf, sizeof(buf), "  .   ");
      }
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace spe::xbar
