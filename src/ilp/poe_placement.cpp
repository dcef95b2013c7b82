#include "ilp/poe_placement.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spe::ilp {

unsigned PoePlacement::overlapped_cells() const {
  unsigned n = 0;
  for (unsigned c : coverage) n += c >= 2 ? 1 : 0;
  return n;
}

unsigned PoePlacement::single_covered_cells() const {
  unsigned n = 0;
  for (unsigned c : coverage) n += c == 1 ? 1 : 0;
  return n;
}

unsigned PoePlacement::uncovered_cells() const {
  unsigned n = 0;
  for (unsigned c : coverage) n += c == 0 ? 1 : 0;
  return n;
}

unsigned PoePlacement::total_coverage() const {
  unsigned n = 0;
  for (unsigned c : coverage) n += c;
  return n;
}

std::vector<unsigned> table1_stencil(unsigned rows, unsigned cols, unsigned poe_flat) {
  if (poe_flat >= rows * cols) throw std::out_of_range("table1_stencil");
  const unsigned pr = poe_flat / cols;
  const unsigned pc = poe_flat % cols;

  std::vector<unsigned> cells;
  // Same-column cells within +/- 4 rows (k = 0 is the PoE itself).
  for (int k = -4; k <= 4; ++k) {
    const int r = static_cast<int>(pr) + k;
    if (r < 0 || r >= static_cast<int>(rows)) continue;
    cells.push_back(static_cast<unsigned>(r) * cols + pc);
  }
  // Same-row horizontal neighbours.
  if (pc > 0) cells.push_back(pr * cols + (pc - 1));
  if (pc + 1 < cols) cells.push_back(pr * cols + (pc + 1));
  return cells;
}

std::vector<std::vector<unsigned>> all_stencils(unsigned rows, unsigned cols) {
  std::vector<std::vector<unsigned>> shapes(static_cast<std::size_t>(rows) * cols);
  for (unsigned p = 0; p < rows * cols; ++p) shapes[p] = table1_stencil(rows, cols, p);
  return shapes;
}

Model build_placement_model(const std::vector<std::vector<unsigned>>& shapes,
                            unsigned cell_count, int exact_count, int min_total_coverage,
                            bool maximize_coverage) {
  Model m;
  m.sense = maximize_coverage ? Sense::Maximize : Sense::Minimize;

  std::vector<std::vector<unsigned>> cell_to_poes(cell_count);
  for (unsigned p = 0; p < shapes.size(); ++p) {
    const double obj = maximize_coverage ? static_cast<double>(shapes[p].size()) : 1.0;
    m.add_var(obj, "x" + std::to_string(p));
    for (unsigned cell : shapes[p]) {
      if (cell >= cell_count) throw std::out_of_range("build_set_model: shape cell index");
      cell_to_poes[cell].push_back(p);
    }
  }
  for (unsigned cell = 0; cell < cell_count; ++cell) {
    std::vector<Term> terms;
    terms.reserve(cell_to_poes[cell].size());
    for (unsigned p : cell_to_poes[cell]) terms.push_back({p, 1.0});
    m.add_range(std::move(terms), 1.0, 2.0, "cover" + std::to_string(cell));
  }
  if (exact_count >= 0) {
    std::vector<Term> terms;
    for (unsigned p = 0; p < shapes.size(); ++p) terms.push_back({p, 1.0});
    m.add_eq(std::move(terms), exact_count, "poe_count");
  }
  if (min_total_coverage > 0) {
    std::vector<Term> terms;
    for (unsigned p = 0; p < shapes.size(); ++p)
      terms.push_back({p, static_cast<double>(shapes[p].size())});
    m.add_ge(std::move(terms), min_total_coverage, "total_coverage");
  }
  return m;
}

namespace {

PoePlacement placement_from(const std::vector<std::vector<unsigned>>& shapes,
                            unsigned cell_count, const Solution& sol,
                            BackendKind backend = BackendKind::BranchAndBound) {
  PoePlacement out;
  out.coverage.assign(cell_count, 0);
  out.status = sol.status;
  out.backend = backend;
  out.best_bound = sol.best_bound;
  out.has_bound = sol.has_bound;
  out.elapsed_ms = sol.elapsed_ms;
  if (!sol.has_solution()) return out;
  out.feasible = true;
  out.optimal = sol.status == Solution::Status::Optimal;
  for (unsigned p = 0; p < shapes.size(); ++p) {
    if (!sol.values[p]) continue;
    out.poes.push_back(p);
    for (unsigned cell : shapes[p]) ++out.coverage[cell];
  }
  return out;
}

PoePlacement placement_from_portfolio(const std::vector<std::vector<unsigned>>& shapes,
                                      unsigned cell_count, const PortfolioResult& result) {
  PoePlacement out = placement_from(shapes, cell_count, result.best, result.winner);
  // Total wall-clock is every member that ran, not just the winner.
  out.elapsed_ms = 0.0;
  for (const BackendReport& r : result.reports) out.elapsed_ms += r.elapsed_ms;
  return out;
}

}  // namespace

PoePlacement solve_min_poes_shapes(const std::vector<std::vector<unsigned>>& shapes,
                                   unsigned cell_count, unsigned security_s,
                                   SolverOptions options) {
  if (security_s >= cell_count)
    throw std::invalid_argument("solve_min_poes: S must satisfy 0 <= S <= MN-1");
  const int min_total = static_cast<int>(cell_count + security_s);

  // Feasibility sweep over increasing PoE counts. The lower bound comes from
  // the largest shape; the upper bound is one PoE per cell.
  std::size_t max_shape = 1;
  for (const auto& s : shapes) max_shape = std::max(max_shape, s.size());
  const unsigned lower =
      static_cast<unsigned>((min_total + max_shape - 1) / max_shape);

  Solver solver(options);
  for (unsigned p = std::max(lower, 1u); p <= shapes.size(); ++p) {
    const Model m = build_placement_model(shapes, cell_count, static_cast<int>(p),
                                          min_total, /*maximize_coverage=*/true);
    const Solution sol = solver.solve(m);
    if (sol.has_solution()) return placement_from(shapes, cell_count, sol);
  }
  PoePlacement none;
  none.coverage.assign(cell_count, 0);
  return none;
}

PoePlacement solve_fixed_poes_shapes_portfolio(
    const std::vector<std::vector<unsigned>>& shapes, unsigned cell_count, unsigned count,
    PortfolioOptions options) {
  const Model m = build_placement_model(shapes, cell_count, static_cast<int>(count), -1,
                                        /*maximize_coverage=*/true);
  PortfolioSolver portfolio(std::move(options));
  return placement_from_portfolio(shapes, cell_count, portfolio.run(m));
}

PoePlacement solve_min_poes_shapes_portfolio(
    const std::vector<std::vector<unsigned>>& shapes, unsigned cell_count,
    unsigned security_s, PortfolioOptions options) {
  if (security_s >= cell_count)
    throw std::invalid_argument("solve_min_poes: S must satisfy 0 <= S <= MN-1");
  // Direct minimise-count model (no per-count sweep): the heuristics handle
  // the free count natively, and the exact backend's cardinality-sharpened
  // bound still prunes on it.
  const Model m = build_placement_model(shapes, cell_count, /*exact_count=*/-1,
                                        static_cast<int>(cell_count + security_s),
                                        /*maximize_coverage=*/false);
  PortfolioSolver portfolio(std::move(options));
  return placement_from_portfolio(shapes, cell_count, portfolio.run(m));
}

PoePlacement solve_min_poes_portfolio(unsigned rows, unsigned cols, unsigned security_s,
                                      PortfolioOptions options) {
  return solve_min_poes_shapes_portfolio(all_stencils(rows, cols), rows * cols, security_s,
                                         std::move(options));
}

PoePlacement solve_fixed_poes_portfolio(unsigned rows, unsigned cols, unsigned count,
                                        PortfolioOptions options) {
  return solve_fixed_poes_shapes_portfolio(all_stencils(rows, cols), rows * cols, count,
                                           std::move(options));
}

PoePlacement solve_min_poes(unsigned rows, unsigned cols, unsigned security_s,
                            SolverOptions options) {
  return solve_min_poes_shapes(all_stencils(rows, cols), rows * cols, security_s, options);
}

Model build_table1_model(unsigned rows, unsigned cols, unsigned max_polyominoes,
                         unsigned security_s) {
  // Literal Table-1 formulation: B[i][j] = 1 iff cell i is the PoE of
  // polyomino slot j. A[i][j] (coverage of cell i by slot j) is expressed
  // directly through the stencil relation A_{i,j} = sum over PoE positions p
  // whose stencil covers i of B_{p,j}.
  const unsigned mn = rows * cols;
  const auto shapes = all_stencils(rows, cols);

  // covering[i] = list of PoE cells whose stencil covers cell i.
  std::vector<std::vector<unsigned>> covering(mn);
  for (unsigned p = 0; p < mn; ++p)
    for (unsigned cell : shapes[p]) covering[cell].push_back(p);

  Model m;
  m.sense = Sense::Minimize;
  // Variable index layout: b(i, j) = i * P + j. "Slot used" is implied by
  // sum_i B[i][j] which Table 1 fixes to exactly one PoE per polyomino; to
  // let the optimiser *choose* how many slots to use we relax that row to
  // <= 1 and minimise the number of used slots.
  std::vector<std::vector<unsigned>> b(mn, std::vector<unsigned>(max_polyominoes));
  for (unsigned i = 0; i < mn; ++i)
    for (unsigned j = 0; j < max_polyominoes; ++j)
      b[i][j] = m.add_var(1.0, "B_" + std::to_string(i) + "_" + std::to_string(j));

  // Each polyomino slot has at most one PoE (== 1 in Table 1 for the fixed-P
  // variant; <= 1 when minimising P).
  for (unsigned j = 0; j < max_polyominoes; ++j) {
    std::vector<Term> terms;
    for (unsigned i = 0; i < mn; ++i) terms.push_back({b[i][j], 1.0});
    m.add_le(std::move(terms), 1.0, "slot" + std::to_string(j));
  }
  // Each memory cell is used as a PoE at most once.
  for (unsigned i = 0; i < mn; ++i) {
    std::vector<Term> terms;
    for (unsigned j = 0; j < max_polyominoes; ++j) terms.push_back({b[i][j], 1.0});
    m.add_le(std::move(terms), 1.0, "poe_once" + std::to_string(i));
  }
  // Coverage window: 1 <= sum_j A[i][j] <= 2.
  for (unsigned i = 0; i < mn; ++i) {
    std::vector<Term> terms;
    for (unsigned p : covering[i])
      for (unsigned j = 0; j < max_polyominoes; ++j) terms.push_back({b[p][j], 1.0});
    m.add_range(std::move(terms), 1.0, 2.0, "cover" + std::to_string(i));
  }
  // Total coverage floor: sum_i sum_j A[i][j] >= MN + S.
  {
    std::vector<Term> terms;
    for (unsigned p = 0; p < mn; ++p)
      for (unsigned j = 0; j < max_polyominoes; ++j)
        terms.push_back({b[p][j], static_cast<double>(shapes[p].size())});
    m.add_ge(std::move(terms), static_cast<double>(mn + security_s), "total_coverage");
  }
  return m;
}

PoePlacement greedy_cover(unsigned rows, unsigned cols) {
  const unsigned mn = rows * cols;
  const auto shapes = all_stencils(rows, cols);

  PoePlacement out;
  out.coverage.assign(mn, 0);
  std::vector<std::uint8_t> used(mn, 0);

  for (;;) {
    int best = -1;
    unsigned best_gain = 0;
    for (unsigned p = 0; p < mn; ++p) {
      if (used[p]) continue;
      unsigned gain = 0;
      bool saturates = false;
      for (unsigned cell : shapes[p]) {
        if (out.coverage[cell] >= 2) {
          saturates = true;
          break;
        }
        if (out.coverage[cell] == 0) ++gain;
      }
      if (saturates) continue;
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(p);
      }
    }
    if (best < 0 || best_gain == 0) break;
    used[static_cast<unsigned>(best)] = 1;
    out.poes.push_back(static_cast<unsigned>(best));
    for (unsigned cell : shapes[static_cast<unsigned>(best)]) ++out.coverage[cell];
  }
  out.feasible = out.uncovered_cells() == 0;
  return out;
}

}  // namespace spe::ilp
