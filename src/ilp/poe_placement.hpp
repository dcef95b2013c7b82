#pragma once
// PoE placement (Section 5.5, Table 1). Builds and solves the ILP that
// chooses Points of Encryption so that
//   (1) every memory cell is covered by at least one polyomino,
//   (2) no cell is covered by more than two (overlap saturation limit),
//   (3) total coverage is at least MN + S (S = security/latency trade-off),
//   (4) the number of PoEs is minimal.
//
// Two formulations are provided:
//  - the *set form* (one binary per candidate PoE cell) used operationally —
//    it is the Table-1 model after eliminating the B matrix's polyomino-slot
//    symmetry, and
//  - the *literal Table-1 form* (B[i][j] binaries) kept for validation on
//    small crossbars; tests show both give the same optimum.

#include <vector>

#include "ilp/placement_solver.hpp"
#include "ilp/solver.hpp"

namespace spe::ilp {

/// Result of a placement solve.
struct PoePlacement {
  std::vector<unsigned> poes;      ///< Chosen PoE cells (flat row-major).
  std::vector<unsigned> coverage;  ///< Per-cell polyomino count.
  bool optimal = false;            ///< Solver proved optimality.
  bool feasible = false;           ///< A valid placement was found.

  /// Provenance (filled by every entry point; the classic single-solver
  /// paths always attribute BranchAndBound).
  Solution::Status status = Solution::Status::NoSolution;
  BackendKind backend = BackendKind::BranchAndBound;  ///< winning backend
  double best_bound = 0.0;  ///< proven bound on the optimum (see has_bound)
  bool has_bound = false;
  double elapsed_ms = 0.0;  ///< total solve wall-clock across backends

  [[nodiscard]] unsigned overlapped_cells() const;      ///< coverage >= 2
  [[nodiscard]] unsigned single_covered_cells() const;  ///< coverage == 1
  [[nodiscard]] unsigned uncovered_cells() const;       ///< coverage == 0
  [[nodiscard]] unsigned total_coverage() const;
};

/// The Table-1 canonical polyomino stencil (footnote b) for a PoE at flat
/// row-major index `poe_flat`: the PoE itself, its two same-row neighbours
/// (i +/- 1) and the same-column cells within four rows (i - N*k,
/// k in [-4, 4]), clipped at the array boundary.
[[nodiscard]] std::vector<unsigned> table1_stencil(unsigned rows, unsigned cols,
                                                   unsigned poe_flat);

/// All candidate polyomino shapes for an rows x cols crossbar: entry p is
/// the stencil of a PoE at cell p.
[[nodiscard]] std::vector<std::vector<unsigned>> all_stencils(unsigned rows, unsigned cols);

/// Minimum-PoE placement for an rows x cols crossbar with security margin
/// `security_s` (Table 1: 0 <= S <= MN-1). Solved as a feasibility sweep
/// over increasing PoE counts, each step a fixed-count ILP.
[[nodiscard]] PoePlacement solve_min_poes(unsigned rows, unsigned cols, unsigned security_s,
                                          SolverOptions options = {});

/// Generalised variant over arbitrary candidate shapes (entry p = covered
/// cells when the PoE is cell p) — used to run the placement ILP on
/// *physically extracted* polyominoes as an ablation.
[[nodiscard]] PoePlacement solve_min_poes_shapes(
    const std::vector<std::vector<unsigned>>& shapes, unsigned cell_count,
    unsigned security_s, SolverOptions options = {});

/// Builds the symmetry-reduced set-form placement model directly (one
/// binary per candidate PoE; per-cell coverage in [1, 2]). Exposed so the
/// portfolio, the frontier bench, and the differential tests all solve the
/// *same* model object. `exact_count < 0` leaves the PoE count free;
/// `min_total_coverage <= 0` drops the coverage floor. With
/// `maximize_coverage` false the objective minimises the PoE count.
[[nodiscard]] Model build_placement_model(const std::vector<std::vector<unsigned>>& shapes,
                                          unsigned cell_count, int exact_count,
                                          int min_total_coverage, bool maximize_coverage);

/// Portfolio entry points (the production path for crossbars beyond 8x8).
/// Unlike solve_min_poes' per-count feasibility sweep, the minimum-count
/// variant solves the direct minimise-count model once through the backend
/// schedule, so heuristic backends can answer when the exact B&B cannot.
/// The fixed-count variants place exactly `count` PoEs, maximising total
/// coverage subject to the per-cell [1, 2] window (the Fig. 6 experiment);
/// `feasible` is false when no member found such a placement, which proves
/// infeasibility only when `status` is Infeasible. Provenance (winning
/// backend, status, anytime bound) lands in the PoePlacement fields above.
[[nodiscard]] PoePlacement solve_min_poes_portfolio(unsigned rows, unsigned cols,
                                                    unsigned security_s,
                                                    PortfolioOptions options = {});
[[nodiscard]] PoePlacement solve_fixed_poes_portfolio(unsigned rows, unsigned cols,
                                                      unsigned count,
                                                      PortfolioOptions options = {});
[[nodiscard]] PoePlacement solve_min_poes_shapes_portfolio(
    const std::vector<std::vector<unsigned>>& shapes, unsigned cell_count,
    unsigned security_s, PortfolioOptions options = {});
[[nodiscard]] PoePlacement solve_fixed_poes_shapes_portfolio(
    const std::vector<std::vector<unsigned>>& shapes, unsigned cell_count, unsigned count,
    PortfolioOptions options = {});

/// The literal Table-1 formulation with explicit B[i][j] binaries for
/// `max_polyominoes` polyomino slots (use only for small crossbars).
[[nodiscard]] Model build_table1_model(unsigned rows, unsigned cols,
                                       unsigned max_polyominoes, unsigned security_s);

/// Greedy cover heuristic (used as a solver fallback and as the ILP's warm
/// start in benchmarks). Never exceeds the 2-coverage cap; may leave cells
/// uncovered when greedy choices paint it into a corner.
[[nodiscard]] PoePlacement greedy_cover(unsigned rows, unsigned cols);

}  // namespace spe::ilp
