#pragma once
// Depth-first branch-and-bound solver for binary ILPs with interval
// constraint propagation. Replaces the FICO Xpress solver the paper used
// (ref [16]). Designed for the Table-1 PoE-placement models: tens of
// variables, tight two-sided covering constraints — propagation does most of
// the work; the objective bound prunes the rest.
//
// Since the solver-portfolio PR this is the *exact reference backend* of the
// placement portfolio (ilp/placement_solver.hpp). Larger crossbars go to the
// heuristic backends; the shared SolverOptions carries the limits and the
// seed every portfolio member understands.

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"

namespace spe::ilp {

struct SolverOptions {
  std::uint64_t node_limit = 50'000'000;  ///< Hard cap on explored nodes.

  /// Cooperative wall-clock deadline in milliseconds; 0 = unbounded. The
  /// B&B checks it inside the recursion (every kDeadlineCheckNodes nodes) so
  /// a portfolio member can be cut off and report TimeLimit with its best
  /// incumbent instead of running unbounded. Heuristic backends check it
  /// between restarts/sweeps and inside their annealing loops. NOTE: wall
  /// clocks make *which* incumbent a run ends with machine-dependent; the
  /// determinism contract (DESIGN.md §14) therefore only covers runs with
  /// no time limit.
  double time_limit_ms = 0.0;

  /// Seed for the heuristic backends' RNG streams (ignored by the exact
  /// B&B). Same seed => byte-identical solutions (their work budgets are
  /// fixed constants in grasp.cpp, lp_rounding.cpp and heuristic_state.hpp).
  std::uint64_t seed = 0x51EED;
};

struct Solution {
  enum class Status {
    Optimal,     ///< Proven optimal (bound meets the incumbent).
    Feasible,    ///< Incumbent found but search hit the node limit, or a
                 ///< heuristic produced it (no optimality proof).
    TimeLimit,   ///< Cooperative deadline fired with an incumbent in hand.
    Infeasible,  ///< Proven infeasible.
    NoSolution,  ///< A limit fired with no incumbent (feasibility unknown).
  };

  Status status = Status::NoSolution;
  double objective = 0.0;
  std::vector<std::uint8_t> values;
  std::uint64_t nodes_explored = 0;

  /// Proven bound on the optimum: a lower bound when minimising, an upper
  /// bound when maximising. The exact backend always reports one (the root
  /// relaxation bound, or the objective itself once optimality is proven);
  /// heuristics cannot prove bounds and report +/-infinity ("no bound").
  /// Status is never Optimal unless best_bound == objective.
  double best_bound = 0.0;
  bool has_bound = false;  ///< best_bound is a proven (finite) bound

  double elapsed_ms = 0.0;  ///< wall-clock spent producing this solution

  [[nodiscard]] bool has_solution() const noexcept {
    // TimeLimit is only ever reported with an incumbent in hand; a deadline
    // that fires with nothing found reports NoSolution instead.
    return status == Status::Optimal || status == Status::Feasible ||
           status == Status::TimeLimit;
  }
};

const char* to_string(Solution::Status status) noexcept;

class Solver {
public:
  explicit Solver(SolverOptions options = {}) : options_(options) {}

  [[nodiscard]] Solution solve(const Model& model);

private:
  SolverOptions options_;
};

}  // namespace spe::ilp
