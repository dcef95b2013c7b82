#pragma once
// Solver-portfolio subsystem for the PoE placement models (DESIGN.md §14).
//
// The paper's Table-1 models are solved exactly by the branch-and-bound in
// ilp/solver.hpp — fine for 8x8 crossbars, hopeless for the 64x64 / 256x256
// arrays the production configurations need. This header puts every solving
// strategy behind one interface:
//
//   PlacementSolver            abstract backend (solve a Model)
//     BranchAndBound           the exact reference backend (ilp/solver.hpp)
//     LpRounding               LP-relaxation-guided rounding + repair
//     Grasp                    seeded GRASP construct + annealing repair +
//                              local search (TCPSPSuite-style restarts)
//   make_solver(kind, opts)    factory
//   PortfolioSolver            deterministic schedule of backends:
//                              first-feasible-wins, anytime best-bound
//                              reporting, per-member budgets
//
// Determinism contract: backends draw all randomness from
// SolverOptions::seed and run a fixed amount of work when
// SolverOptions::time_limit_ms == 0, so identical (model, options) inputs
// produce byte-identical Solutions on any machine. Wall-clock limits are a
// cut-off safety net only: with a deadline set, *which* incumbent survives
// is machine-dependent, but every reported solution is still feasible and
// statuses stay truthful (never Optimal without a proving bound).

#include <memory>
#include <string_view>
#include <vector>

#include "ilp/solver.hpp"

namespace spe::ilp {

enum class BackendKind {
  BranchAndBound,  ///< exact DFS B&B with propagation (reference)
  LpRounding,      ///< fractional projection guide -> rounding -> repair
  Grasp,           ///< randomized greedy + simulated-annealing repair
};

[[nodiscard]] const char* to_string(BackendKind kind) noexcept;

/// Parses "bnb" / "lp" / "grasp" (the to_string spellings). Returns false
/// and leaves `out` untouched on anything else.
[[nodiscard]] bool backend_from_string(std::string_view name, BackendKind& out) noexcept;

/// One solving strategy. Implementations are stateless between solve()
/// calls apart from their options; a solver object may be reused.
class PlacementSolver {
public:
  virtual ~PlacementSolver() = default;

  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  [[nodiscard]] const char* name() const noexcept { return to_string(kind()); }

  [[nodiscard]] virtual Solution solve(const Model& model) = 0;
};

/// Factory for a single backend.
[[nodiscard]] std::unique_ptr<PlacementSolver> make_solver(BackendKind kind,
                                                           SolverOptions options = {});

/// One portfolio member: a backend plus its own budgets. `options` is the
/// full SolverOptions so members can differ in node limits, seeds and
/// per-member time budgets.
struct BackendSpec {
  BackendKind kind = BackendKind::BranchAndBound;
  SolverOptions options;
};

struct PortfolioOptions {
  /// Members run in this order. Empty selects default_schedule() for the
  /// model being solved.
  std::vector<BackendSpec> schedule;

  /// Template options used by default_schedule() when `schedule` is empty
  /// (seed, node and time limits).
  SolverOptions base;

  /// Stop at the first member that produces a feasible solution (the
  /// portfolio's headline mode). When false every member runs and the best
  /// objective wins (ties: earliest member).
  bool stop_at_first_feasible = true;
};

/// The deterministic backend order for a model with `num_vars` binaries:
/// small models lead with the exact B&B (heuristic fallback behind it),
/// large models lead with the cheap heuristics and keep a node-capped B&B
/// as the last resort.
[[nodiscard]] std::vector<BackendSpec> default_schedule(unsigned num_vars,
                                                        const SolverOptions& base = {});

/// What one portfolio member did — kept for every member that ran, in
/// schedule order, so a frontier bench or a test can attribute the win and
/// audit the anytime bound.
struct BackendReport {
  BackendKind kind = BackendKind::BranchAndBound;
  Solution::Status status = Solution::Status::NoSolution;
  bool found_solution = false;
  double objective = 0.0;       ///< valid when found_solution
  double best_bound = 0.0;      ///< valid when has_bound
  bool has_bound = false;
  std::uint64_t nodes_explored = 0;
  double elapsed_ms = 0.0;
  bool winner = false;  ///< this member produced PortfolioResult::best
};

struct PortfolioResult {
  Solution best;  ///< status NoSolution/Infeasible when nothing was found
  BackendKind winner = BackendKind::BranchAndBound;  ///< valid when has_solution()
  std::vector<BackendReport> reports;

  /// Tightest proven bound across members (lower bound when minimising,
  /// upper when maximising); mirrored into best.best_bound.
  double best_bound = 0.0;
  bool has_bound = false;

  [[nodiscard]] bool has_solution() const noexcept { return best.has_solution(); }
};

/// Runs a deterministic sequence of backends over one model. Sequential on
/// purpose: parallel races would make the winner machine-dependent, and the
/// per-member budgets already bound the added latency.
class PortfolioSolver {
public:
  explicit PortfolioSolver(PortfolioOptions options = {}) : options_(std::move(options)) {}

  [[nodiscard]] PortfolioResult run(const Model& model);

  /// Convenience: run() and keep only the winning Solution.
  [[nodiscard]] Solution solve(const Model& model) { return run(model).best; }

private:
  PortfolioOptions options_;
};

}  // namespace spe::ilp
