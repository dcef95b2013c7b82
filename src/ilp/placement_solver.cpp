#include "ilp/placement_solver.hpp"

#include <cmath>
#include <utility>

namespace spe::ilp {

// Defined in grasp.cpp / lp_rounding.cpp (internal linkage points).
std::unique_ptr<PlacementSolver> make_grasp_solver(SolverOptions options);
std::unique_ptr<PlacementSolver> make_lp_rounding_solver(SolverOptions options);

namespace {

/// The exact reference backend: a thin adapter over ilp/solver.hpp.
class BranchAndBoundSolver final : public PlacementSolver {
public:
  explicit BranchAndBoundSolver(SolverOptions options) : options_(options) {}

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::BranchAndBound;
  }

  [[nodiscard]] Solution solve(const Model& model) override {
    return Solver(options_).solve(model);
  }

private:
  SolverOptions options_;
};

}  // namespace

const char* to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::BranchAndBound: return "bnb";
    case BackendKind::LpRounding: return "lp";
    case BackendKind::Grasp: return "grasp";
  }
  return "?";
}

bool backend_from_string(std::string_view name, BackendKind& out) noexcept {
  if (name == "bnb") { out = BackendKind::BranchAndBound; return true; }
  if (name == "lp") { out = BackendKind::LpRounding; return true; }
  if (name == "grasp") { out = BackendKind::Grasp; return true; }
  return false;
}

std::unique_ptr<PlacementSolver> make_solver(BackendKind kind, SolverOptions options) {
  switch (kind) {
    case BackendKind::BranchAndBound:
      return std::make_unique<BranchAndBoundSolver>(options);
    case BackendKind::LpRounding:
      return make_lp_rounding_solver(options);
    case BackendKind::Grasp:
      return make_grasp_solver(options);
  }
  return nullptr;
}

std::vector<BackendSpec> default_schedule(unsigned num_vars, const SolverOptions& base) {
  std::vector<BackendSpec> schedule;
  // 512 binaries (a ~22x22 crossbar) is roughly where propagation stops
  // carrying the exact search; beyond that the B&B is a last resort with a
  // tight node cap rather than the opener.
  constexpr unsigned kExactFirstLimit = 512;
  if (num_vars <= kExactFirstLimit) {
    schedule.push_back({BackendKind::BranchAndBound, base});
    // Fallback for models the B&B abandons at its node limit.
    schedule.push_back({BackendKind::Grasp, base});
  } else {
    schedule.push_back({BackendKind::LpRounding, base});
    schedule.push_back({BackendKind::Grasp, base});
    SolverOptions capped = base;
    capped.node_limit = std::min<std::uint64_t>(capped.node_limit, 2'000'000);
    schedule.push_back({BackendKind::BranchAndBound, capped});
  }
  return schedule;
}

PortfolioResult PortfolioSolver::run(const Model& model) {
  const std::vector<BackendSpec> schedule =
      options_.schedule.empty() ? default_schedule(model.num_vars(), options_.base)
                                : options_.schedule;

  PortfolioResult result;
  const bool minimize = model.sense == Sense::Minimize;
  int winner_index = -1;

  for (const BackendSpec& spec : schedule) {
    auto backend = make_solver(spec.kind, spec.options);
    const Solution sol = backend->solve(model);

    BackendReport report;
    report.kind = spec.kind;
    report.status = sol.status;
    report.found_solution = sol.has_solution();
    report.objective = sol.objective;
    report.best_bound = sol.best_bound;
    report.has_bound = sol.has_bound;
    report.nodes_explored = sol.nodes_explored;
    report.elapsed_ms = sol.elapsed_ms;
    result.reports.push_back(report);

    // Anytime best-bound: tighten across members (max of lower bounds when
    // minimising, min of upper bounds when maximising).
    if (sol.has_bound) {
      if (!result.has_bound)
        result.best_bound = sol.best_bound;
      else
        result.best_bound = minimize ? std::max(result.best_bound, sol.best_bound)
                                     : std::min(result.best_bound, sol.best_bound);
      result.has_bound = true;
    }

    if (sol.status == Solution::Status::Infeasible) {
      // An exact member proved infeasibility — no later member can do better.
      result.best = sol;
      result.winner = spec.kind;
      winner_index = static_cast<int>(result.reports.size()) - 1;
      break;
    }

    if (sol.has_solution()) {
      const bool better =
          !result.best.has_solution() ||
          (minimize ? sol.objective < result.best.objective - 1e-9
                    : sol.objective > result.best.objective + 1e-9);
      if (better) {
        result.best = sol;
        result.winner = spec.kind;
        winner_index = static_cast<int>(result.reports.size()) - 1;
      }
      if (options_.stop_at_first_feasible) break;
      if (result.best.status == Solution::Status::Optimal) break;
    }
  }

  if (winner_index >= 0)
    result.reports[static_cast<std::size_t>(winner_index)].winner = true;

  // Mirror the portfolio bound into the winning solution, and upgrade to a
  // proven optimum when the bound closes the gap (e.g. a heuristic matched
  // the exact root bound).
  if (result.has_bound) {
    result.best.best_bound = result.best_bound;
    result.best.has_bound = true;
    if (result.best.has_solution() &&
        std::abs(result.best.objective - result.best_bound) <= 1e-9)
      result.best.status = Solution::Status::Optimal;
  }
  return result;
}

}  // namespace spe::ilp
