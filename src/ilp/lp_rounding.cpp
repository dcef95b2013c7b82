// LP-relaxation-guided rounding backend (BackendKind::LpRounding).
//
// A real simplex/interior-point LP is out of scope (and out of the
// container), so the relaxation is approximated with POCS-style projection
// sweeps: start every variable at 0.5, repeatedly project the fractional
// point onto each violated constraint's bounding hyperplane (the classic
// Agmon–Motzkin relaxation method), nudge along the objective gradient, and
// clip to [0,1]. For the diagonally-dominant covering models this converges
// to a near-feasible fractional guide in a few dozen sweeps.
//
// The guide is then rounded deterministically — variables in descending
// fraction order, skipping raises that would break an upper bound — and the
// result is handed to the shared annealing repair + objective local search
// (heuristic_state.cpp). All ordering is (fraction, index)-lexicographic and
// all randomness is seeded, so runs are byte-identical per seed when
// time_limit_ms == 0.

#include <algorithm>
#include <numeric>

#include "ilp/heuristic_state.hpp"
#include "ilp/placement_solver.hpp"

namespace spe::ilp {

namespace {

using detail::Deadline;
using detail::IncrementalEval;
using detail::kHeurEps;

constexpr unsigned kSweeps = 128;  ///< projection sweeps for the fractional guide

class LpRoundingSolver final : public PlacementSolver {
public:
  explicit LpRoundingSolver(SolverOptions options) : options_(options) {}

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::LpRounding;
  }

  [[nodiscard]] Solution solve(const Model& model) override {
    const auto t0 = std::chrono::steady_clock::now();
    const Deadline deadline(options_.time_limit_ms);
    Solution out;
    const unsigned n = model.num_vars();
    if (n == 0) {
      out.status = model.is_feasible({}) ? Solution::Status::Feasible
                                         : Solution::Status::NoSolution;
      return out;
    }

    // --- Fractional guide: projection sweeps --------------------------------
    const auto& cons = model.constraints();
    std::vector<double> norm_sq(cons.size(), 0.0);
    for (std::size_t ci = 0; ci < cons.size(); ++ci)
      for (const Term& t : cons[ci].terms) norm_sq[ci] += t.coeff * t.coeff;

    std::vector<double> x(n, 0.5);
    const double obj_step = 0.02;  // gentle gradient nudge per sweep
    const double obj_sign = model.sense == Sense::Minimize ? -1.0 : 1.0;
    bool cut_off = false;
    for (unsigned sweep = 0; sweep < kSweeps; ++sweep) {
      if (deadline.expired()) {
        cut_off = true;
        break;
      }
      double moved = 0.0;
      for (std::size_t ci = 0; ci < cons.size(); ++ci) {
        if (norm_sq[ci] <= kHeurEps) continue;
        const Constraint& c = cons[ci];
        double s = 0.0;
        for (const Term& t : c.terms) s += t.coeff * x[t.var];
        double target = s;
        if (s < c.lo - kHeurEps) target = c.lo;
        else if (s > c.hi + kHeurEps) target = c.hi;
        else continue;
        const double step = (target - s) / norm_sq[ci];
        for (const Term& t : c.terms) {
          const double nx = std::clamp(x[t.var] + step * t.coeff, 0.0, 1.0);
          moved += std::abs(nx - x[t.var]);
          x[t.var] = nx;
        }
      }
      // Objective nudge, then clip. Scaled down as sweeps progress so the
      // feasibility projections win in the end game.
      const double decay = 1.0 - static_cast<double>(sweep) / kSweeps;
      const auto& obj = model.objective();
      for (unsigned v = 0; v < n; ++v)
        x[v] = std::clamp(x[v] + obj_sign * obj_step * decay * obj[v], 0.0, 1.0);
      if (moved <= kHeurEps && sweep > 4) break;  // converged
    }

    // --- Deterministic rounding by descending fraction ----------------------
    std::vector<unsigned> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
      if (x[a] != x[b]) return x[a] > x[b];
      return a < b;
    });

    IncrementalEval eval(model);
    for (const unsigned v : order) {
      if (x[v] < 0.5 - kHeurEps && eval.feasible()) break;
      if (eval.raise_breaks_upper(v)) continue;
      // Raise when the guide wants it or it still buys lower-side coverage.
      if (x[v] >= 0.5 - kHeurEps || eval.raise_gain(v) > kHeurEps) eval.flip(v);
    }

    // --- Shared repair + polish ---------------------------------------------
    util::Xoshiro256ss rng(util::mix64(options_.seed ^ 0x19CEDull));
    if (!eval.feasible() && !cut_off)
      detail::anneal_repair(eval, rng, detail::scaled_iters(detail::kAnnealIters, n),
                            deadline);
    if (eval.feasible())
      detail::improve_objective(eval, rng, detail::scaled_iters(detail::kImproveIters, n),
                                deadline);

    if (eval.feasible()) {
      out.status = (cut_off || deadline.expired()) ? Solution::Status::TimeLimit
                                                   : Solution::Status::Feasible;
      out.objective = eval.objective();
      out.values = eval.values();
    } else {
      out.status = Solution::Status::NoSolution;  // feasibility stays unknown
    }
    // Heuristic: no bound, never Optimal.
    out.elapsed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return out;
  }

private:
  SolverOptions options_;
};

}  // namespace

std::unique_ptr<PlacementSolver> make_lp_rounding_solver(SolverOptions options) {
  return std::make_unique<LpRoundingSolver>(options);
}

}  // namespace spe::ilp
