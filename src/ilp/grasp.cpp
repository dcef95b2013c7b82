// GRASP backend (BackendKind::Grasp): greedy randomized adaptive search
// with seeded restarts, TCPSPSuite-style construct-then-local-search.
//
// Each restart:
//   1. Construction — lazy-greedy over "raise gains" (how much lower-side
//      violation setting a variable to 1 removes) with a restricted
//      candidate list: every candidate within kRclAlpha of the best
//      gain is drawn from uniformly. Raises that would break an upper bound
//      are skipped, so the [1,2] coverage cap is respected during
//      construction rather than repaired after.
//   2. Annealing repair — when greedy paints itself into a corner (classic
//      for tight two-sided covers), violation-directed simulated annealing
//      (heuristic_state.cpp) swaps its way out.
//   3. Objective local search — feasibility-preserving flips/swaps.
//
// All randomness flows from SolverOptions::seed mixed with the restart
// index; with time_limit_ms == 0 the work is a fixed function of the
// model and seed, so seeded runs are byte-identical (the determinism
// contract of DESIGN.md §14, pinned by
// tests/ilp/portfolio_differential_test.cpp).

#include <algorithm>
#include <queue>

#include "ilp/heuristic_state.hpp"
#include "ilp/placement_solver.hpp"

namespace spe::ilp {

namespace {

using detail::Deadline;
using detail::IncrementalEval;
using detail::kHeurEps;

constexpr unsigned kRestarts = 8;  ///< seeded construct+improve restarts
constexpr double kRclAlpha = 0.3;  ///< RCL width: accept gain >= best*(1-a)

/// Lazy-greedy randomized construction. Gains only shrink as coverage
/// fills (the models' coefficients are nonnegative), so a stale-entry heap
/// re-check is sound: pop, recompute, and only trust a value that is still
/// the best.
void construct(IncrementalEval& eval, util::Xoshiro256ss& rng, double rcl_alpha,
               const Deadline& deadline) {
  const unsigned n = eval.model().num_vars();
  using Entry = std::pair<double, unsigned>;  // (gain, var); max-heap
  std::priority_queue<Entry> heap;
  for (unsigned v = 0; v < n; ++v) {
    const double g = eval.raise_gain(v);
    if (g > kHeurEps) heap.push({g, v});
  }
  unsigned steps = 0;
  std::vector<Entry> rcl;
  while (!heap.empty() && !eval.feasible()) {
    if ((++steps & 0x3FF) == 0x3FF && deadline.expired()) break;
    // Collect up to kRclProbe entries whose gains are fresh.
    constexpr unsigned kRclProbe = 6;
    rcl.clear();
    double best_gain = 0.0;
    while (!heap.empty() && rcl.size() < kRclProbe) {
      const Entry top = heap.top();
      heap.pop();
      const double fresh = eval.raise_gain(top.second);
      if (fresh <= kHeurEps || eval.values()[top.second]) continue;
      if (fresh < top.first - kHeurEps && !heap.empty() &&
          fresh < heap.top().first - kHeurEps) {
        heap.push({fresh, top.second});  // stale: requeue at its real rank
        continue;
      }
      if (eval.raise_breaks_upper(top.second)) continue;  // cap-saturated
      rcl.push_back({fresh, top.second});
      best_gain = std::max(best_gain, fresh);
    }
    if (rcl.empty()) break;  // every remaining raise is blocked or useless
    // Restricted candidate list: keep everything within alpha of the best.
    const double cutoff = best_gain * (1.0 - rcl_alpha);
    std::vector<Entry> eligible;
    for (const Entry& e : rcl)
      if (e.first >= cutoff - kHeurEps) eligible.push_back(e);
    const Entry chosen =
        eligible[static_cast<std::size_t>(rng.below(eligible.size()))];
    eval.flip(chosen.second);
    for (const Entry& e : rcl)
      if (e.second != chosen.second) heap.push(e);
  }
}

class GraspSolver final : public PlacementSolver {
public:
  explicit GraspSolver(SolverOptions options) : options_(options) {}

  [[nodiscard]] BackendKind kind() const noexcept override { return BackendKind::Grasp; }

  [[nodiscard]] Solution solve(const Model& model) override {
    const auto t0 = std::chrono::steady_clock::now();
    const Deadline deadline(options_.time_limit_ms);
    Solution out;
    const unsigned n = model.num_vars();
    if (n == 0) {
      // No variables: feasibility is decided by the constant constraints.
      out.status = model.is_feasible({}) ? Solution::Status::Feasible
                                         : Solution::Status::NoSolution;
      return out;
    }

    IncrementalEval eval(model);
    bool cut_off = false;
    const bool minimize = model.sense == Sense::Minimize;
    const unsigned anneal_iters = detail::scaled_iters(detail::kAnnealIters, n);
    const unsigned improve_iters = detail::scaled_iters(detail::kImproveIters, n);
    for (unsigned restart = 0; restart < kRestarts; ++restart) {
      if (deadline.expired()) {
        cut_off = true;
        break;
      }
      util::Xoshiro256ss rng(util::mix64(options_.seed ^ (0x6A5Full + restart)));
      eval.reset();
      construct(eval, rng, kRclAlpha, deadline);
      if (!eval.feasible())
        detail::anneal_repair(eval, rng, anneal_iters, deadline);
      if (!eval.feasible()) continue;
      detail::improve_objective(eval, rng, improve_iters, deadline);
      const double obj = eval.objective();
      if (!out.has_solution() ||
          (minimize ? obj < out.objective - kHeurEps : obj > out.objective + kHeurEps)) {
        out.status = Solution::Status::Feasible;
        out.objective = obj;
        out.values = eval.values();
      }
    }
    if (cut_off && out.has_solution()) out.status = Solution::Status::TimeLimit;
    // A heuristic proves nothing: no bound, and never Optimal.
    out.elapsed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return out;
  }

private:
  SolverOptions options_;
};

}  // namespace

std::unique_ptr<PlacementSolver> make_grasp_solver(SolverOptions options) {
  return std::make_unique<GraspSolver>(options);
}

}  // namespace spe::ilp
