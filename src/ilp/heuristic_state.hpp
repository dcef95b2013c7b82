#pragma once
// Internal to src/ilp: shared machinery for the heuristic placement
// backends (lp_rounding.cpp, grasp.cpp). Both backends move through the
// same incremental assignment evaluator so construction, annealing repair
// and local search agree on feasibility to the same epsilon as the exact
// solver, and both share the repair/improvement loops so their behaviour
// differs only in how the starting assignment is built.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "ilp/model.hpp"
#include "util/rng.hpp"

namespace spe::ilp::detail {

inline constexpr double kHeurEps = 1e-9;

/// Per-run work budgets both heuristic backends share (before scaled_iters):
/// repair-annealing moves per restart/rounding, and objective local-search
/// moves after a feasible point is reached.
inline constexpr unsigned kAnnealIters = 20'000;
inline constexpr unsigned kImproveIters = 4'000;

/// Scales a per-run iteration budget to the model size: the budgets are
/// tuned for the 8x8 reference crossbar (~64 binaries); bigger models get
/// proportionally more moves so repair quality is size-independent.
/// Saturates instead of overflowing.
[[nodiscard]] inline unsigned scaled_iters(unsigned base, unsigned num_vars) {
  const unsigned long long scale = std::max(1u, num_vars / 512);
  const unsigned long long total = static_cast<unsigned long long>(base) * scale;
  return total > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<unsigned>(total);
}

/// Cooperative wall-clock deadline. Heuristics poll it between restarts /
/// sweeps and every few thousand annealing moves; disabled (never expires)
/// when the configured limit is 0.
class Deadline {
public:
  explicit Deadline(double limit_ms) {
    if (limit_ms > 0.0) {
      enabled_ = true;
      end_ = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(limit_ms));
    }
  }

  [[nodiscard]] bool expired() const {
    return enabled_ && std::chrono::steady_clock::now() >= end_;
  }

private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point end_;
};

/// Incremental evaluation of a binary assignment against a Model:
/// per-constraint running sums, total two-sided violation, objective, flip
/// deltas, and a uniformly-samplable set of currently violated constraints
/// (what the annealing repair steers by).
class IncrementalEval {
public:
  explicit IncrementalEval(const Model& model);

  /// Resets to the all-zeros assignment.
  void reset();

  [[nodiscard]] const std::vector<std::uint8_t>& values() const noexcept { return x_; }
  [[nodiscard]] double violation() const noexcept { return violation_; }
  [[nodiscard]] bool feasible() const noexcept { return violation_ <= kHeurEps; }
  [[nodiscard]] double objective() const noexcept { return objective_; }
  [[nodiscard]] const Model& model() const noexcept { return model_; }

  /// Total-violation change if `v` were flipped (state unchanged).
  [[nodiscard]] double flip_violation_delta(unsigned v) const;

  /// Objective change if `v` were flipped.
  [[nodiscard]] double flip_objective_delta(unsigned v) const noexcept;

  void flip(unsigned v);

  /// Lower-side violation reduction from raising v 0->1 (0 when v is 1).
  [[nodiscard]] double raise_gain(unsigned v) const;

  /// True when raising v 0->1 would create or worsen an upper-side
  /// violation on any incident constraint.
  [[nodiscard]] bool raise_breaks_upper(unsigned v) const;

  /// Current sum a.x of one constraint.
  [[nodiscard]] double constraint_sum(unsigned ci) const { return sum_[ci]; }

  /// Currently violated constraints (unordered; stable for a given move
  /// sequence, which keeps seeded runs byte-identical).
  [[nodiscard]] const std::vector<unsigned>& violated() const noexcept {
    return violated_list_;
  }

  /// Terms incident to a variable as (constraint index, coefficient).
  struct VarTerm {
    unsigned constraint;
    double coeff;
  };
  [[nodiscard]] const std::vector<VarTerm>& terms_of(unsigned v) const {
    return var_terms_[v];
  }

private:
  [[nodiscard]] static double constraint_violation(double sum, double lo, double hi);
  void update_violated(unsigned ci, double old_v, double new_v);

  const Model& model_;
  std::vector<std::uint8_t> x_;
  std::vector<double> sum_;                       ///< per-constraint sum a.x
  std::vector<std::vector<VarTerm>> var_terms_;   ///< var -> incident terms
  std::vector<unsigned> violated_list_;
  std::vector<int> violated_pos_;                 ///< constraint -> list slot (-1)
  double violation_ = 0.0;
  double objective_ = 0.0;
};

/// Simulated-annealing repair: violation-directed moves (pick a violated
/// constraint, flip a variable that pushes its sum the right way), accepting
/// uphill moves with a geometric temperature schedule. Runs until feasible,
/// `max_iters` moves, or the deadline. Returns true when feasible.
bool anneal_repair(IncrementalEval& eval, util::Xoshiro256ss& rng, unsigned max_iters,
                   const Deadline& deadline);

/// Feasibility-preserving objective local search: single flips and 2-swaps
/// (one up, one down), first-improvement, `max_iters` sampled moves. The
/// evaluator must already be feasible; it stays feasible.
void improve_objective(IncrementalEval& eval, util::Xoshiro256ss& rng, unsigned max_iters,
                       const Deadline& deadline);

}  // namespace spe::ilp::detail
