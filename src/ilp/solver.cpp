#include "ilp/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace spe::ilp {

const char* to_string(Solution::Status status) noexcept {
  switch (status) {
    case Solution::Status::Optimal: return "optimal";
    case Solution::Status::Feasible: return "feasible";
    case Solution::Status::TimeLimit: return "time_limit";
    case Solution::Status::Infeasible: return "infeasible";
    case Solution::Status::NoSolution: return "no_solution";
  }
  return "unknown";
}

namespace {

constexpr double kEps = 1e-9;
constexpr std::int8_t kUnassigned = -1;

/// How often the DFS re-reads the wall clock. Cheap enough to keep the
/// deadline cooperative without a syscall per node.
constexpr std::uint64_t kDeadlineCheckNodes = 1024;

/// Search state shared across the DFS. Assignments are trailed so they can
/// be undone on backtrack; per-constraint running sums keep propagation
/// incremental.
class SearchState {
public:
  explicit SearchState(const Model& model) : model_(model) {
    const unsigned n = model.num_vars();
    assign_.assign(n, kUnassigned);
    var_constraints_.resize(n);
    const auto& cons = model.constraints();
    fixed_sum_.assign(cons.size(), 0.0);
    pos_slack_.assign(cons.size(), 0.0);
    neg_slack_.assign(cons.size(), 0.0);
    for (unsigned ci = 0; ci < cons.size(); ++ci) {
      for (const Term& t : cons[ci].terms) {
        var_constraints_[t.var].push_back(ci);
        if (t.coeff > 0.0)
          pos_slack_[ci] += t.coeff;
        else
          neg_slack_[ci] += t.coeff;
      }
    }
    // Static fallback branching order: variables in many / large-coefficient
    // constraints first, ties broken by objective magnitude.
    branch_order_.resize(n);
    std::vector<double> weight(n, 0.0);
    for (const Constraint& c : cons)
      for (const Term& t : c.terms) weight[t.var] += std::fabs(t.coeff);
    for (unsigned v = 0; v < n; ++v) branch_order_[v] = v;
    std::sort(branch_order_.begin(), branch_order_.end(), [&](unsigned a, unsigned b) {
      if (weight[a] != weight[b]) return weight[a] > weight[b];
      return std::fabs(model.objective()[a]) > std::fabs(model.objective()[b]);
    });

    // Detect a cardinality constraint (sum of every variable == K with unit
    // coefficients); it sharpens the objective bound dramatically for the
    // fixed-PoE-count placement models.
    for (const Constraint& c : cons) {
      if (c.terms.size() != n || c.lo != c.hi) continue;
      bool unit = true;
      std::vector<bool> seen(n, false);
      for (const Term& t : c.terms) {
        if (t.coeff != 1.0 || seen[t.var]) {
          unit = false;
          break;
        }
        seen[t.var] = true;
      }
      if (unit) {
        cardinality_ = static_cast<int>(c.lo);
        break;
      }
    }
  }

  [[nodiscard]] std::int8_t value(unsigned v) const { return assign_[v]; }
  [[nodiscard]] std::size_t trail_size() const { return trail_.size(); }

  /// Assigns v := val and updates constraint sums. Returns false if some
  /// constraint becomes unsatisfiable.
  bool assign(unsigned v, std::uint8_t val) {
    assign_[v] = static_cast<std::int8_t>(val);
    trail_.push_back(v);
    if (val) obj_sum_ += model_.objective()[v];
    for (unsigned ci : var_constraints_[v]) {
      const double coeff = coeff_of(ci, v);
      if (coeff > 0.0)
        pos_slack_[ci] -= coeff;
      else
        neg_slack_[ci] -= coeff;
      if (val) fixed_sum_[ci] += coeff;
      const Constraint& c = model_.constraints()[ci];
      if (fixed_sum_[ci] + neg_slack_[ci] > c.hi + kEps) return false;
      if (fixed_sum_[ci] + pos_slack_[ci] < c.lo - kEps) return false;
    }
    return true;
  }

  void undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
      const unsigned v = trail_.back();
      trail_.pop_back();
      const std::uint8_t val = static_cast<std::uint8_t>(assign_[v]);
      if (val) obj_sum_ -= model_.objective()[v];
      for (unsigned ci : var_constraints_[v]) {
        const double coeff = coeff_of(ci, v);
        if (coeff > 0.0)
          pos_slack_[ci] += coeff;
        else
          neg_slack_[ci] += coeff;
        if (val) fixed_sum_[ci] -= coeff;
      }
      assign_[v] = kUnassigned;
    }
  }

  /// Fixpoint propagation: forces variables whose alternative value would
  /// violate some constraint. Returns false on conflict.
  bool propagate() {
    bool changed = true;
    while (changed) {
      changed = false;
      const auto& cons = model_.constraints();
      for (unsigned ci = 0; ci < cons.size(); ++ci) {
        const Constraint& c = cons[ci];
        const double lo_reach = fixed_sum_[ci] + neg_slack_[ci];
        const double hi_reach = fixed_sum_[ci] + pos_slack_[ci];
        if (lo_reach > c.hi + kEps || hi_reach < c.lo - kEps) return false;
        for (const Term& t : c.terms) {
          if (assign_[t.var] != kUnassigned) continue;
          if (t.coeff > 0.0) {
            // Setting to 1 adds coeff on top of lo_reach (its own
            // contribution to neg_slack is zero).
            if (lo_reach + t.coeff > c.hi + kEps) {
              if (!assign(t.var, 0)) return false;
              changed = true;
            } else if (hi_reach - t.coeff < c.lo - kEps) {
              if (!assign(t.var, 1)) return false;
              changed = true;
            }
          } else {
            if (lo_reach - t.coeff > c.hi + kEps) {
              // Note: for negative coeff, *zero* keeps lo_reach; setting to
              // 0 removes the negative slack contribution.
              if (!assign(t.var, 1)) return false;
              changed = true;
            } else if (hi_reach + t.coeff < c.lo - kEps) {
              if (!assign(t.var, 0)) return false;
              changed = true;
            }
          }
        }
      }
    }
    return true;
  }

  /// Optimistic objective bound for the current partial assignment. When a
  /// cardinality constraint (sum x == K) exists, only the best (K - ones)
  /// remaining coefficients can still be taken, which tightens the bound.
  [[nodiscard]] double bound() const {
    double b = obj_sum_;
    const auto& obj = model_.objective();
    std::vector<double> candidates;
    if (model_.sense == Sense::Minimize) {
      for (unsigned v = 0; v < obj.size(); ++v)
        if (assign_[v] == kUnassigned && obj[v] < 0.0) candidates.push_back(obj[v]);
      if (cardinality_ >= 0) {
        const int remaining = cardinality_ - static_cast<int>(ones_assigned());
        if (remaining <= 0) return b;
        if (static_cast<int>(candidates.size()) > remaining) {
          std::partial_sort(candidates.begin(), candidates.begin() + remaining,
                            candidates.end());
          candidates.resize(remaining);
        }
      }
    } else {
      for (unsigned v = 0; v < obj.size(); ++v)
        if (assign_[v] == kUnassigned && obj[v] > 0.0) candidates.push_back(obj[v]);
      if (cardinality_ >= 0) {
        const int remaining = cardinality_ - static_cast<int>(ones_assigned());
        if (remaining <= 0) return b;
        if (static_cast<int>(candidates.size()) > remaining) {
          std::partial_sort(candidates.begin(), candidates.begin() + remaining,
                            candidates.end(), std::greater<>());
          candidates.resize(remaining);
        }
      }
    }
    for (double c : candidates) b += c;
    return b;
  }

  [[nodiscard]] unsigned ones_assigned() const {
    unsigned n = 0;
    for (auto a : assign_) n += a == 1 ? 1u : 0u;
    return n;
  }

  [[nodiscard]] double objective_sum() const noexcept { return obj_sum_; }

  /// Branch variable: prefer an unassigned variable inside the most
  /// constrained still-unsatisfied >=-side constraint (classic
  /// fail-first for covering problems); fall back to the static order.
  [[nodiscard]] unsigned pick_branch_var() const {
    const auto& cons = model_.constraints();
    int best_ci = -1;
    unsigned best_free = ~0u;
    for (unsigned ci = 0; ci < cons.size(); ++ci) {
      const Constraint& c = cons[ci];
      if (c.lo == -Constraint::kInf) continue;
      if (fixed_sum_[ci] >= c.lo - kEps) continue;  // lower side already met
      unsigned free = 0;
      for (const Term& t : c.terms)
        if (assign_[t.var] == kUnassigned) ++free;
      if (free > 0 && free < best_free) {
        best_free = free;
        best_ci = static_cast<int>(ci);
        if (free == 1) break;
      }
    }
    if (best_ci >= 0) {
      unsigned best_var = model_.num_vars();
      double best_coeff = -1.0;
      for (const Term& t : model_.constraints()[static_cast<unsigned>(best_ci)].terms) {
        if (assign_[t.var] == kUnassigned && std::fabs(t.coeff) > best_coeff) {
          best_coeff = std::fabs(t.coeff);
          best_var = t.var;
        }
      }
      if (best_var != model_.num_vars()) return best_var;
    }
    for (unsigned v : branch_order_)
      if (assign_[v] == kUnassigned) return v;
    return model_.num_vars();
  }

  [[nodiscard]] std::vector<std::uint8_t> snapshot() const {
    std::vector<std::uint8_t> x(assign_.size(), 0);
    for (unsigned v = 0; v < assign_.size(); ++v) x[v] = assign_[v] == 1 ? 1 : 0;
    return x;
  }

private:
  [[nodiscard]] double coeff_of(unsigned ci, unsigned v) const {
    for (const Term& t : model_.constraints()[ci].terms)
      if (t.var == v) return t.coeff;
    return 0.0;
  }

  const Model& model_;
  std::vector<std::int8_t> assign_;
  std::vector<unsigned> trail_;
  std::vector<std::vector<unsigned>> var_constraints_;
  std::vector<double> fixed_sum_;
  std::vector<double> pos_slack_;
  std::vector<double> neg_slack_;
  std::vector<unsigned> branch_order_;
  double obj_sum_ = 0.0;
  int cardinality_ = -1;  ///< K of a detected sum(x)==K constraint, or -1.
};

class Search {
public:
  Search(const Model& model, const SolverOptions& options)
      : model_(model), options_(options), state_(model) {
    if (options.time_limit_ms > 0.0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(options.time_limit_ms));
      has_deadline_ = true;
    }
  }

  Solution run() {
    const auto t0 = std::chrono::steady_clock::now();
    // Root relaxation bound: with nothing assigned, bound() is the best the
    // objective could ever reach (the cardinality sharpening applies here
    // too). Sound whatever happens later, so report it even on a cutoff.
    const double root_bound = state_.bound();
    greedy_start();
    dfs();
    Solution out;
    out.nodes_explored = nodes_;
    if (has_incumbent_) {
      if (hit_deadline_)
        out.status = Solution::Status::TimeLimit;
      else if (hit_limit_)
        out.status = Solution::Status::Feasible;
      else
        out.status = Solution::Status::Optimal;
      out.objective = incumbent_obj_;
      out.values = incumbent_;
    } else {
      out.status = (hit_limit_ || hit_deadline_) ? Solution::Status::NoSolution
                                                 : Solution::Status::Infeasible;
    }
    // Bound: proven optimal => the objective itself; cut off => the root
    // bound still holds. A full search with no incumbent proves infeasibility
    // (no finite bound to report).
    if (out.status == Solution::Status::Optimal) {
      out.best_bound = out.objective;
      out.has_bound = true;
    } else if (out.status != Solution::Status::Infeasible) {
      out.best_bound = root_bound;
      out.has_bound = true;
    }
    out.elapsed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return out;
  }

private:
  [[nodiscard]] bool better(double a, double b) const {
    return model_.sense == Sense::Minimize ? a < b - kEps : a > b + kEps;
  }

  void record_if_complete() {
    const auto x = state_.snapshot();
    for (unsigned v = 0; v < model_.num_vars(); ++v)
      if (state_.value(v) == kUnassigned) return;
    if (!model_.is_feasible(x)) return;
    const double obj = model_.objective_value(x);
    if (!has_incumbent_ || better(obj, incumbent_obj_)) {
      has_incumbent_ = true;
      incumbent_obj_ = obj;
      incumbent_ = x;
    }
  }

  void greedy_start() {
    // Cheap randomised-rounding-free greedy: try all-zeros, then flip
    // variables that repair violated >=-constraints, preferring variables
    // that repair the most. Often lands a feasible cover incumbent.
    std::vector<std::uint8_t> x(model_.num_vars(), 0);
    for (int pass = 0; pass < 256; ++pass) {
      int worst = -1;
      double worst_gap = kEps;
      const auto& cons = model_.constraints();
      for (unsigned ci = 0; ci < cons.size(); ++ci) {
        double sum = 0.0;
        for (const Term& t : cons[ci].terms)
          if (x[t.var]) sum += t.coeff;
        const double gap = cons[ci].lo - sum;
        if (gap > worst_gap) {
          worst_gap = gap;
          worst = static_cast<int>(ci);
        }
      }
      if (worst < 0) break;
      // Flip the unset variable with the largest positive coefficient.
      const Constraint& c = model_.constraints()[static_cast<unsigned>(worst)];
      int best_var = -1;
      double best_coeff = 0.0;
      for (const Term& t : c.terms) {
        if (!x[t.var] && t.coeff > best_coeff) {
          best_coeff = t.coeff;
          best_var = static_cast<int>(t.var);
        }
      }
      if (best_var < 0) break;
      x[static_cast<unsigned>(best_var)] = 1;
    }
    if (model_.is_feasible(x)) {
      has_incumbent_ = true;
      incumbent_obj_ = model_.objective_value(x);
      incumbent_ = x;
    }
  }

  void dfs() {
    if (++nodes_ > options_.node_limit) {
      hit_limit_ = true;
      return;
    }
    if (has_deadline_ && nodes_ % kDeadlineCheckNodes == 0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      hit_deadline_ = true;
      return;
    }
    if (hit_deadline_) return;
    const std::size_t mark = state_.trail_size();
    if (!state_.propagate()) {
      state_.undo_to(mark);
      return;
    }
    if (has_incumbent_ && !better(state_.bound(), incumbent_obj_)) {
      state_.undo_to(mark);
      return;
    }
    const unsigned v = state_.pick_branch_var();
    if (v == model_.num_vars()) {
      record_if_complete();
      state_.undo_to(mark);
      return;
    }
    // Value order: objective-improving value first.
    const double coeff = model_.objective()[v];
    const std::uint8_t first =
        (model_.sense == Sense::Minimize) ? (coeff <= 0.0 ? 1 : 0) : (coeff >= 0.0 ? 1 : 0);
    for (std::uint8_t attempt = 0; attempt < 2 && !hit_limit_ && !hit_deadline_;
         ++attempt) {
      const std::uint8_t val = attempt == 0 ? first : static_cast<std::uint8_t>(1 - first);
      const std::size_t sub_mark = state_.trail_size();
      if (state_.assign(v, val)) dfs();
      state_.undo_to(sub_mark);
    }
    state_.undo_to(mark);
  }

  const Model& model_;
  const SolverOptions& options_;
  SearchState state_;
  std::uint64_t nodes_ = 0;
  bool hit_limit_ = false;
  bool hit_deadline_ = false;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  bool has_incumbent_ = false;
  double incumbent_obj_ = 0.0;
  std::vector<std::uint8_t> incumbent_;
};

}  // namespace

Solution Solver::solve(const Model& model) {
  if (model.num_vars() == 0) {
    Solution s;
    s.status = Solution::Status::Optimal;
    s.best_bound = 0.0;
    s.has_bound = true;
    return s;
  }
  Search search(model, options_);
  return search.run();
}

}  // namespace spe::ilp
