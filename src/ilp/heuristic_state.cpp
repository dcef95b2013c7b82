#include "ilp/heuristic_state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spe::ilp::detail {

IncrementalEval::IncrementalEval(const Model& model) : model_(model) {
  const auto& cons = model.constraints();
  var_terms_.resize(model.num_vars());
  for (unsigned ci = 0; ci < cons.size(); ++ci)
    for (const Term& t : cons[ci].terms) var_terms_[t.var].push_back({ci, t.coeff});
  violated_pos_.assign(cons.size(), -1);
  reset();
}

double IncrementalEval::constraint_violation(double sum, double lo, double hi) {
  double v = 0.0;
  if (sum < lo - kHeurEps) v += lo - sum;
  if (sum > hi + kHeurEps) v += sum - hi;
  return v;
}

void IncrementalEval::update_violated(unsigned ci, double old_v, double new_v) {
  const bool was = old_v > kHeurEps;
  const bool is = new_v > kHeurEps;
  if (was == is) return;
  if (is) {
    violated_pos_[ci] = static_cast<int>(violated_list_.size());
    violated_list_.push_back(ci);
  } else {
    // Swap-remove; patch the moved entry's slot.
    const int pos = violated_pos_[ci];
    const unsigned last = violated_list_.back();
    violated_list_[static_cast<std::size_t>(pos)] = last;
    violated_pos_[last] = pos;
    violated_list_.pop_back();
    violated_pos_[ci] = -1;
  }
}

void IncrementalEval::reset() {
  x_.assign(model_.num_vars(), 0);
  const auto& cons = model_.constraints();
  sum_.assign(cons.size(), 0.0);
  violated_list_.clear();
  std::fill(violated_pos_.begin(), violated_pos_.end(), -1);
  violation_ = 0.0;
  objective_ = 0.0;
  for (unsigned ci = 0; ci < cons.size(); ++ci) {
    const double v = constraint_violation(0.0, cons[ci].lo, cons[ci].hi);
    violation_ += v;
    update_violated(ci, 0.0, v);
  }
}

double IncrementalEval::flip_violation_delta(unsigned v) const {
  const double dir = x_[v] ? -1.0 : 1.0;
  const auto& cons = model_.constraints();
  double delta = 0.0;
  for (const VarTerm& t : var_terms_[v]) {
    const Constraint& c = cons[t.constraint];
    const double s = sum_[t.constraint];
    delta += constraint_violation(s + dir * t.coeff, c.lo, c.hi) -
             constraint_violation(s, c.lo, c.hi);
  }
  return delta;
}

double IncrementalEval::flip_objective_delta(unsigned v) const noexcept {
  const double dir = x_[v] ? -1.0 : 1.0;
  return dir * model_.objective()[v];
}

void IncrementalEval::flip(unsigned v) {
  const double dir = x_[v] ? -1.0 : 1.0;
  x_[v] = static_cast<std::uint8_t>(1 - x_[v]);
  objective_ += dir * model_.objective()[v];
  const auto& cons = model_.constraints();
  for (const VarTerm& t : var_terms_[v]) {
    const Constraint& c = cons[t.constraint];
    const double old_sum = sum_[t.constraint];
    const double new_sum = old_sum + dir * t.coeff;
    sum_[t.constraint] = new_sum;
    const double old_v = constraint_violation(old_sum, c.lo, c.hi);
    const double new_v = constraint_violation(new_sum, c.lo, c.hi);
    violation_ += new_v - old_v;
    update_violated(t.constraint, old_v, new_v);
  }
  if (violation_ < 0.0 && violation_ > -1e-6) violation_ = 0.0;  // fp dust
}

double IncrementalEval::raise_gain(unsigned v) const {
  if (x_[v]) return 0.0;
  const auto& cons = model_.constraints();
  double gain = 0.0;
  for (const VarTerm& t : var_terms_[v]) {
    const Constraint& c = cons[t.constraint];
    const double s = sum_[t.constraint];
    if (s < c.lo - kHeurEps) {
      const double before = c.lo - s;
      const double after = std::max(0.0, c.lo - (s + t.coeff));
      gain += before - after;  // negative coeff terms *reduce* the gain
    }
  }
  return gain;
}

bool IncrementalEval::raise_breaks_upper(unsigned v) const {
  if (x_[v]) return false;
  const auto& cons = model_.constraints();
  for (const VarTerm& t : var_terms_[v]) {
    if (t.coeff <= 0.0) continue;
    const Constraint& c = cons[t.constraint];
    if (sum_[t.constraint] + t.coeff > c.hi + kHeurEps) return true;
  }
  return false;
}

bool anneal_repair(IncrementalEval& eval, util::Xoshiro256ss& rng, unsigned max_iters,
                   const Deadline& deadline) {
  if (eval.feasible()) return true;
  const auto& cons = eval.model().constraints();
  // Geometric cooling from an initial temperature matched to unit-size
  // violation steps (the placement models move in integer amounts). The
  // budget is spent in reheat cycles: cooling all the way down once and
  // then grinding at temp~0 stalls on the last few violated cells (measured
  // at 64x64), while periodic reheats re-open the uphill moves that free
  // them.
  constexpr unsigned kReheatCycle = 20'000;
  const unsigned cycle = std::min(max_iters, kReheatCycle);
  constexpr double kTempHigh = 1.5;
  constexpr double kTempLow = 0.02;
  double temp = kTempHigh;
  const double cool =
      cycle > 1 ? std::pow(kTempLow / kTempHigh, 1.0 / static_cast<double>(cycle)) : 1.0;
  for (unsigned iter = 0; iter < max_iters; ++iter, temp *= cool) {
    if (cycle > 0 && iter % cycle == 0) temp = kTempHigh;  // reheat
    if (eval.feasible()) return true;
    if ((iter & 0xFFF) == 0xFFF && deadline.expired()) break;
    const auto& violated = eval.violated();
    const unsigned ci = violated[static_cast<std::size_t>(rng.below(violated.size()))];
    const Constraint& c = cons[ci];
    // Pick a term of the violated constraint whose flip pushes the sum the
    // right way; random start, first usable wins.
    const auto& terms = c.terms;
    if (terms.empty()) continue;
    const std::size_t start = static_cast<std::size_t>(rng.below(terms.size()));
    const bool need_raise = eval.constraint_sum(ci) < c.lo - kHeurEps;
    int pick = -1;
    for (std::size_t k = 0; k < terms.size(); ++k) {
      const Term& t = terms[(start + k) % terms.size()];
      const bool is_one = eval.values()[t.var] != 0;
      const double flip_effect = (is_one ? -1.0 : 1.0) * t.coeff;
      if ((need_raise && flip_effect > 0.0) || (!need_raise && flip_effect < 0.0)) {
        pick = static_cast<int>(t.var);
        break;
      }
    }
    if (pick < 0) continue;
    const unsigned v = static_cast<unsigned>(pick);
    const double delta = eval.flip_violation_delta(v);
    if (delta <= kHeurEps || rng.uniform() < std::exp(-delta / temp)) eval.flip(v);
  }
  return eval.feasible();
}

void improve_objective(IncrementalEval& eval, util::Xoshiro256ss& rng, unsigned max_iters,
                       const Deadline& deadline) {
  if (!eval.feasible()) return;
  const bool minimize = eval.model().sense == Sense::Minimize;
  const unsigned n = eval.model().num_vars();
  if (n == 0) return;
  const auto improved = [&](double delta) {
    return minimize ? delta < -kHeurEps : delta > kHeurEps;
  };
  for (unsigned iter = 0; iter < max_iters; ++iter) {
    if ((iter & 0xFFF) == 0xFFF && deadline.expired()) return;
    const unsigned a = static_cast<unsigned>(rng.below(n));
    if (rng.below(2) == 0) {
      // Single flip that keeps feasibility and improves the objective.
      if (!improved(eval.flip_objective_delta(a))) continue;
      if (eval.flip_violation_delta(a) > kHeurEps) continue;
      eval.flip(a);
    } else {
      // 2-swap: one up, one down. Apply both, revert unless it helped.
      const unsigned b = static_cast<unsigned>(rng.below(n));
      if (a == b || eval.values()[a] == eval.values()[b]) continue;
      const double obj_before = eval.objective();
      eval.flip(a);
      eval.flip(b);
      if (!eval.feasible() ||
          !improved(eval.objective() - obj_before)) {
        eval.flip(b);
        eval.flip(a);
      }
    }
  }
}

}  // namespace spe::ilp::detail
