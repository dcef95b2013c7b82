// Property / fuzz suite for the placement portfolio at production sizes
// (64x64 and 128x128 — far beyond what the exact B&B can prove). Random
// security margins and random polyomino candidate sets are pushed through
// PortfolioSolver; every returned solution must satisfy the placement
// invariants, statuses must stay truthful (never Optimal unless a proving
// bound closes the gap), and wall-clock budgets must be honoured
// cooperatively rather than by unbounded overshoot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ilp/placement_solver.hpp"
#include "ilp/poe_placement.hpp"
#include "util/rng.hpp"

namespace spe::ilp {
namespace {

constexpr double kEps = 1e-9;

/// Truthfulness of the reported status against the solution content. Holds
/// for any portfolio run on any model.
void expect_truthful(const PortfolioResult& result, const char* who) {
  const Solution& best = result.best;
  if (best.status == Solution::Status::Optimal) {
    // Optimal demands a proving bound, not just a feasible incumbent.
    EXPECT_TRUE(best.has_bound) << who;
    EXPECT_NEAR(best.objective, best.best_bound, 1e-6) << who;
  }
  if (best.has_solution()) {
    EXPECT_FALSE(best.values.empty()) << who;
  } else {
    EXPECT_TRUE(best.status == Solution::Status::Infeasible ||
                best.status == Solution::Status::NoSolution)
        << who << ": " << to_string(best.status);
  }
  unsigned winners = 0;
  for (const BackendReport& r : result.reports) {
    winners += r.winner ? 1 : 0;
    if (r.status == Solution::Status::Optimal) {
      EXPECT_TRUE(r.has_bound) << who;
    }
    // TimeLimit is only reported alongside an incumbent (satellite bugfix).
    if (r.status == Solution::Status::TimeLimit) {
      EXPECT_TRUE(r.found_solution) << who;
    }
  }
  EXPECT_EQ(winners, result.has_solution() ? 1u : 0u) << who;
}

/// `poe_limit` bounds the chosen indices: cell count for the stencil entry
/// points (shape p is anchored at cell p), candidate-shape count for the
/// generalised shapes variants.
void expect_placement_invariants(const PoePlacement& placement, unsigned rows,
                                 unsigned cols, unsigned security_s, unsigned poe_limit,
                                 const char* who) {
  ASSERT_TRUE(placement.feasible) << who;
  ASSERT_EQ(placement.coverage.size(), rows * cols) << who;
  unsigned total = 0;
  for (unsigned cell = 0; cell < placement.coverage.size(); ++cell) {
    EXPECT_GE(placement.coverage[cell], 1u) << who << ": cell " << cell;
    EXPECT_LE(placement.coverage[cell], 2u) << who << ": cell " << cell;
    total += placement.coverage[cell];
  }
  EXPECT_GE(total, rows * cols + security_s) << who;
  EXPECT_EQ(total, placement.total_coverage()) << who;
  EXPECT_EQ(placement.uncovered_cells(), 0u) << who;
  // Chosen PoEs are distinct, in-range cells.
  std::vector<unsigned> poes = placement.poes;
  std::sort(poes.begin(), poes.end());
  EXPECT_TRUE(std::adjacent_find(poes.begin(), poes.end()) == poes.end()) << who;
  if (!poes.empty()) {
    EXPECT_LT(poes.back(), poe_limit) << who;
  }
}

TEST(PortfolioProperty, RandomSecurityMarginsAt64x64) {
  util::Xoshiro256ss rng(0xF00D);
  const unsigned rows = 64, cols = 64, cells = rows * cols;
  for (int trial = 0; trial < 4; ++trial) {
    // S anywhere from none to the cells/8 stress end of the Table-1 range.
    const unsigned security_s = static_cast<unsigned>(rng.below(cells / 8 + 1));
    PortfolioOptions options;
    options.base.seed = rng();
    const PoePlacement placement =
        solve_min_poes_portfolio(rows, cols, security_s, options);
    expect_placement_invariants(placement, rows, cols, security_s, cells, "64x64");
    // At this size no backend proves optimality; the status must say so.
    EXPECT_NE(placement.status, Solution::Status::Optimal) << "S=" << security_s;
  }
}

TEST(PortfolioProperty, LargeArray128x128) {
  const unsigned rows = 128, cols = 128;
  const unsigned security_s = rows * cols / 16;
  PortfolioOptions options;
  options.base.seed = 0xBEEF;
  const PoePlacement placement = solve_min_poes_portfolio(rows, cols, security_s, options);
  expect_placement_invariants(placement, rows, cols, security_s, rows * cols,
                              "128x128");
}

TEST(PortfolioProperty, RandomPolyominoSetsStayFeasible) {
  // Random candidate sets seeded with every singleton shape: each cell can
  // cover itself, so with S = 0 the model is feasible by construction and
  // the portfolio must find *some* placement (trivially all singletons).
  util::Xoshiro256ss rng(0x5EED5);
  const unsigned rows = 64, cols = 64, cells = rows * cols;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::vector<unsigned>> shapes;
    shapes.reserve(cells + 256);
    for (unsigned cell = 0; cell < cells; ++cell) shapes.push_back({cell});
    // Plus random 3-7 cell blobs grown from a random anchor.
    for (int blob = 0; blob < 256; ++blob) {
      const unsigned anchor = static_cast<unsigned>(rng.below(cells));
      std::vector<unsigned> shape = {anchor};
      const unsigned extra = 2 + static_cast<unsigned>(rng.below(5));
      for (unsigned step = 0; step < extra; ++step) {
        const unsigned base = shape[rng.below(shape.size())];
        const unsigned r = base / cols, c = base % cols;
        unsigned next = base;
        switch (rng.below(4)) {
          case 0: next = r > 0 ? base - cols : base; break;
          case 1: next = r + 1 < rows ? base + cols : base; break;
          case 2: next = c > 0 ? base - 1 : base; break;
          default: next = c + 1 < cols ? base + 1 : base; break;
        }
        if (std::find(shape.begin(), shape.end(), next) == shape.end())
          shape.push_back(next);
      }
      shapes.push_back(std::move(shape));
    }
    PortfolioOptions options;
    options.base.seed = rng();
    const PoePlacement placement =
        solve_min_poes_shapes_portfolio(shapes, cells, /*security_s=*/0, options);
    expect_placement_invariants(placement, rows, cols, 0,
                                static_cast<unsigned>(shapes.size()), "random shapes");
  }
}

TEST(PortfolioProperty, ReportsAuditTheRun) {
  const unsigned rows = 64, cols = 64;
  const Model model = build_placement_model(all_stencils(rows, cols), rows * cols,
                                            /*exact_count=*/-1,
                                            static_cast<int>(rows * cols + 256),
                                            /*maximize_coverage=*/false);
  PortfolioOptions options;
  options.base.seed = 0xCAFE;
  PortfolioSolver portfolio(options);
  const PortfolioResult result = portfolio.run(model);
  ASSERT_TRUE(result.has_solution());
  expect_truthful(result, "64x64 audit");
  ASSERT_FALSE(result.reports.empty());
  // The winner report's objective is the returned objective.
  for (const BackendReport& r : result.reports) {
    if (r.winner) {
      EXPECT_DOUBLE_EQ(r.objective, result.best.objective);
    }
    EXPECT_GE(r.elapsed_ms, 0.0);
  }
}

TEST(PortfolioProperty, StatusNeverOptimalWithoutProof) {
  // Heuristic-only schedules can never prove anything, whatever the model.
  util::Xoshiro256ss rng(0xAB1E);
  for (int trial = 0; trial < 3; ++trial) {
    const unsigned size = 16 + static_cast<unsigned>(rng.below(3)) * 8;
    const Model model = build_placement_model(all_stencils(size, size), size * size,
                                              -1, static_cast<int>(size * size),
                                              false);
    PortfolioOptions options;
    options.base.seed = rng();
    options.stop_at_first_feasible = false;
    options.schedule = {{BackendKind::Grasp, options.base},
                        {BackendKind::LpRounding, options.base}};
    PortfolioSolver portfolio(options);
    const PortfolioResult result = portfolio.run(model);
    expect_truthful(result, "heuristic-only");
    ASSERT_TRUE(result.has_solution());
    EXPECT_NE(result.best.status, Solution::Status::Optimal);
    EXPECT_FALSE(result.has_bound);
  }
}

TEST(PortfolioProperty, TimeBudgetsAreHonouredCooperatively) {
  // A budget that has already expired on a 128x128 model: each member must
  // notice it at its first cooperative check and report truthfully. The
  // assertions count work, not wall-clock time, so a stalled host cannot
  // fail them. A sub-nanosecond budget rounds to a deadline of "now".
  const unsigned size = 128;
  const Model model = build_placement_model(all_stencils(size, size), size * size, -1,
                                            static_cast<int>(size * size + 1024), false);
  PortfolioOptions options;
  options.base.seed = 0x7E57;
  options.base.time_limit_ms = 1e-9;
  options.stop_at_first_feasible = false;
  options.schedule = {{BackendKind::LpRounding, options.base},
                      {BackendKind::Grasp, options.base},
                      {BackendKind::BranchAndBound, options.base}};
  PortfolioSolver portfolio(options);
  const PortfolioResult result = portfolio.run(model);
  expect_truthful(result, "time budget");
  ASSERT_EQ(result.reports.size(), 3u);
  for (const BackendReport& r : result.reports) {
    SCOPED_TRACE(to_string(r.kind));
    if (r.kind == BackendKind::BranchAndBound) {
      // B&B checks its deadline every kDeadlineCheckNodes (1024) nodes and
      // then reports the cut-off: TimeLimit with an incumbent, NoSolution
      // without one (its greedy start finds none on this model).
      EXPECT_TRUE(r.status == Solution::Status::TimeLimit ||
                  r.status == Solution::Status::NoSolution)
          << to_string(r.status);
      EXPECT_LE(r.nodes_explored, 1024u);
      EXPECT_TRUE(r.has_bound) << "the root bound survives a cut-off";
    } else {
      // A cut-off heuristic reports TimeLimit with its incumbent or
      // NoSolution without one; never Feasible, never a bound.
      EXPECT_TRUE(r.status == Solution::Status::TimeLimit ||
                  r.status == Solution::Status::NoSolution)
          << to_string(r.status);
      EXPECT_FALSE(r.has_bound);
    }
    if (r.status == Solution::Status::TimeLimit) {
      EXPECT_TRUE(r.found_solution);
    }
  }
}

TEST(PortfolioProperty, FixedCountRejectsImpossibleBudget) {
  // Fewer PoEs than full coverage needs: every backend must agree there is
  // no placement, and none may fabricate one.
  const PoePlacement placement = solve_fixed_poes_portfolio(16, 16, 4);
  EXPECT_FALSE(placement.feasible);
  EXPECT_TRUE(placement.poes.empty());
}

TEST(PortfolioProperty, ObjectiveMatchesModelArithmetic) {
  const unsigned size = 32;
  const Model model = build_placement_model(all_stencils(size, size), size * size, -1,
                                            static_cast<int>(size * size + 64), false);
  PortfolioOptions options;
  options.base.seed = 0x0DDBA11;
  PortfolioSolver portfolio(options);
  const PortfolioResult result = portfolio.run(model);
  ASSERT_TRUE(result.has_solution());
  EXPECT_TRUE(model.is_feasible(result.best.values));
  EXPECT_NEAR(model.objective_value(result.best.values), result.best.objective, kEps);
}

}  // namespace
}  // namespace spe::ilp
