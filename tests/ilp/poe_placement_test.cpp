#include "ilp/poe_placement.hpp"

#include <gtest/gtest.h>

#include <set>

namespace spe::ilp {
namespace {

TEST(Table1Stencil, InteriorShape) {
  // Interior PoE: vertical +/-4 (9 cells incl. PoE) + 2 horizontal = 11.
  // On 8x8 the vertical arm always clips; use a 16x8 array for the full
  // stencil.
  const auto cells = table1_stencil(16, 8, 8 * 8 + 4);  // row 8, col 4
  EXPECT_EQ(cells.size(), 11u);
  std::set<unsigned> set(cells.begin(), cells.end());
  EXPECT_TRUE(set.contains(8u * 8 + 4));      // the PoE
  EXPECT_TRUE(set.contains(8u * 8 + 3));      // left
  EXPECT_TRUE(set.contains(8u * 8 + 5));      // right
  EXPECT_TRUE(set.contains(4u * 8 + 4));      // 4 up
  EXPECT_TRUE(set.contains(12u * 8 + 4));     // 4 down
}

TEST(Table1Stencil, CornerClips) {
  const auto cells = table1_stencil(8, 8, 0);
  // Vertical rows 0..4 (5 cells) + right neighbour = 6.
  EXPECT_EQ(cells.size(), 6u);
}

TEST(Table1Stencil, Row3CoversFullColumn) {
  const auto cells = table1_stencil(8, 8, 3 * 8 + 2);
  unsigned column_cells = 0;
  for (unsigned cell : cells) column_cells += cell % 8 == 2;
  EXPECT_EQ(column_cells, 8u);  // rows -1..7 clipped to 0..7
}

TEST(Table1Stencil, OutOfRangeThrows) {
  EXPECT_THROW((void)table1_stencil(8, 8, 64), std::out_of_range);
}

TEST(AllStencils, OnePerCell) {
  const auto shapes = all_stencils(8, 8);
  EXPECT_EQ(shapes.size(), 64u);
  for (unsigned p = 0; p < 64; ++p) {
    // Every stencil contains its own PoE.
    bool has_self = false;
    for (unsigned cell : shapes[p]) has_self |= cell == p;
    EXPECT_TRUE(has_self) << "PoE " << p;
  }
}

TEST(GreedyCover, NeverExceedsCap) {
  const auto placement = greedy_cover(8, 8);
  for (unsigned c : placement.coverage) EXPECT_LE(c, 2u);
  EXPECT_GT(placement.poes.size(), 0u);
}

TEST(SolveFixedPoes, FourteenPoesCoverEverything) {
  PortfolioOptions opt;
  opt.base.node_limit = 4'000'000;
  const auto placement = solve_fixed_poes_portfolio(8, 8, 14, opt);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(placement.poes.size(), 14u);
  EXPECT_EQ(placement.uncovered_cells(), 0u);
  for (unsigned c : placement.coverage) {
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, 2u);
  }
}

TEST(SolveFixedPoes, CountsAreConsistent) {
  PortfolioOptions opt;
  opt.base.node_limit = 2'000'000;
  const auto placement = solve_fixed_poes_portfolio(8, 8, 12, opt);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(placement.single_covered_cells() + placement.overlapped_cells() +
                placement.uncovered_cells(),
            64u);
  EXPECT_EQ(placement.total_coverage(),
            placement.single_covered_cells() + 2 * placement.overlapped_cells());
}

TEST(SolveMinPoes, SmallCrossbarOptimum) {
  // 4x4 (the Fig. 2a configuration): the paper uses 4 PoEs on a 4x4.
  const auto placement = solve_min_poes(4, 4, /*security_s=*/0);
  ASSERT_TRUE(placement.feasible);
  EXPECT_LE(placement.poes.size(), 5u);
  EXPECT_GE(placement.poes.size(), 3u);
  EXPECT_EQ(placement.uncovered_cells(), 0u);
}

TEST(SolveMinPoes, RejectsBadSecurity) {
  EXPECT_THROW((void)solve_min_poes(4, 4, 16), std::invalid_argument);
}

TEST(SolveMinPoesShapes, HigherSecurityNeedsMorePoes) {
  SolverOptions opt;
  opt.node_limit = 2'000'000;
  const auto low = solve_min_poes(8, 8, 0, opt);
  const auto high = solve_min_poes(8, 8, 40, opt);
  if (low.feasible && high.feasible)
    EXPECT_GE(high.poes.size(), low.poes.size());
}

TEST(BuildTable1Model, MatchesSetFormOn3x3) {
  // The literal B-matrix formulation and the symmetry-reduced set form must
  // agree on the minimum PoE count for a small array.
  const unsigned rows = 3, cols = 3;
  const auto set_form = solve_min_poes(rows, cols, 0);
  ASSERT_TRUE(set_form.feasible);

  const Model table1 = build_table1_model(rows, cols, /*max_polyominoes=*/6, 0);
  Solver solver;
  const auto sol = solver.solve(table1);
  ASSERT_TRUE(sol.has_solution());
  EXPECT_DOUBLE_EQ(sol.objective, static_cast<double>(set_form.poes.size()));
}

TEST(SolveFixedPoesShapes, CustomShapesRespected) {
  // Trivial shapes: each PoE covers only itself -> fixed count k covers k.
  std::vector<std::vector<unsigned>> shapes(9);
  for (unsigned p = 0; p < 9; ++p) shapes[p] = {p};
  const auto placement = solve_fixed_poes_shapes_portfolio(shapes, 9, 9);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(placement.poes.size(), 9u);
  EXPECT_EQ(placement.uncovered_cells(), 0u);
  EXPECT_EQ(placement.overlapped_cells(), 0u);
}

}  // namespace
}  // namespace spe::ilp
