// Fig. 6 reproduction: polyomino coverage in an 8x8 crossbar for 10-17
// PoEs, split into cells covered by a single polyomino (the red bars — the
// known-plaintext vulnerabilities of Section 6.2.2) and cells covered by
// two or more (the green bars). Also verifies the Table-1 ILP's headline:
// the minimum PoE count for full-security coverage.
//
// Each fixed-count placement runs the whole solver portfolio on the Table-1
// stencils (exact B&B, then GRASP, then LP rounding; the best coverage
// wins), so a B&B that runs out of nodes is not mistaken for an infeasible
// window. Only where no backend finds a strict <=2 saturation placement
// (the paper's boundary equations are "customized"; see DESIGN.md) does
// the harness retry with the relaxed cap of 3, and it flags that row.

#include "bench_util.hpp"
#include "core/calibration.hpp"
#include "core/lut.hpp"
#include "ilp/poe_placement.hpp"
#include "util/table.hpp"

namespace {

spe::ilp::PoePlacement solve_strict(unsigned count, const spe::ilp::SolverOptions& opt) {
  using namespace spe::ilp;
  PortfolioOptions portfolio;
  portfolio.schedule = {{BackendKind::BranchAndBound, opt},
                        {BackendKind::Grasp, opt},
                        {BackendKind::LpRounding, opt}};
  portfolio.stop_at_first_feasible = false;
  return solve_fixed_poes_portfolio(8, 8, count, std::move(portfolio));
}

/// Exactly `count` PoEs, maximum coverage, per-cell window [1, 3].
spe::ilp::PoePlacement solve_relaxed(unsigned count, const spe::ilp::SolverOptions& opt) {
  using namespace spe::ilp;
  const auto shapes = all_stencils(8, 8);
  Model m;
  m.sense = Sense::Maximize;
  std::vector<std::vector<unsigned>> cell_to_poes(64);
  for (unsigned p = 0; p < shapes.size(); ++p) {
    m.add_var(static_cast<double>(shapes[p].size()));
    for (unsigned cell : shapes[p]) cell_to_poes[cell].push_back(p);
  }
  for (unsigned cell = 0; cell < 64; ++cell) {
    std::vector<Term> terms;
    for (unsigned p : cell_to_poes[cell]) terms.push_back({p, 1.0});
    m.add_range(std::move(terms), 1.0, 3.0);
  }
  std::vector<Term> all;
  for (unsigned p = 0; p < shapes.size(); ++p) all.push_back({p, 1.0});
  m.add_eq(std::move(all), count);

  Solver solver(opt);
  const Solution sol = solver.solve(m);
  PoePlacement out;
  out.coverage.assign(64, 0);
  if (!sol.has_solution()) return out;
  out.feasible = true;
  for (unsigned p = 0; p < shapes.size(); ++p) {
    if (!sol.values[p]) continue;
    out.poes.push_back(p);
    for (unsigned cell : shapes[p]) ++out.coverage[cell];
  }
  return out;
}

}  // namespace

int main() {
  using namespace spe;
  benchutil::banner("fig6_coverage — overlapped vs single-covered cells per PoE count",
                    "Fig. 6 + Table 1 (Sections 5.5, 6.2.2)");

  ilp::SolverOptions opt;
  opt.node_limit = benchutil::env_or("SPE_ILP_NODES", 2'000'000);

  util::Table table({"PoEs", "overlapped (>=2)", "single-covered", "uncovered",
                     "total coverage", "window", "backend"});
  for (unsigned count = 10; count <= 17; ++count) {
    ilp::PoePlacement strict = solve_strict(count, opt);
    const bool used_strict = strict.feasible;
    const ilp::PoePlacement placement =
        used_strict ? std::move(strict) : solve_relaxed(count, opt);
    if (!placement.feasible) {
      table.add_row({std::to_string(count), "-", "-", "-", "-", "no solution found", "-"});
      continue;
    }
    table.add_row({std::to_string(count), std::to_string(placement.overlapped_cells()),
                   std::to_string(placement.single_covered_cells()),
                   std::to_string(placement.uncovered_cells()),
                   std::to_string(placement.total_coverage()),
                   used_strict ? "strict [1,2]" : "relaxed [1,3]",
                   ilp::to_string(placement.backend)});
  }
  table.print();
  std::printf("\nPaper's Fig. 6: single-covered cells shrink as PoEs grow and vanish\n"
              "at 16-17 PoEs (all cells overlapped => known-plaintext ambiguity).\n");

  // The operational 16-PoE set actually used by the SPECU, evaluated under
  // the PHYSICAL (calibrated) polyominoes.
  const auto cal = core::get_calibration(xbar::CrossbarParams{});
  std::vector<unsigned> coverage(64, 0);
  for (unsigned p : core::default_poes_8x8())
    for (auto cell : cal->shape(p).cells) ++coverage[cell];
  unsigned single = 0, multi = 0, uncovered = 0;
  for (unsigned c : coverage) {
    uncovered += c == 0;
    single += c == 1;
    multi += c >= 2;
  }
  std::printf("\nDefault SPECU placement (16 PoEs) under physical polyominoes:\n"
              "  overlapped=%u single=%u uncovered=%u (paper: 64/0/0 at 16 PoEs)\n",
              multi, single, uncovered);

  // Minimum-PoE sweep over the security parameter S (Table 1's trade-off).
  util::Table min_table({"S (security margin)", "min PoEs", "proved optimal"});
  for (unsigned s : {0u, 16u, 32u, 48u}) {
    const auto placement = ilp::solve_min_poes(8, 8, s, opt);
    min_table.add_row({std::to_string(s),
                       placement.feasible ? std::to_string(placement.poes.size()) : "-",
                       placement.optimal ? "yes" : "no (node budget)"});
  }
  std::printf("\n");
  min_table.print();
  return 0;
}
