// Fig. 8(b,c): welfare and running time with the real (eBay-learned)
// PlayStation parameters of Table 5, on the Twitter network.
//
// The total budget (100..500) is split 30/30/20/10/10 across
// {ps, c, g1, g2, g3}. item-disj is omitted (as in the paper): every
// singleton has negative deterministic utility, so its welfare is 0.
//
// Expected shape (paper): bundleGRD beats bundle-disj at every budget, by
// >2x at the high end (b); and is ~1.5x faster (c).
#include <cstdio>

#include "common/table.h"
#include "exp/configs.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const size_t mc = static_cast<size_t>(flags.GetInt("mc", 300));
  const double eps = flags.GetDouble("eps", 0.5);

  std::printf("== Fig. 8(b,c): real PlayStation parameters "
              "(Twitter-like, scale %.2f) ==\n",
              scale);
  const Graph graph = MakeTwitterLike(/*seed=*/20190630, scale);
  std::printf("%s\n", graph.Summary().c_str());
  const ItemParams params = MakeRealPlaystationParams();

  TablePrinter table({"total budget", "bundleGRD welfare",
                      "bundle-disj welfare", "bundleGRD(s)",
                      "bundle-disj(s)"});
  SolverOptions options;
  options.eps = eps;
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = params;
  uint64_t seed = 91;
  for (uint32_t total = 100; total <= 500; total += 100) {
    // 30% ps, 30% c, 20% g1, 10% g2, 10% g3.
    problem.budgets = {total * 30 / 100, total * 30 / 100, total * 20 / 100,
                       total * 10 / 100, total * 10 / 100};
    options.seed = seed;
    const AllocationResult grd = MustSolve("bundle-grd", problem, options);
    const AllocationResult bdisj =
        MustSolve("bundle-disj", problem, options);
    const double w_grd =
        EstimateWelfare(graph, grd.allocation, params, mc, 888).welfare;
    const double w_bdisj =
        EstimateWelfare(graph, bdisj.allocation, params, mc, 888).welfare;
    table.AddRow({std::to_string(total), TablePrinter::Num(w_grd, 1),
                  TablePrinter::Num(w_bdisj, 1),
                  TablePrinter::Num(grd.seconds, 3),
                  TablePrinter::Num(bdisj.seconds, 3)});
    ++seed;
  }
  table.Print();
  return 0;
}
