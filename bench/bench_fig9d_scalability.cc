// Fig. 9(d): scalability of bundleGRD with network size on Orkut, grown by
// BFS to 20%..100% of the nodes, under two edge weightings:
//   (1) weighted cascade 1/din(v)    (welfare1 / time1)
//   (2) fixed probability 0.01       (welfare2 / time2)
//
// Expected shape (paper): running time grows roughly linearly with network
// size; welfare grows sublinearly.
#include <cstdio>

#include "common/table.h"
#include "exp/configs.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"
#include "graph/subgraph.h"

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const size_t mc = static_cast<size_t>(flags.GetInt("mc", 200));
  const double eps = flags.GetDouble("eps", 0.5);
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("budget", 50));

  std::printf("== Fig. 9(d): bundleGRD scalability on Orkut-like "
              "(scale %.2f, uniform budget %u) ==\n",
              scale, k);
  const Graph full = MakeOrkutLike(/*seed=*/20190630, scale);
  std::printf("full network: %s\n", full.Summary().c_str());
  const ItemParams params = MakeTwoItemConfig12();
  const std::vector<uint32_t> budgets = {k, k};

  TablePrinter table({"% nodes", "n", "welfare1 (1/din)", "time1(s)",
                      "welfare2 (p=0.01)", "time2(s)"});
  SolverOptions options;
  options.eps = eps;
  uint64_t seed = 121;
  for (int pct = 20; pct <= 100; pct += 20) {
    const NodeId target = static_cast<NodeId>(
        static_cast<double>(full.num_nodes()) * pct / 100.0);
    Graph sub = BfsInducedSubgraph(full, 0, target);
    WelfareProblem problem;
    problem.graph = &sub;
    problem.params = params;
    problem.budgets = budgets;
    options.seed = seed;

    sub.ApplyWeightedCascade();
    const AllocationResult grd1 = MustSolve("bundle-grd", problem, options);
    const double w1 =
        EstimateWelfare(sub, grd1.allocation, params, mc, 4321).welfare;

    sub.ApplyConstantProbability(0.01);
    const AllocationResult grd2 = MustSolve("bundle-grd", problem, options);
    const double w2 =
        EstimateWelfare(sub, grd2.allocation, params, mc, 4321).welfare;

    table.AddRow({std::to_string(pct), std::to_string(sub.num_nodes()),
                  TablePrinter::Num(w1, 1), TablePrinter::Num(grd1.seconds, 3),
                  TablePrinter::Num(w2, 1),
                  TablePrinter::Num(grd2.seconds, 3)});
    ++seed;
  }
  table.Print();
  return 0;
}
