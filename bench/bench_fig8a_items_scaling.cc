// Fig. 8(a): running time vs. number of items (Configuration 5, budget 50
// per item, Twitter network).
//
// Expected shape (paper): bundleGRD's time is flat in the number of items
// (one PRIMA call at the max budget); item-disj grows (one IMM call at
// budget k*s); bundle-disj grows fastest (s IMM calls at budget k) —
// at 10 items bundleGRD is ~8x faster than bundle-disj and ~2.5x faster
// than item-disj.
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
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("budget", 50));
  const double eps = flags.GetDouble("eps", 0.5);
  const int max_items = static_cast<int>(flags.GetInt("max-items", 10));

  std::printf("== Fig. 8(a): running time vs #items "
              "(Config 5, k=%u per item, Twitter-like scale %.2f) ==\n",
              k, scale);
  const Graph graph = MakeTwitterLike(/*seed=*/20190630, scale);
  std::printf("%s\n", graph.Summary().c_str());

  TablePrinter table({"#items", "bundleGRD(s)", "item-disj(s)",
                      "bundle-disj(s)"});
  SolverOptions options;
  options.eps = eps;
  options.seed = 81;
  for (int s = 1; s <= max_items; ++s) {
    WelfareProblem problem;
    problem.graph = &graph;
    problem.params = MakeAdditiveConfig5(static_cast<ItemId>(s));
    problem.budgets.assign(s, k);
    const AllocationResult grd = MustSolve("bundle-grd", problem, options);
    const AllocationResult idisj = MustSolve("item-disj", problem, options);
    const AllocationResult bdisj =
        MustSolve("bundle-disj", problem, options);
    table.AddRow({std::to_string(s), TablePrinter::Num(grd.seconds, 3),
                  TablePrinter::Num(idisj.seconds, 3),
                  TablePrinter::Num(bdisj.seconds, 3)});
  }
  table.Print();
  return 0;
}
