// Ablation: triggering-model generality (§5) — bundleGRD under Linear
// Threshold vs Independent Cascade.
//
// The UIC results carry over to any triggering model; this bench runs the
// whole pipeline (PRIMA sampling, allocation, welfare estimation) under
// both IC and LT, and cross-evaluates the allocations: IC-selected seeds
// under LT welfare and vice versa. Matched selection/evaluation should
// win its own column.
#include <cstdio>

#include "common/table.h"
#include "diffusion/lt_model.h"
#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const size_t mc = static_cast<size_t>(flags.GetInt("mc", 500));
  const double eps = flags.GetDouble("eps", 0.5);

  std::printf("== Ablation: IC vs LT (triggering generality), "
              "Douban-Movie-like scale %.2f ==\n",
              scale);
  const Graph graph = MakeDoubanMovieLike(/*seed=*/20190630, scale);
  std::printf("%s\n", graph.Summary().c_str());
  const ItemParams params = MakeTwoItemConfig12();

  TablePrinter table({"budget", "IC-sel/IC-eval", "LT-sel/IC-eval",
                      "LT-sel/LT-eval", "IC-sel/LT-eval", "IC time(s)",
                      "LT time(s)"});
  SolverOptions options;
  options.eps = eps;
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = params;
  uint64_t seed = 131;
  for (uint32_t k = 10; k <= 50; k += 20) {
    problem.budgets = {k, k};
    options.seed = seed;
    problem.model = DiffusionModel::kIndependentCascade;
    const AllocationResult ic_sel = MustSolve("bundle-grd", problem, options);
    problem.model = DiffusionModel::kLinearThreshold;
    const AllocationResult lt_sel = MustSolve("bundle-grd", problem, options);
    const double ic_ic =
        EstimateWelfare(graph, ic_sel.allocation, params, mc, 7).welfare;
    const double lt_ic =
        EstimateWelfare(graph, lt_sel.allocation, params, mc, 7).welfare;
    const double lt_lt =
        EstimateWelfareLt(graph, lt_sel.allocation, params, mc, 7).welfare;
    const double ic_lt =
        EstimateWelfareLt(graph, ic_sel.allocation, params, mc, 7).welfare;
    table.AddRow({"k=" + std::to_string(k), TablePrinter::Num(ic_ic, 1),
                  TablePrinter::Num(lt_ic, 1), TablePrinter::Num(lt_lt, 1),
                  TablePrinter::Num(ic_lt, 1),
                  TablePrinter::Num(ic_sel.seconds, 3),
                  TablePrinter::Num(lt_sel.seconds, 3)});
    ++seed;
  }
  table.Print();
  return 0;
}
