// Ablation: submodular (volume-discount) prices vs additive prices (§5).
//
// bundleGRD never reads the utilities, so the *allocation* is identical;
// only the realized welfare changes. A submodular price makes bundles
// strictly cheaper, which (a) raises welfare for every allocation and
// (b) widens bundleGRD's lead over item-disj (discounts reward exactly
// the co-location bundleGRD performs).
#include <cstdio>

#include "common/table.h"
#include "diffusion/uic_model.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"
#include "items/supermodular_generators.h"

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const size_t mc = static_cast<size_t>(flags.GetInt("mc", 400));
  const double eps = flags.GetDouble("eps", 0.5);

  std::printf("== Ablation: additive vs volume-discount prices, "
              "Douban-Movie-like scale %.2f ==\n",
              scale);
  const Graph graph = MakeDoubanMovieLike(/*seed=*/20190630, scale);
  std::printf("%s\n", graph.Summary().c_str());

  // Three items, modest synergy in the valuation; prices 3/3/3.
  const std::vector<double> prices = {3.0, 3.0, 3.0};
  auto value = std::make_shared<TabularValueFunction>(
      3, std::vector<double>{0.0, 3.0, 3.0, 6.5, 3.0, 6.5, 6.5, 10.5});

  TablePrinter table({"price model", "bundle utility", "bundleGRD",
                      "item-disj", "GRD/disj"});
  // bundleGRD and item-disj never read the utilities, so the problem omits
  // params: one allocation serves every price model below.
  WelfareProblem problem;
  problem.graph = &graph;
  problem.budgets = {30, 30, 30};
  SolverOptions options;
  options.eps = eps;
  options.seed = 141;
  const AllocationResult grd = MustSolve("bundle-grd", problem, options);
  const AllocationResult idisj = MustSolve("item-disj", problem, options);

  for (double discount : {1.0, 0.85, 0.7, 0.5}) {
    auto price =
        std::make_shared<VolumeDiscountPriceFunction>(prices, discount);
    const ItemParams params(value, price, NoiseModel::IidGaussian(3, 1.0));
    const double w_grd =
        EstimateWelfare(graph, grd.allocation, params, mc, 888).welfare;
    const double w_disj =
        EstimateWelfare(graph, idisj.allocation, params, mc, 888).welfare;
    const std::string label =
        discount == 1.0 ? "additive"
                        : "discount " + TablePrinter::Num(discount, 2);
    table.AddRow({label,
                  TablePrinter::Num(params.DeterministicUtility(0b111), 2),
                  TablePrinter::Num(w_grd, 1), TablePrinter::Num(w_disj, 1),
                  TablePrinter::Num(w_disj > 0 ? w_grd / w_disj : 0.0, 2)});
  }
  table.Print();
  return 0;
}
