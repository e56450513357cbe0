// Fig. 7: expected social welfare with more than two items on the Twitter
// network, Configurations 5–8 of Table 4.
//
// Series: bundleGRD, item-disj, bundle-disj (RR-SIM+/RR-CIM cannot handle
// more than two items). Budget split: uniform for Configs 5 and 8; for 6
// and 7 the max budget is 20% of the total, the min 2%, the rest uniform
// (with the core item at the max budget for 6 and the min for 7).
//
// Expected shape (paper): bundleGRD >= both baselines everywhere, up to
// ~4x; under Config 5 (additive) and Config 6 the algorithms are closest.
#include <cstdio>
#include <numeric>

#include "common/table.h"
#include "exp/configs.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"

namespace uic {
namespace {

constexpr ItemId kNumItems = 5;

std::vector<uint32_t> SplitBudget(uint32_t total, bool uniform,
                                  ItemId max_item) {
  std::vector<uint32_t> budgets(kNumItems);
  if (uniform) {
    for (auto& b : budgets) b = total / kNumItems;
    return budgets;
  }
  // Max budget 20%, min 2%, remainder split uniformly; the designated
  // item takes the max, the last non-designated item the min.
  const uint32_t bmax = total / 5;          // 20%
  const uint32_t bmin = total / 50;         // 2%
  const uint32_t rest = (total - bmax - bmin) / (kNumItems - 2);
  ItemId min_item = kNumItems - 1;
  if (min_item == max_item) min_item = kNumItems - 2;
  for (ItemId i = 0; i < kNumItems; ++i) {
    budgets[i] = (i == max_item) ? bmax : (i == min_item) ? bmin : rest;
  }
  return budgets;
}

void RunConfig(const Graph& graph, const ItemParams& params,
               const std::string& title, bool uniform, ItemId max_item,
               size_t mc, double eps) {
  std::printf("\n-- %s --\n", title.c_str());
  TablePrinter table(
      {"total budget", "bundleGRD", "item-disj", "bundle-disj"});
  SolverOptions options;
  options.eps = eps;
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = params;
  uint64_t seed = 71;
  for (uint32_t total = 100; total <= 500; total += 200) {
    problem.budgets = SplitBudget(total, uniform, max_item);
    options.seed = seed;
    const AllocationResult grd = MustSolve("bundle-grd", problem, options);
    const AllocationResult idisj = MustSolve("item-disj", problem, options);
    const AllocationResult bdisj =
        MustSolve("bundle-disj", problem, options);
    auto welfare = [&](const AllocationResult& r) {
      return EstimateWelfare(graph, r.allocation, params, mc, 777).welfare;
    };
    table.AddRow({std::to_string(total), TablePrinter::Num(welfare(grd), 1),
                  TablePrinter::Num(welfare(idisj), 1),
                  TablePrinter::Num(welfare(bdisj), 1)});
    ++seed;
  }
  table.Print();
}

}  // namespace
}  // namespace uic

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const size_t mc = static_cast<size_t>(flags.GetInt("mc", 300));
  const double eps = flags.GetDouble("eps", 0.5);

  std::printf("== Fig. 7: multi-item welfare, Configs 5-8 "
              "(Twitter-like, scale %.2f, %u items) ==\n",
              scale, kNumItems);
  const Graph graph = MakeTwitterLike(/*seed=*/20190630, scale);
  std::printf("%s\n", graph.Summary().c_str());

  RunConfig(graph, MakeAdditiveConfig5(kNumItems),
            "(a) Configuration 5: additive, uniform budgets", true, 0, mc,
            eps);
  // Config 6: core item holds the MAX budget (item 0).
  RunConfig(graph, MakeConeConfig67(kNumItems, /*core_item=*/0),
            "(b) Configuration 6: cone-max, non-uniform budgets", false, 0,
            mc, eps);
  // Config 7: core item holds the MIN budget (last item).
  RunConfig(graph, MakeConeConfig67(kNumItems, /*core_item=*/kNumItems - 1),
            "(c) Configuration 7: cone-min, non-uniform budgets", false, 0,
            mc, eps);
  RunConfig(graph, MakeLevelwiseConfig8(kNumItems, /*seed=*/8),
            "(d) Configuration 8: level-wise random, uniform budgets", true,
            0, mc, eps);
  return 0;
}
