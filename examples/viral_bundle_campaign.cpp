// Scenario: a marketer plans a viral campaign for a console, a controller
// and three games — the paper's real (eBay-learned) PlayStation
// configuration of Table 5. Only bundles with the console, the controller
// and at least two games are profitable for users, so item-by-item seeding
// earns nothing; the campaign must exploit complementarity.
//
// This example compares three allocation strategies under a fixed total
// seed budget split 30/30/20/10/10 and reports welfare, adoptions, and the
// block structure that explains *why* bundleGRD wins.
#include <cstdio>

#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "exp/networks.h"
#include "exp/solve.h"
#include "welfare/block_accounting.h"

int main() {
  using namespace uic;

  const Graph graph = MakeDoubanMovieLike(/*seed=*/7, /*scale=*/0.5);
  std::printf("network: %s\n", graph.Summary().c_str());

  const ItemParams params = MakeRealPlaystationParams();
  const auto& names = RealPlaystationItemNames();

  // Budget: 200 seeds total, skewed toward the console and controller.
  const std::vector<uint32_t> budgets = {60, 60, 40, 20, 20};
  std::printf("budgets: ");
  for (ItemId i = 0; i < budgets.size(); ++i) {
    std::printf("%s=%u ", names[i].c_str(), budgets[i]);
  }
  std::printf("\n\n");

  // The block decomposition under the deterministic utilities shows which
  // bundle carries the welfare: {ps, c, g1, g2} forms the first profitable
  // block; g3 joins on top.
  const UtilityTable det_table(params);
  const BlockDecomposition blocks = GenerateBlocks(det_table, budgets);
  std::printf("profitable itemset I* = %s (det. utility %+.1f)\n",
              ItemSetToString(blocks.optimal_itemset).c_str(),
              det_table.Utility(blocks.optimal_itemset));
  for (size_t i = 0; i < blocks.num_blocks(); ++i) {
    std::printf("  block %zu: %s  Δ=%+.1f  effective budget %u\n", i + 1,
                ItemSetToString(blocks.blocks[i]).c_str(), blocks.deltas[i],
                blocks.effective_budgets[i]);
  }

  // Three strategies, all through the unified solver registry.
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = params;
  problem.budgets = budgets;
  SolverOptions options;
  options.seed = 1;
  const AllocationResult grd = MustSolve("bundle-grd", problem, options);
  const AllocationResult idisj = MustSolve("item-disj", problem, options);
  const AllocationResult bdisj = MustSolve("bundle-disj", problem, options);

  std::printf("\n%-12s %12s %12s %12s\n", "strategy", "welfare",
              "adopters", "time(ms)");
  for (const auto& [name, r] :
       {std::pair<const char*, const AllocationResult*>{"bundleGRD", &grd},
        {"item-disj", &idisj},
        {"bundle-disj", &bdisj}}) {
    const WelfareEstimate w =
        EstimateWelfare(graph, r->allocation, params, 400, 99);
    std::printf("%-12s %12.1f %12.1f %12.1f\n", name, w.welfare,
                w.avg_adopters, r->seconds * 1e3);
  }

  std::printf(
      "\nitem-disj earns ~0: no single PlayStation item is worth its "
      "price.\nbundleGRD seeds whole bundles on the most influential "
      "prefix and lets\ncomplementarity + propagation do the rest.\n");
  return 0;
}
