// Ablation: the power of bundling — how welfare grows with the number of
// complementary items co-located on the same seed prefix.
//
// Under the cone configuration (a core item plus accessories), we fix the
// seed prefix and allocate only the first j items (j = 1..5) to it. The
// welfare jump at j where the bundle first turns profitable, and the
// superlinear growth afterwards, is the mechanism behind bundleGRD's
// advantage (§4.2.1: "the power of bundling").
#include <cstdio>

#include "common/table.h"
#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"
#include "welfare/block_accounting.h"

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const size_t mc = static_cast<size_t>(flags.GetInt("mc", 400));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("budget", 50));

  std::printf("== Ablation: welfare vs bundle size "
              "(real PlayStation params, Douban-Movie-like scale %.2f, "
              "k=%u seeds) ==\n",
              scale, k);
  const Graph graph = MakeDoubanMovieLike(/*seed=*/20190630, scale);
  std::printf("%s\n", graph.Summary().c_str());
  const ItemParams params = MakeRealPlaystationParams();
  const auto& names = RealPlaystationItemNames();

  // One shared ranking; items join the bundle in order ps, c, g1, g2, g3.
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = params;
  problem.budgets = {k, k, k, k, k};
  SolverOptions options;
  options.seed = 151;
  const AllocationResult ranking_source =
      MustSolve("bundle-grd", problem, options);

  TablePrinter table({"bundle", "det. utility", "welfare", "adopters"});
  for (ItemId j = 1; j <= 5; ++j) {
    Allocation alloc;
    const ItemSet bundle = FullItemSet(j);
    for (uint32_t r = 0; r < k && r < ranking_source.ranking.size(); ++r) {
      alloc.Add(ranking_source.ranking[r], bundle);
    }
    const WelfareEstimate w =
        EstimateWelfare(graph, alloc, params, mc, 777);
    std::string label;
    for (ItemId i = 0; i < j; ++i) {
      label += (i ? "+" : "") + names[i];
    }
    table.AddRow({label,
                  TablePrinter::Num(params.DeterministicUtility(bundle), 1),
                  TablePrinter::Num(w.welfare, 1),
                  TablePrinter::Num(w.avg_adopters, 1)});
  }
  table.Print();

  std::printf("\nblock structure of the full configuration:\n");
  const UtilityTable det(params);
  const BlockDecomposition d = GenerateBlocks(det, {k, k, k, k, k});
  for (size_t i = 0; i < d.num_blocks(); ++i) {
    std::printf("  block %zu: %s  Δ=%+.1f\n", i + 1,
                ItemSetToString(d.blocks[i]).c_str(), d.deltas[i]);
  }
  return 0;
}
