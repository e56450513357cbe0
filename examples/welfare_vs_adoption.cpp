// Scenario: why maximize *welfare* instead of raw adoption count?
//
// The classic IM objective (expected number of adoptions) and the paper's
// social-welfare objective can disagree: flooding the network with a
// barely-profitable item maximizes adoptions, while seeding a
// high-synergy bundle maximizes the utility users actually enjoy. This
// example constructs such a configuration and reports both metrics for
// both strategies, illustrating the paper's motivation (§1, §3.3).
#include <cstdio>

#include "diffusion/uic_model.h"
#include "exp/networks.h"
#include "exp/solve.h"
#include "items/supermodular_generators.h"

int main() {
  using namespace uic;

  const Graph graph = MakeFlixsterLike(/*seed=*/11, /*scale=*/0.5);
  std::printf("network: %s\n\n", graph.Summary().c_str());

  // Item 0: cheap gadget, tiny utility (+0.05), adopted by everyone who
  // hears of it and cheap to seed widely. Items 1+2: a premium pair,
  // deeply unprofitable alone, +4 together (supermodular), but expensive
  // to seed (limited stock). Utility masks are ordered {∅, 0, 1, 01, 2,
  // 02, 12, 012}.
  const std::vector<double> prices = {1.0, 30.0, 20.0};
  const std::vector<double> utilities = {0.0,   0.05, -3.0, -2.9,
                                         -2.0, -1.9,  4.0,  9.3};
  auto value = MakeValueFromUtilities(3, prices, utilities);
  const ItemParams params(value, prices,
                          NoiseModel::IidGaussian(3, 0.05));

  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = params;
  SolverOptions options;
  options.seed = 3;
  // Strategy A: blanket the network with the cheap gadget (200 seeds).
  problem.budgets = {200, 0, 0};
  const AllocationResult gadget = MustSolve("bundle-grd", problem, options);
  // Strategy B: seed the premium bundle on a small influential set (5).
  problem.budgets = {0, 5, 5};
  const AllocationResult bundle = MustSolve("bundle-grd", problem, options);

  std::printf("%-22s %14s %14s\n", "strategy", "E[adopters]",
              "E[welfare]");
  for (const auto& [name, r] :
       {std::pair<const char*, const AllocationResult*>{
            "A: gadget only", &gadget},
        {"B: premium bundle", &bundle}}) {
    const WelfareEstimate w =
        EstimateWelfare(graph, r->allocation, params, 600, 77);
    std::printf("%-22s %14.1f %14.1f\n", name, w.avg_adopters, w.welfare);
  }

  std::printf(
      "\nStrategy A wins on the classic IM objective (active nodes); strategy B wins on welfare.\n"
      "A host optimizing adoption count would pick A and leave most of\n"
      "the attainable consumer surplus on the table — the gap WelMax\n"
      "(and bundleGRD) closes.\n");
  return 0;
}
