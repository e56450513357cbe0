#include <gtest/gtest.h>

#include "core/mc_greedy.h"
#include "diffusion/uic_model.h"
#include "graph/generators.h"
#include "items/supermodular_generators.h"
#include "welfare/exact.h"

namespace uic {
namespace {

ItemParams SynergyPair(double u1, double u2, double u12) {
  const std::vector<double> prices = {1.0, 1.0};
  auto value = MakeValueFromUtilities(2, prices, {0.0, u1, u2, u12});
  return ItemParams(std::move(value), prices, NoiseModel::Zero(2));
}

TEST(ExactSpread, MatchesClosedForms) {
  // 0 ->(0.3) 1: σ({0}) = 1.3.
  GraphBuilder b1(2);
  b1.AddEdge(0, 1, 0.3);
  Graph g1 = b1.Build().MoveValue();
  // Probabilities are stored as float, so compare at float precision.
  EXPECT_NEAR(ExactSpreadByEnumeration(g1, {0}), 1.3, 1e-6);

  // Chain of 3 at p=0.5: 1 + 0.5 + 0.25.
  GraphBuilder b2(3);
  b2.AddEdge(0, 1, 0.5);
  b2.AddEdge(1, 2, 0.5);
  Graph g2 = b2.Build().MoveValue();
  EXPECT_NEAR(ExactSpreadByEnumeration(g2, {0}), 1.75, 1e-12);

  // Diamond 0->1->3, 0->2->3 at p=0.5: σ({0}) = 1 + 0.5 + 0.5 + P[3]
  // where P[3] = 1 − (1 − 0.25)^2 = 0.4375.
  GraphBuilder b3(4);
  b3.AddEdge(0, 1, 0.5);
  b3.AddEdge(0, 2, 0.5);
  b3.AddEdge(1, 3, 0.5);
  b3.AddEdge(2, 3, 0.5);
  Graph g3 = b3.Build().MoveValue();
  EXPECT_NEAR(ExactSpreadByEnumeration(g3, {0}), 2.4375, 1e-12);
}

TEST(ExactWelfare, SingleUnitItemEqualsSpread) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 0.5);
  Graph g = b.Build().MoveValue();
  const std::vector<double> prices = {1.0};
  auto value = MakeValueFromUtilities(1, prices, {0.0, 1.0});
  ItemParams params(std::move(value), prices, NoiseModel::Zero(1));
  const UtilityTable table(params);
  Allocation alloc;
  alloc.AddItem(0, 0);
  EXPECT_NEAR(ExactWelfareByEnumeration(g, alloc, table),
              ExactSpreadByEnumeration(g, {0}), 1e-12);
}

// The decisive simulator validation: the MC welfare estimator converges
// to the exact enumeration value on graphs with genuinely probabilistic
// edges.
class McVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(McVsExactTest, EstimatorConvergesToEnumeration) {
  Rng rng(GetParam());
  const NodeId n = 6;
  GraphBuilder builder(n);
  size_t edges = 0;
  for (NodeId u = 0; u < n && edges < 10; ++u) {
    for (int t = 0; t < 2 && edges < 10; ++t) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (v == u) continue;
      builder.AddEdge(u, v, rng.NextUniform(0.2, 0.8));
      ++edges;
    }
  }
  Graph g = builder.Build().MoveValue();

  ItemParams params = SynergyPair(rng.NextUniform(-0.5, 0.5),
                                  rng.NextUniform(-0.5, 0.5),
                                  rng.NextUniform(0.5, 2.0));
  Allocation alloc;
  alloc.Add(0, 0b11);
  alloc.Add(static_cast<NodeId>(1 + rng.NextBounded(n - 1)), 0b01);

  const UtilityTable table(params);
  const double exact = ExactWelfareByEnumeration(g, alloc, table);
  const WelfareEstimate mc = EstimateWelfare(g, alloc, params, 60000,
                                             GetParam() ^ 0xabcd, 4);
  EXPECT_NEAR(mc.welfare, exact, 4.0 * mc.std_error + 0.02)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, McVsExactTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(ExactWelfare, AveragedOverNoiseApproachesEstimator) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.6);
  b.AddEdge(1, 2, 0.6);
  b.AddEdge(2, 3, 0.6);
  Graph g = b.Build().MoveValue();
  const std::vector<double> prices = {2.0, 2.0};
  auto value = MakeValueFromUtilities(2, prices, {0.0, 0.0, 0.0, 1.0});
  ItemParams params(std::move(value), prices, NoiseModel::IidGaussian(2, 1.0));
  Allocation alloc;
  alloc.Add(0, 0b11);
  const double exact_avg =
      ExactWelfareAveragedOverNoise(g, alloc, params, 20000, 5);
  const WelfareEstimate mc = EstimateWelfare(g, alloc, params, 200000, 6, 4);
  EXPECT_NEAR(exact_avg, mc.welfare, 0.05 * exact_avg + 0.05);
}

TEST(McGreedy, RespectsBudgets) {
  Graph g = GenerateErdosRenyi(60, 300, 1);
  g.ApplyWeightedCascade();
  ItemParams params = SynergyPair(0.0, 0.0, 1.0);
  SolverOptions options;
  options.mc_greedy.simulations_per_eval = 50;
  const AllocationResult r = McGreedyAllocate(g, {3, 2}, params, options);
  EXPECT_EQ(r.allocation.SeedCount(0), 3u);
  EXPECT_EQ(r.allocation.SeedCount(1), 2u);
}

TEST(McGreedy, BundlesComplementaryItemsOnSharedSeeds) {
  // With items worthless alone, greedy must co-locate them.
  Graph g = GenerateErdosRenyi(50, 250, 2);
  g.ApplyWeightedCascade();
  ItemParams params = SynergyPair(-0.5, -0.5, 2.0);
  SolverOptions options;
  options.mc_greedy.simulations_per_eval = 100;
  const AllocationResult r = McGreedyAllocate(g, {2, 2}, params, options);
  // At least one node carries both items (otherwise welfare would be 0).
  bool bundled = false;
  for (const auto& [v, items] : r.allocation.entries()) {
    bundled |= (items == 0b11);
  }
  EXPECT_TRUE(bundled);
}

TEST(McGreedy, ComparableToBundleGrdOnSmallGraph) {
  Graph g = GenerateErdosRenyi(80, 480, 3);
  g.ApplyWeightedCascade();
  ItemParams params = SynergyPair(0.0, 0.0, 1.0);
  SolverOptions options;
  options.mc_greedy.simulations_per_eval = 150;
  const AllocationResult greedy = McGreedyAllocate(g, {4, 4}, params, options);
  const AllocationResult grd = BundleGrd(g, {4, 4}, 0.3, 1.0, 4);
  const double w_greedy =
      EstimateWelfare(g, greedy.allocation, params, 4000, 9, 4).welfare;
  const double w_grd =
      EstimateWelfare(g, grd.allocation, params, 4000, 9, 4).welfare;
  // bundleGRD must reach a healthy fraction of the utility-aware greedy.
  EXPECT_GT(w_grd, 0.6 * w_greedy);
}

}  // namespace
}  // namespace uic
