#include "rrset/rr_collection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "rrset/node_selection.h"

namespace uic {
namespace {

Graph Chain(int n, double p) {
  GraphBuilder builder(n);
  for (int i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1, p);
  return builder.Build().MoveValue();
}

TEST(RrSampler, CertainChainCollectsAllAncestors) {
  Graph g = Chain(5, 1.0);
  RrSampler sampler(g);
  Rng rng(1);
  std::vector<NodeId> rr;
  sampler.SampleRootedInto(4, rng, &rr);
  std::sort(rr.begin(), rr.end());
  EXPECT_EQ(rr, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(RrSampler, BlockedChainIsJustTheRoot) {
  Graph g = Chain(5, 0.0);
  RrSampler sampler(g);
  Rng rng(2);
  std::vector<NodeId> rr;
  sampler.SampleRootedInto(3, rng, &rr);
  EXPECT_EQ(rr, (std::vector<NodeId>{3}));
}

TEST(RrSampler, ReportsEdgesExamined) {
  Graph g = Chain(5, 1.0);
  RrSampler sampler(g);
  Rng rng(3);
  std::vector<NodeId> rr;
  const size_t edges = sampler.SampleRootedInto(4, rng, &rr);
  EXPECT_EQ(edges, 4u);  // each node on the path has one in-edge
}

TEST(RrSampler, NodePassProbabilityZeroRejectsRoot) {
  Graph g = Chain(3, 1.0);
  std::vector<float> pass(3, 0.0f);
  RrOptions options;
  options.node_pass_prob = &pass;
  RrSampler sampler(g, options);
  Rng rng(4);
  std::vector<NodeId> rr;
  sampler.SampleRootedInto(2, rng, &rr);
  EXPECT_TRUE(rr.empty());
}

TEST(RrSampler, NodePassProbabilityOneIsTransparent) {
  Graph g = Chain(3, 1.0);
  std::vector<float> pass(3, 1.0f);
  RrOptions options;
  options.node_pass_prob = &pass;
  RrSampler sampler(g, options);
  Rng rng(5);
  std::vector<NodeId> rr;
  sampler.SampleRootedInto(2, rng, &rr);
  EXPECT_EQ(rr.size(), 3u);
}

TEST(RrSampler, NodePassBlocksTraversalThroughRejectedNode) {
  // 0 -> 1 -> 2 with certain edges, but node 1 never passes: an RR set
  // rooted at 2 must not contain 0 (unreachable through rejected 1).
  Graph g = Chain(3, 1.0);
  std::vector<float> pass = {1.0f, 0.0f, 1.0f};
  RrOptions options;
  options.node_pass_prob = &pass;
  RrSampler sampler(g, options);
  Rng rng(6);
  std::vector<NodeId> rr;
  sampler.SampleRootedInto(2, rng, &rr);
  EXPECT_EQ(rr, (std::vector<NodeId>{2}));
}

TEST(RrCollection, GrowsToTargetAndIsDeterministic) {
  Graph g = GenerateErdosRenyi(100, 600, 7);
  g.ApplyWeightedCascade();
  RrCollection a(g, 42, 4);
  a.GenerateUntil(500);
  EXPECT_GE(a.size(), 500u);
  RrCollection b(g, 42, 4);
  b.GenerateUntil(200);
  b.GenerateUntil(500);  // incremental growth reaches the same pool
  ASSERT_EQ(a.size(), b.size());
  // Content equality would require identical growth schedules; sizes and
  // totals must at least be reproducible for the same schedule:
  RrCollection c(g, 42, 4);
  c.GenerateUntil(500);
  EXPECT_EQ(a.TotalNodes(), c.TotalNodes());
  for (size_t r = 0; r < a.size(); ++r) {
    auto sa = a.Set(r);
    auto sc = c.Set(r);
    ASSERT_EQ(sa.size(), sc.size());
    for (size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sc[i]);
  }
}

TEST(RrCollection, ResetEmptiesPool) {
  Graph g = GenerateErdosRenyi(50, 200, 8);
  RrCollection pool(g, 1, 2);
  pool.GenerateUntil(100);
  pool.Reset(2);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.TotalNodes(), 0u);
  EXPECT_EQ(pool.TotalEdgesExamined(), 0u);
  pool.GenerateUntil(10);
  EXPECT_GE(pool.size(), 10u);
}

TEST(RrCollection, CoverageEstimatesSpread) {
  // σ(S) = n · E[S covers R]. Two-node graph 0 ->(0.5) 1:
  // σ({0}) = 1.5, so node 0 should appear in 3/4 of RR sets
  // (root=0 always, root=1 with prob 0.5), i.e. coverage 0.75.
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 0.5);
  Graph g = builder.Build().MoveValue();
  RrCollection pool(g, 9, 2);
  pool.GenerateUntil(100000);
  size_t covered = 0;
  for (size_t r = 0; r < pool.size(); ++r) {
    for (NodeId v : pool.Set(r)) {
      if (v == 0) {
        ++covered;
        break;
      }
    }
  }
  const double frac = static_cast<double>(covered) / pool.size();
  EXPECT_NEAR(2.0 * frac, 1.5, 0.02);  // n * coverage ≈ σ
}

TEST(NodeSelection, PicksGreedyMaxCover) {
  // Star graph: hub 0 points to everyone with p=1, so every RR set
  // contains the hub; greedy must pick it first.
  const NodeId n = 20;
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v, 1.0);
  Graph g = builder.Build().MoveValue();
  RrCollection pool(g, 10, 2);
  pool.GenerateUntil(2000);
  const SeedSelection sel = NodeSelection(pool, 3);
  ASSERT_GE(sel.seeds.size(), 1u);
  EXPECT_EQ(sel.seeds[0], 0u);
  EXPECT_DOUBLE_EQ(sel.coverage[0], 1.0);  // hub covers every RR set
}

TEST(NodeSelection, CoverageIsNonDecreasing) {
  Graph g = GenerateErdosRenyi(200, 1200, 11);
  g.ApplyWeightedCascade();
  RrCollection pool(g, 12, 4);
  pool.GenerateUntil(3000);
  const SeedSelection sel = NodeSelection(pool, 20);
  ASSERT_EQ(sel.seeds.size(), 20u);
  for (size_t i = 1; i < sel.coverage.size(); ++i) {
    EXPECT_GE(sel.coverage[i], sel.coverage[i - 1]);
  }
}

TEST(NodeSelection, GreedyMatchesExhaustiveFirstPick) {
  Graph g = GenerateErdosRenyi(60, 400, 13);
  g.ApplyWeightedCascade();
  RrCollection pool(g, 14, 2);
  pool.GenerateUntil(1000);
  const SeedSelection sel = NodeSelection(pool, 1);
  // Exhaustively find the max-cover single node.
  size_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    size_t c = 0;
    for (size_t r = 0; r < pool.size(); ++r) {
      for (NodeId w : pool.Set(r)) {
        if (w == v) {
          ++c;
          break;
        }
      }
    }
    best = std::max(best, c);
  }
  EXPECT_DOUBLE_EQ(sel.coverage[0],
                   static_cast<double>(best) / pool.size());
}

TEST(NodeSelection, ExclusionIsRespected) {
  const NodeId n = 20;
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v, 1.0);
  Graph g = builder.Build().MoveValue();
  RrCollection pool(g, 15, 2);
  pool.GenerateUntil(500);
  const SeedSelection sel = NodeSelection(pool, 3, /*excluded=*/{0});
  for (NodeId s : sel.seeds) EXPECT_NE(s, 0u);
}

TEST(NodeSelection, PadsToKWhenGainsExhaust) {
  // Graph with no edges: every RR set is a singleton root; k larger than
  // distinct roots still yields k seeds.
  GraphBuilder builder(10);
  Graph g = builder.Build().MoveValue();
  RrCollection pool(g, 16, 2);
  pool.GenerateUntil(50);
  const SeedSelection sel = NodeSelection(pool, 10);
  EXPECT_EQ(sel.seeds.size(), 10u);
  // All seeds distinct.
  std::vector<NodeId> sorted = sel.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(NodeSelection, PrefixConsistency) {
  // NodeSelection(R, k) must equal the k-prefix of NodeSelection(R, K)
  // for K > k — the property PRIMA's budget switching relies on.
  Graph g = GenerateErdosRenyi(150, 900, 17);
  g.ApplyWeightedCascade();
  RrCollection pool(g, 18, 4);
  pool.GenerateUntil(2000);
  const SeedSelection big = NodeSelection(pool, 25);
  const SeedSelection small = NodeSelection(pool, 10);
  ASSERT_GE(big.seeds.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(big.seeds[i], small.seeds[i]) << "at position " << i;
  }
}

}  // namespace
}  // namespace uic
