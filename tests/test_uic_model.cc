#include "diffusion/uic_model.h"

#include <gtest/gtest.h>

#include <bit>

#include "diffusion/lt_model.h"
#include "exp/configs.h"
#include "graph/generators.h"
#include "items/supermodular_generators.h"

namespace uic {
namespace {

/// Two items over deterministic (zero-noise) utilities.
ItemParams TwoItems(double u1, double u2, double u12) {
  const std::vector<double> prices = {1.0, 1.0};
  auto value = MakeValueFromUtilities(2, prices, {0.0, u1, u2, u12});
  return ItemParams(std::move(value), prices, NoiseModel::Zero(2));
}

/// Single item with the given deterministic utility.
ItemParams OneItem(double u) {
  const std::vector<double> prices = {1.0};
  auto value = MakeValueFromUtilities(1, prices, {0.0, u});
  return ItemParams(std::move(value), prices, NoiseModel::Zero(1));
}

// ---------------------------------------------------------------------------
// The worked example of Fig. 2: v1 seeded with i1 (positive utility),
// v3 seeded with i2 (negative alone, positive jointly with i1). Edge
// (v1,v3) is blocked, (v1,v2) and (v2,v3) are live. Expected outcome:
// v1, v2 adopt {i1}; v3 retains i2 in its desire set and finally adopts
// the joint bundle {i1, i2}.
// ---------------------------------------------------------------------------
TEST(UicSimulator, ReproducesFigure2Example) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);  // (v1, v2): live
  builder.AddEdge(0, 2, 0.0);  // (v1, v3): blocked
  builder.AddEdge(1, 2, 1.0);  // (v2, v3): live
  Graph g = builder.Build().MoveValue();

  ItemParams params = TwoItems(/*u1=*/2.0, /*u2=*/-1.0, /*u12=*/3.0);
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(1);
  std::vector<std::pair<NodeId, ItemSet>> adoptions;
  Allocation alloc;
  alloc.AddItem(0, 0);  // v1 <- i1
  alloc.AddItem(2, 1);  // v3 <- i2
  const UicOutcome out = sim.RunDetailed(alloc, table, rng, &adoptions);

  ItemSet a_v1 = 0, a_v2 = 0, a_v3 = 0;
  for (const auto& [v, a] : adoptions) {
    if (v == 0) a_v1 = a;
    if (v == 1) a_v2 = a;
    if (v == 2) a_v3 = a;
  }
  EXPECT_EQ(a_v1, ItemBit(0));
  EXPECT_EQ(a_v2, ItemBit(0));
  EXPECT_EQ(a_v3, ItemBit(0) | ItemBit(1));
  // Welfare: 2 + 2 + 3.
  EXPECT_DOUBLE_EQ(out.welfare, 7.0);
  EXPECT_EQ(out.num_adopters, 3u);
  EXPECT_EQ(out.num_adoptions, 4u);
}

TEST(UicSimulator, SeedsAreRationalAndMayRejectItems) {
  // A seed offered only a negative-utility item adopts nothing.
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build().MoveValue();
  ItemParams params = TwoItems(-0.5, 1.0, 2.0);
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(2);
  Allocation alloc;
  alloc.AddItem(0, 0);
  const UicOutcome out = sim.Run(alloc, table, rng);
  EXPECT_DOUBLE_EQ(out.welfare, 0.0);
  EXPECT_EQ(out.num_adopters, 0u);
}

TEST(UicSimulator, SeedMayAdoptSubsetOfAllocation) {
  // Seed offered {i1, i2}: i2 drags the bundle down, adopt i1 only.
  GraphBuilder builder(1);
  Graph g = builder.Build().MoveValue();
  ItemParams params = TwoItems(2.0, -1.0, 0.5);
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(3);
  Allocation alloc;
  alloc.Add(0, ItemBit(0) | ItemBit(1));
  std::vector<std::pair<NodeId, ItemSet>> adoptions;
  sim.RunDetailed(alloc, table, rng, &adoptions);
  ASSERT_EQ(adoptions.size(), 1u);
  EXPECT_EQ(adoptions[0].second, ItemBit(0));
}

TEST(UicSimulator, SingleItemReducesToIcSpread) {
  // Theorem 1 setup / Proposition 1: with one item of utility 1 and
  // certain edges, welfare equals the number of reachable nodes.
  Graph g = GenerateLayeredDag(4, 3, 1.0);
  ItemParams params = OneItem(1.0);
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(4);
  Allocation alloc;
  alloc.AddItem(0, 0);  // one node in the first layer
  const UicOutcome out = sim.Run(alloc, table, rng);
  // First-layer seed reaches all 3 nodes of each deeper layer: 1 + 9.
  EXPECT_DOUBLE_EQ(out.welfare, 10.0);
  EXPECT_EQ(out.num_adopters, 10u);
}

TEST(UicSimulator, StagedAdoptionRepropagatesThroughLiveEdges) {
  // Fig. 1 semantics: when a node adopts ADDITIONAL items later in the
  // diffusion, its already-live out-edges deliver the enlarged adoption
  // set. Topology: 2 -> 0 -> 1, all edges certain.
  //   t=1: node 0 (seeded i0) adopts {i0}; node 2 (seeded i1) adopts {i1}.
  //   t=2: 1 desires {i0} and adopts it; 0 desires {i1} and upgrades to
  //        {i0, i1} (synergy).
  //   t=3: 0 re-propagates; 1 upgrades to {i0, i1}.
  GraphBuilder builder(3);
  builder.AddEdge(2, 0, 1.0);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build().MoveValue();
  ItemParams params = TwoItems(1.0, 0.5, 2.5);
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(10);
  Allocation alloc;
  alloc.AddItem(0, 0);
  alloc.AddItem(2, 1);
  std::vector<std::pair<NodeId, ItemSet>> adoptions;
  const UicOutcome out = sim.RunDetailed(alloc, table, rng, &adoptions);
  ItemSet a0 = 0, a1 = 0, a2 = 0;
  for (const auto& [v, a] : adoptions) {
    if (v == 0) a0 = a;
    if (v == 1) a1 = a;
    if (v == 2) a2 = a;
  }
  EXPECT_EQ(a0, 0b11u);
  EXPECT_EQ(a1, 0b11u);  // upgraded via re-propagation
  EXPECT_EQ(a2, 0b10u);
  EXPECT_DOUBLE_EQ(out.welfare, 2.5 + 2.5 + 0.5);
}

// ---------------------------------------------------------------------------
// Lemma 2 / Lemma 3 property tests on random deterministic worlds.
// ---------------------------------------------------------------------------
class UicWorldTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UicWorldTest, AdoptedSetsAreLocalMaximaAndPropagateByReachability) {
  Rng rng(GetParam());
  // Random digraph with deterministic (0/1) edges: the sampled "world" is
  // the graph itself, so reachability is checkable.
  const NodeId n = 24;
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (int e = 0; e < 3; ++e) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (v != u) builder.AddEdge(u, v, rng.NextBernoulli(0.5) ? 1.0 : 0.0);
    }
  }
  Graph g = builder.Build().MoveValue();

  const ItemId k = 3;
  auto value = MakeRandomSupermodularValue(k, rng, 0.2, 2.0, 1.0);
  std::vector<double> prices(k);
  for (auto& p : prices) p = rng.NextUniform(0.5, 2.5);
  ItemParams params(value, prices, NoiseModel::Zero(k));
  std::vector<double> noise(k);
  for (auto& x : noise) x = rng.NextGaussian(0.0, 1.0);
  const UtilityTable table(params, noise);

  Allocation alloc;
  for (int s = 0; s < 5; ++s) {
    alloc.Add(static_cast<NodeId>(rng.NextBounded(n)),
              static_cast<ItemSet>(rng.NextBounded(1u << k)));
  }

  UicSimulator sim(g);
  std::vector<std::pair<NodeId, ItemSet>> adoptions;
  sim.RunDetailed(alloc, table, rng, &adoptions);

  std::vector<ItemSet> adopted(n, 0);
  for (const auto& [v, a] : adoptions) adopted[v] = a;

  // Lemma 2: every adopted set is a local maximum of the utility.
  for (const auto& [v, a] : adoptions) {
    EXPECT_TRUE(table.IsLocalMaximum(a))
        << "node " << v << " adopted " << ItemSetToString(a);
  }

  // Lemma 3: if u adopted item i, every node reachable from u through
  // live (p=1) edges also adopted i.
  for (NodeId u = 0; u < n; ++u) {
    if (adopted[u] == 0) continue;
    // BFS over live edges.
    std::vector<bool> seen(n, false);
    std::vector<NodeId> stack = {u};
    seen[u] = true;
    while (!stack.empty()) {
      const NodeId w = stack.back();
      stack.pop_back();
      auto nbrs = g.OutNeighbors(w);
      auto probs = g.OutProbs(w);
      for (size_t j = 0; j < nbrs.size(); ++j) {
        if (probs[j] < 0.5 || seen[nbrs[j]]) continue;
        seen[nbrs[j]] = true;
        stack.push_back(nbrs[j]);
        EXPECT_EQ(adopted[nbrs[j]] & adopted[u], adopted[u])
            << "node " << nbrs[j] << " reachable from " << u;
      }
    }
  }
}

// Theorem 1 (monotonicity): enlarging the allocation never decreases the
// welfare of a deterministic world.
TEST_P(UicWorldTest, WelfareIsMonotoneInAllocation) {
  Rng rng(GetParam() ^ 0xbeef);
  const NodeId n = 20;
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (int e = 0; e < 3; ++e) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (v != u) builder.AddEdge(u, v, rng.NextBernoulli(0.6) ? 1.0 : 0.0);
    }
  }
  Graph g = builder.Build().MoveValue();

  const ItemId k = 3;
  auto value = MakeRandomSupermodularValue(k, rng, 0.2, 2.0, 1.0);
  std::vector<double> prices(k);
  for (auto& p : prices) p = rng.NextUniform(0.5, 2.5);
  ItemParams params(value, prices, NoiseModel::Zero(k));
  std::vector<double> noise(k);
  for (auto& x : noise) x = rng.NextGaussian(0.0, 1.0);
  const UtilityTable table(params, noise);

  Allocation small, large;
  for (int s = 0; s < 4; ++s) {
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    const ItemSet items = static_cast<ItemSet>(rng.NextBounded(1u << k));
    small.Add(v, items);
    large.Add(v, items);
  }
  for (int s = 0; s < 3; ++s) {
    large.Add(static_cast<NodeId>(rng.NextBounded(n)),
              static_cast<ItemSet>(rng.NextBounded(1u << k)));
  }

  UicSimulator sim(g);
  Rng run_rng(0);  // edges are deterministic; rng is unused entropy
  const double w_small = sim.Run(small, table, run_rng).welfare;
  const double w_large = sim.Run(large, table, run_rng).welfare;
  EXPECT_LE(w_small, w_large + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UicWorldTest,
                         ::testing::Range<uint64_t>(0, 16));

// ---------------------------------------------------------------------------
// Theorem 1 counterexamples: expected welfare is neither submodular nor
// supermodular, reproduced exactly as in the proof.
// ---------------------------------------------------------------------------
TEST(UicWelfare, NotSubmodularCounterexample) {
  // One node; both items individually negative, jointly positive.
  GraphBuilder builder(1);
  Graph g = builder.Build().MoveValue();
  ItemParams params = TwoItems(-1.0, -1.0, 1.0);
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(5);

  Allocation empty;
  Allocation with_i2;
  with_i2.AddItem(0, 1);
  Allocation with_i1;
  with_i1.AddItem(0, 0);
  Allocation with_both;
  with_both.AddItem(0, 0);
  with_both.AddItem(0, 1);

  const double gain_at_empty =
      sim.Run(with_i2, table, rng).welfare - sim.Run(empty, table, rng).welfare;
  const double gain_at_i1 = sim.Run(with_both, table, rng).welfare -
                            sim.Run(with_i1, table, rng).welfare;
  EXPECT_DOUBLE_EQ(gain_at_empty, 0.0);
  EXPECT_GT(gain_at_i1, 0.0);  // submodularity would force <= gain_at_empty
}

TEST(UicWelfare, NotSupermodularCounterexample) {
  // v1 -> v2 with p=1; one positive item.
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build().MoveValue();
  ItemParams params = OneItem(1.0);
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(6);

  Allocation empty;
  Allocation v2_only;
  v2_only.AddItem(1, 0);
  Allocation v1_only;
  v1_only.AddItem(0, 0);
  Allocation both;
  both.AddItem(0, 0);
  both.AddItem(1, 0);

  const double gain_at_empty = sim.Run(v2_only, table, rng).welfare -
                               sim.Run(empty, table, rng).welfare;
  const double gain_at_v1 =
      sim.Run(both, table, rng).welfare - sim.Run(v1_only, table, rng).welfare;
  EXPECT_GT(gain_at_empty, 0.0);
  EXPECT_DOUBLE_EQ(gain_at_v1, 0.0);  // supermodularity would force >=
}

// ---------------------------------------------------------------------------
// Estimator-level behavior.
// ---------------------------------------------------------------------------
TEST(EstimateWelfare, DeterministicForFixedSeedAndWorkers) {
  Graph g = GenerateErdosRenyi(150, 900, 20);
  g.ApplyWeightedCascade();
  ItemParams params = TwoItems(0.0, 0.0, 1.0);
  Allocation alloc;
  for (NodeId v = 0; v < 10; ++v) alloc.Add(v, 0b11);
  const WelfareEstimate a = EstimateWelfare(g, alloc, params, 400, 5, 4);
  const WelfareEstimate b = EstimateWelfare(g, alloc, params, 400, 5, 4);
  EXPECT_DOUBLE_EQ(a.welfare, b.welfare);
  EXPECT_DOUBLE_EQ(a.avg_adopters, b.avg_adopters);
}

TEST(EstimateWelfare, EmptyAllocationHasZeroWelfare) {
  Graph g = GenerateErdosRenyi(50, 200, 21);
  ItemParams params = TwoItems(1.0, 1.0, 3.0);
  const WelfareEstimate w = EstimateWelfare(g, Allocation{}, params, 100, 6, 2);
  EXPECT_DOUBLE_EQ(w.welfare, 0.0);
}

TEST(EstimateWelfare, BundledSeedingBeatsSplitSeedingUnderSynergy) {
  // Items worthless alone, valuable together: seeding both items on the
  // same nodes must beat seeding them on disjoint node sets.
  Graph g = GenerateErdosRenyi(300, 1800, 22);
  g.ApplyWeightedCascade();
  ItemParams params = TwoItems(-0.5, -0.5, 2.0);
  Allocation bundled, split;
  for (NodeId v = 0; v < 20; ++v) bundled.Add(v, 0b11);
  for (NodeId v = 0; v < 20; ++v) split.AddItem(v, 0);
  for (NodeId v = 20; v < 40; ++v) split.AddItem(v, 1);
  const double wb = EstimateWelfare(g, bundled, params, 500, 7, 4).welfare;
  const double ws = EstimateWelfare(g, split, params, 500, 7, 4).welfare;
  EXPECT_GT(wb, ws);
}

TEST(EstimateWelfare, WelfareIsNonNegativeUnderRationalAdoption) {
  // Every adoption has non-negative utility in its own world, so realized
  // welfare per world is >= 0 even with noisy utilities.
  Graph g = GenerateErdosRenyi(100, 500, 23);
  g.ApplyWeightedCascade();
  const std::vector<double> prices = {2.0, 2.0};
  auto value = MakeValueFromUtilities(2, prices, {0.0, -0.2, -0.2, 0.4});
  ItemParams params(std::move(value), prices, NoiseModel::IidGaussian(2, 1.5));
  Allocation alloc;
  for (NodeId v = 0; v < 15; ++v) alloc.Add(v, 0b11);
  const WelfareEstimate w = EstimateWelfare(g, alloc, params, 300, 8, 4);
  EXPECT_GE(w.welfare, 0.0);
}

// ---------------------------------------------------------------------------
// Bit pins of the Monte-Carlo draw sequence on an instance that re-reads
// remembered edge outcomes. Fractional (weighted-cascade) probabilities
// plus items seeded on different nodes make nodes adopt a second item
// after they first propagated, so live out-edges are replayed (~4% of edge
// visits here). Any change to the order of RNG draws, to which edges are
// replayed, or to the order of the welfare sums moves these bits.
// ---------------------------------------------------------------------------
struct ReplayInstance {
  Graph graph;
  ItemParams params = MakeAdditiveConfig5(3);
  Allocation allocation;
};

ReplayInstance MakeReplayInstance() {
  ReplayInstance r;
  r.graph = GeneratePreferentialAttachment(3000, 4, /*undirected=*/false,
                                           /*seed=*/7);
  r.graph.ApplyWeightedCascade();
  Rng pick(11);
  for (ItemId i = 0; i < 3; ++i) {
    for (int j = 0; j < 15; ++j) {
      r.allocation.AddItem(static_cast<NodeId>(pick.NextBounded(3000)), i);
    }
  }
  return r;
}

struct EstimateBits {
  uint64_t welfare, std_error, avg_adopters, avg_adoptions;
};

void ExpectBits(const WelfareEstimate& e, const EstimateBits& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(e.welfare), want.welfare) << e.welfare;
  EXPECT_EQ(std::bit_cast<uint64_t>(e.std_error), want.std_error)
      << e.std_error;
  EXPECT_EQ(std::bit_cast<uint64_t>(e.avg_adopters), want.avg_adopters)
      << e.avg_adopters;
  EXPECT_EQ(std::bit_cast<uint64_t>(e.avg_adoptions), want.avg_adoptions)
      << e.avg_adoptions;
}

constexpr EstimateBits kIcPins = {0x406916060de3a2edULL, 0x40258249b254684aULL,
                                  0x406386eeeeeeeeefULL,
                                  0x40644ba06d3a06d4ULL};
constexpr EstimateBits kLtPins = {0x406c76fee85fb28eULL, 0x4027b109b246a546ULL,
                                  0x4066022222222222ULL,
                                  0x40667da740da740eULL};

TEST(ReplayPins, EstimateWelfareBitsAtWorkers1And4) {
  const ReplayInstance r = MakeReplayInstance();
  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    ExpectBits(
        EstimateWelfare(r.graph, r.allocation, r.params, 300, 2024, workers),
        kIcPins);
  }
}

TEST(ReplayPins, EstimateWelfareLtBitsAtWorkers1And4) {
  const ReplayInstance r = MakeReplayInstance();
  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    ExpectBits(
        EstimateWelfareLt(r.graph, r.allocation, r.params, 300, 2024, workers),
        kLtPins);
  }
}

uint64_t Fnv1a(uint64_t h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ReplayPins, RunDetailedAdoptionListHash) {
  // Fifth diffusion on one simulator: state from the earlier runs must be
  // invisible, and the list comes out in first-touch order.
  const ReplayInstance r = MakeReplayInstance();
  UicSimulator sim(r.graph);
  Rng rng(99);
  std::vector<double> noise;
  UtilityTable table(r.params);
  std::vector<std::pair<NodeId, ItemSet>> adoptions;
  UicOutcome out;
  for (int run = 0; run < 5; ++run) {
    r.params.noise().Sample(rng, &noise);
    table.Rebuild(r.params, noise);
    out = sim.RunDetailed(r.allocation, table, rng, &adoptions);
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, adoptions.size());
  for (const auto& [v, a] : adoptions) {
    h = Fnv1a(h, v);
    h = Fnv1a(h, a);
  }
  EXPECT_EQ(h, 0x577582404b77b9f1ULL);
  EXPECT_EQ(adoptions.size(), 139u);
  EXPECT_EQ(out.num_adopters, 139u);
  EXPECT_EQ(out.num_adoptions, 141u);
  EXPECT_EQ(std::bit_cast<uint64_t>(out.welfare), 0x407a13832350aacaULL);
}

}  // namespace
}  // namespace uic
