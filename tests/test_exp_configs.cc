#include "exp/configs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exp/networks.h"
#include "exp/specs.h"
#include "items/gap.h"
#include "items/utility_table.h"
#include "items/value_function.h"

namespace uic {
namespace {

TEST(Config12, MatchesTable3) {
  ItemParams p = MakeTwoItemConfig12();
  EXPECT_EQ(p.num_items(), 2u);
  EXPECT_DOUBLE_EQ(p.ItemPrice(0), 3.0);
  EXPECT_DOUBLE_EQ(p.ItemPrice(1), 4.0);
  EXPECT_DOUBLE_EQ(p.value().Value(0b01), 3.0);
  EXPECT_DOUBLE_EQ(p.value().Value(0b10), 4.0);
  EXPECT_DOUBLE_EQ(p.value().Value(0b11), 8.0);
  EXPECT_DOUBLE_EQ(p.DeterministicUtility(0b11), 1.0);
  EXPECT_TRUE(IsSupermodular(p.value()));
  EXPECT_TRUE(IsMonotone(p.value()));
  // GAP parameters quoted in Table 3: 0.5 / 0.5 / 0.84 / 0.84.
  const TwoItemGap gap = DeriveTwoItemGap(p);
  EXPECT_NEAR(gap.q1_none, 0.5, 1e-9);
  EXPECT_NEAR(gap.q2_none, 0.5, 1e-9);
  EXPECT_NEAR(gap.q1_given2, 0.8413, 1e-3);
  EXPECT_NEAR(gap.q2_given1, 0.8413, 1e-3);
}

TEST(Config34, MatchesTable3) {
  ItemParams p = MakeTwoItemConfig34();
  EXPECT_DOUBLE_EQ(p.DeterministicUtility(0b01), 0.0);
  EXPECT_DOUBLE_EQ(p.DeterministicUtility(0b10), -1.0);
  EXPECT_DOUBLE_EQ(p.DeterministicUtility(0b11), 1.0);
  EXPECT_TRUE(IsSupermodular(p.value()));
  const TwoItemGap gap = DeriveTwoItemGap(p);
  EXPECT_NEAR(gap.q2_none, 0.16, 0.005);
  EXPECT_NEAR(gap.q1_given2, 0.98, 0.005);
  EXPECT_NEAR(gap.q2_given1, 0.84, 0.005);
}

TEST(Config5, AdditiveUnitUtilities) {
  ItemParams p = MakeAdditiveConfig5(6);
  EXPECT_EQ(p.num_items(), 6u);
  for (ItemId i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(p.DeterministicUtility(ItemBit(i)), 1.0);
  }
  EXPECT_DOUBLE_EQ(p.DeterministicUtility(FullItemSet(6)), 6.0);
  EXPECT_TRUE(IsSupermodular(p.value()));
  EXPECT_TRUE(IsSubmodular(p.value()));  // additive = modular
}

TEST(Config67, ConeShapedUtilities) {
  const ItemId core = 2;
  ItemParams p = MakeConeConfig67(5, core);
  // Supersets of the core have positive utility, others negative.
  const ItemSet full = FullItemSet(5);
  for (ItemSet s = 1; s <= full; ++s) {
    if (Contains(s, core)) {
      EXPECT_DOUBLE_EQ(p.DeterministicUtility(s),
                       5.0 + 2.0 * (Cardinality(s) - 1));
    } else {
      EXPECT_LT(p.DeterministicUtility(s), 0.0);
    }
    if (s == full) break;
  }
  EXPECT_TRUE(IsSupermodular(p.value()));
}

TEST(Config8, SupermodularForManySeeds) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 99ull}) {
    ItemParams p = MakeLevelwiseConfig8(5, seed);
    EXPECT_TRUE(IsSupermodular(p.value())) << "seed " << seed;
    EXPECT_TRUE(IsMonotone(p.value())) << "seed " << seed;
  }
}

TEST(RealPlaystation, PublishedValuesAreExact) {
  ItemParams p = MakeRealPlaystationParams();
  const ItemSet ps = ItemBit(0), c = ItemBit(1), g1 = ItemBit(2),
                g2 = ItemBit(3), g3 = ItemBit(4);
  // Table 5 rows.
  EXPECT_DOUBLE_EQ(p.value().Value(ps), 213.0);
  EXPECT_DOUBLE_EQ(p.Price(ps), 260.0);
  EXPECT_DOUBLE_EQ(p.value().Value(ps | c), 220.0);
  EXPECT_DOUBLE_EQ(p.Price(ps | c), 280.0);
  EXPECT_DOUBLE_EQ(p.value().Value(ps | g1 | g2 | g3), 258.0);
  EXPECT_DOUBLE_EQ(p.Price(ps | g1 | g2 | g3), 275.0);
  EXPECT_DOUBLE_EQ(p.value().Value(ps | g1 | g2 | c), 292.5);
  EXPECT_DOUBLE_EQ(p.Price(ps | g1 | g2 | c), 290.0);
  EXPECT_DOUBLE_EQ(p.value().Value(ps | c | g1 | g2 | g3), 302.0);
  EXPECT_DOUBLE_EQ(p.Price(ps | c | g1 | g2 | g3), 295.0);
}

TEST(RealPlaystation, SignPatternMatchesPaper) {
  // "The only itemsets that have positive deterministic utility are
  // itemsets with ps, c and at least two games."
  ItemParams p = MakeRealPlaystationParams();
  const ItemSet ps = ItemBit(0), c = ItemBit(1);
  const ItemSet full = FullItemSet(5);
  for (ItemSet s = 1; s <= full; ++s) {
    const bool has_ps = IsSubset(ps, s);
    const bool has_c = IsSubset(c, s);
    const uint32_t games = Cardinality(s & ~(ps | c));
    const bool should_be_positive = has_ps && has_c && games >= 2;
    if (should_be_positive) {
      EXPECT_GT(p.DeterministicUtility(s), 0.0) << ItemSetToString(s);
    } else {
      EXPECT_LT(p.DeterministicUtility(s), 0.0) << ItemSetToString(s);
    }
    if (s == full) break;
  }
}

TEST(RealPlaystation, ValueIsMonotoneAndGamesAreSymmetric) {
  ItemParams p = MakeRealPlaystationParams();
  EXPECT_TRUE(IsMonotone(p.value()));
  // Any two itemsets with the same (ps, c, #games) signature have the same
  // value (the paper treats the three games as interchangeable).
  EXPECT_DOUBLE_EQ(p.value().Value(ItemBit(0) | ItemBit(2)),
                   p.value().Value(ItemBit(0) | ItemBit(4)));
  EXPECT_DOUBLE_EQ(
      p.value().Value(ItemBit(0) | ItemBit(1) | ItemBit(2) | ItemBit(3)),
      p.value().Value(ItemBit(0) | ItemBit(1) | ItemBit(3) | ItemBit(4)));
}

TEST(RealPlaystation, ComplementarityMarginalsThePaperCites) {
  // The paper's supermodularity evidence: the controller's marginal value
  // grows from +7 (given ps alone) to +44 (given ps and all games).
  ItemParams p = MakeRealPlaystationParams();
  const ItemSet ps = ItemBit(0), c = ItemBit(1);
  const ItemSet games = ItemBit(2) | ItemBit(3) | ItemBit(4);
  const double m_c_given_ps = p.value().Value(ps | c) - p.value().Value(ps);
  const double m_c_given_all =
      p.value().Value(ps | games | c) - p.value().Value(ps | games);
  EXPECT_DOUBLE_EQ(m_c_given_ps, 7.0);
  EXPECT_DOUBLE_EQ(m_c_given_all, 44.0);
  EXPECT_GT(m_c_given_all, m_c_given_ps);
}

TEST(RealPlaystation, ItemNames) {
  const auto& names = RealPlaystationItemNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "ps");
  EXPECT_EQ(names[1], "c");
}

TEST(Networks, StandInsMatchPaperScale) {
  const Graph flixster = MakeFlixsterLike(1);
  EXPECT_EQ(flixster.num_nodes(), 7600u);
  EXPECT_NEAR(flixster.AverageDegree(), 9.4, 1.5);

  const Graph book = MakeDoubanBookLike(2);
  EXPECT_EQ(book.num_nodes(), 23300u);
  EXPECT_NEAR(book.AverageDegree(), 6.5, 1.5);

  const Graph movie = MakeDoubanMovieLike(3);
  EXPECT_EQ(movie.num_nodes(), 34900u);
  EXPECT_NEAR(movie.AverageDegree(), 7.9, 1.5);
}

TEST(Networks, ScaleParameterShrinksGraphs) {
  const Graph small = MakeTwitterLike(4, 0.1);
  EXPECT_EQ(small.num_nodes(), 4000u);
  const Graph tiny = MakeOrkutLike(5, 0.01);
  EXPECT_EQ(tiny.num_nodes(), 300u);
}

TEST(Networks, WeightedCascadeApplied) {
  const Graph g = MakeDoubanBookLike(6, 0.2);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint32_t din = g.InDegree(v);
    for (float p : g.InProbs(v)) {
      EXPECT_FLOAT_EQ(p, 1.0f / static_cast<float>(din));
    }
  }
}

TEST(Networks, DescribeAllCoversFiveNetworks) {
  const auto infos = DescribeAllNetworks(7, 0.05);
  ASSERT_EQ(infos.size(), 5u);
  EXPECT_EQ(infos[0].name, "Flixster");
  EXPECT_EQ(infos[4].name, "Orkut");
  for (const auto& info : infos) {
    EXPECT_GT(info.built_nodes, 0u);
    EXPECT_GT(info.built_edges, 0u);
  }
}

NetworkSpec SmallEr() {
  NetworkSpec spec;
  spec.network = "er";
  spec.nodes = 50;
  spec.edges = 200;
  return spec;
}

TEST(Specs, NetworkSpecsOutsideTheLimitsAreInvalidArgument) {
  std::vector<NetworkSpec> bad(11, SmallEr());
  bad[0].nodes = 1;  // er needs two nodes
  bad[1].network = "pa";
  bad[1].nodes = 5;  // pa needs six
  bad[2].nodes = 0;
  bad[3].nodes = 1LL << 32;
  bad[4].edges = -1;
  bad[5].scale = -1.0;
  bad[6].scale = std::nan("");
  bad[7].p = 2.5;
  bad[8].p = -0.1;
  bad[9].network = "mars";
  bad[10].network = "twitter";
  bad[10].scale = 1e12;  // 4e16 nodes: rejected before generating
  for (size_t i = 0; i < bad.size(); ++i) {
    const Result<Graph> graph = BuildNetwork(bad[i]);
    ASSERT_FALSE(graph.ok()) << "case " << i;
    EXPECT_EQ(graph.status().code(), Status::Code::kInvalidArgument)
        << "case " << i;
  }
}

TEST(Specs, NetworkLimitsAreInclusive) {
  NetworkSpec er = SmallEr();
  er.nodes = 2;
  er.p = 1.0;
  const Result<Graph> two = BuildNetwork(er);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(two.value().num_nodes(), 2u);
  NetworkSpec pa = SmallEr();
  pa.network = "pa";
  pa.nodes = 6;
  EXPECT_TRUE(BuildNetwork(pa).ok());
}

TEST(Specs, ItemCountMustFitTheItemsetRepresentation) {
  ConfigSpec spec;
  spec.config = "additive";
  for (long long items : {-1LL, 0LL, static_cast<long long>(kMaxItems) + 1}) {
    spec.items = items;
    const Result<ItemParams> params = BuildConfig(spec);
    ASSERT_FALSE(params.ok()) << items;
    EXPECT_EQ(params.status().code(), Status::Code::kInvalidArgument);
  }
  spec.items = kMaxItems;
  const Result<ItemParams> widest = BuildConfig(spec);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().num_items(), kMaxItems);
  spec.config = "no-such-config";
  EXPECT_EQ(BuildConfig(spec).status().code(), Status::Code::kInvalidArgument);

  // Tighter limits where building costs grow with 2^items or 3^items: the
  // cone configurations tabulate 2^items values, and levelwise generation
  // costs items · 3^(items − 1).
  for (const char* config : {"cone-max", "cone-min", "levelwise"}) {
    spec.config = config;
    spec.items = std::string(config) == "levelwise" ? kMaxLevelwiseItems + 1
                                                    : kMaxTabulatedItems + 1;
    const Result<ItemParams> params = BuildConfig(spec);
    ASSERT_FALSE(params.ok()) << config;
    EXPECT_EQ(params.status().code(), Status::Code::kInvalidArgument)
        << config;
  }
  spec.config = "cone-min";
  spec.items = kMaxTabulatedItems;
  const Result<ItemParams> cone = BuildConfig(spec);
  ASSERT_TRUE(cone.ok()) << cone.status().ToString();
  EXPECT_EQ(cone.value().num_items(), kMaxTabulatedItems);
}

}  // namespace
}  // namespace uic
