#include "core/serialization.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.h"
#include "graph/graph.h"
#include "items/noise.h"
#include "items/params.h"
#include "items/price_function.h"
#include "items/value_function.h"

namespace uic {
namespace {

// Unique-per-test temp path inside the build tree's cwd.
std::string TempPath(const std::string& tag) {
  return "serialization_test_" + tag + ".txt";
}

class TempFile {
 public:
  explicit TempFile(const std::string& tag) : path_(TempPath(tag)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------- Allocation

TEST(AllocationSerialization, RoundTripsEntries) {
  TempFile file("alloc");
  Allocation a;
  a.Add(3, ItemBit(0) | ItemBit(2));
  a.Add(7, ItemBit(1));
  a.AddItem(3, 1);  // merges into node 3's existing entry
  ASSERT_TRUE(SaveAllocation(a, file.path()).ok());

  auto loaded = LoadAllocation(file.path());
  ASSERT_TRUE(loaded.ok());
  const Allocation& b = loaded.value();
  EXPECT_EQ(b.num_seed_nodes(), 2u);
  EXPECT_EQ(b.TotalPairs(), 4u);
  EXPECT_EQ(b.entries()[0].first, 3u);
  EXPECT_EQ(b.entries()[0].second, ItemBit(0) | ItemBit(1) | ItemBit(2));
  EXPECT_EQ(b.entries()[1].first, 7u);
  EXPECT_EQ(b.entries()[1].second, ItemBit(1));
}

TEST(AllocationSerialization, RoundTripsEmptyAllocation) {
  TempFile file("alloc_empty");
  ASSERT_TRUE(SaveAllocation(Allocation(), file.path()).ok());
  auto loaded = LoadAllocation(file.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(AllocationSerialization, RejectsMalformedRows) {
  TempFile file("alloc_bad");
  {
    std::ofstream out(file.path());
    out << "12 34\n";  // no comma
  }
  EXPECT_FALSE(LoadAllocation(file.path()).ok());
  {
    std::ofstream out(file.path());
    out << "x,3\n";  // bad node id
  }
  EXPECT_FALSE(LoadAllocation(file.path()).ok());
  {
    std::ofstream out(file.path());
    out << "5,0\n";  // empty itemset is invalid
  }
  EXPECT_FALSE(LoadAllocation(file.path()).ok());
}

TEST(AllocationSerialization, MissingFileIsAnError) {
  EXPECT_FALSE(LoadAllocation("definitely_not_here_12345.txt").ok());
}

// --------------------------------------------------------------------- Graph

TEST(GraphSerialization, RoundTripsEmptyGraph) {
  TempFile file("graph_empty");
  Graph g;  // zero nodes, zero edges
  ASSERT_TRUE(SaveGraph(g, file.path()).ok());
  auto loaded = LoadGraph(file.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 0u);
  EXPECT_EQ(loaded.value().num_edges(), 0u);
}

TEST(GraphSerialization, RoundTripsSingleNodeNoEdges) {
  TempFile file("graph_one");
  GraphBuilder builder(1);
  Graph g = builder.Build().MoveValue();
  ASSERT_TRUE(SaveGraph(g, file.path()).ok());
  auto loaded = LoadGraph(file.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 1u);
  EXPECT_EQ(loaded.value().num_edges(), 0u);
  EXPECT_EQ(loaded.value().OutDegree(0), 0u);
}

TEST(GraphSerialization, RoundTripsTopologyAndProbabilities) {
  TempFile file("graph_full");
  Graph g = GenerateErdosRenyi(40, 150, 5);
  g.ApplyWeightedCascade();
  ASSERT_TRUE(SaveGraph(g, file.path()).ok());

  auto loaded = LoadGraph(file.path());
  ASSERT_TRUE(loaded.ok());
  const Graph& h = loaded.value();
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto gt = g.OutNeighbors(u);
    const auto ht = h.OutNeighbors(u);
    ASSERT_EQ(gt.size(), ht.size()) << "node " << u;
    const auto gp = g.OutProbs(u);
    const auto hp = h.OutProbs(u);
    for (size_t k = 0; k < gt.size(); ++k) {
      EXPECT_EQ(gt[k], ht[k]);
      EXPECT_FLOAT_EQ(gp[k], hp[k]);
    }
  }
}

TEST(GraphSerialization, RejectsEdgeCountMismatch) {
  TempFile file("graph_bad");
  {
    std::ofstream out(file.path());
    out << "nodes 3\nedges 2\n0 1 0.5\n";  // header promises 2, file has 1
  }
  EXPECT_FALSE(LoadGraph(file.path()).ok());
}

TEST(GraphSerialization, RejectsCorruptHeadersAndEdges) {
  TempFile file("graph_corrupt");
  {
    std::ofstream out(file.path());
    out << "nodes -5\nedges 0\n";  // negative count must not wrap
  }
  EXPECT_FALSE(LoadGraph(file.path()).ok());
  {
    std::ofstream out(file.path());
    // Endpoint exceeds both the node count and 32-bit NodeId; must not
    // truncate into range.
    out << "nodes 3\nedges 1\n0 4294967297 0.9\n";
  }
  EXPECT_FALSE(LoadGraph(file.path()).ok());
  {
    std::ofstream out(file.path());
    out << "nodes 3\nedges 1\n1 1 0.5\n";  // self-loop
  }
  EXPECT_FALSE(LoadGraph(file.path()).ok());
  {
    std::ofstream out(file.path());
    // Duplicate edge: pending count matches the header but dedup at Build
    // would silently drop one — must be reported.
    out << "nodes 3\nedges 2\n0 1 0.5\n0 1 0.5\n";
  }
  EXPECT_FALSE(LoadGraph(file.path()).ok());
  {
    std::ofstream out(file.path());
    // num_nodes + 1 would wrap the 32-bit CSR offsets to 0 and the
    // prefix sum would write out of bounds.
    out << "nodes 4294967295\nedges 0\n";
  }
  Result<Graph> wrapped = LoadGraph(file.path());
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), Status::Code::kInvalidArgument);
}

// ---------------------------------------------------------------- ItemParams

TEST(ItemParamsSerialization, RoundTripsTabularValueAdditivePrice) {
  TempFile file("params");
  const ItemId k = 3;
  std::vector<double> table(1u << k, 0.0);
  for (ItemSet s = 0; s < table.size(); ++s) {
    table[s] = Cardinality(s) * 2.5 + (Cardinality(s) >= 2 ? 1.25 : 0.0);
  }
  ItemParams params(std::make_shared<TabularValueFunction>(k, table),
                    std::vector<double>{1.0, 2.0, 0.5},
                    NoiseModel::IidGaussian(k, 0.3));
  ASSERT_TRUE(SaveItemParams(params, file.path()).ok());

  auto loaded = LoadItemParams(file.path());
  ASSERT_TRUE(loaded.ok());
  const ItemParams& p = loaded.value();
  ASSERT_EQ(p.num_items(), k);
  for (ItemSet s = 0; s < table.size(); ++s) {
    EXPECT_DOUBLE_EQ(p.value().Value(s), params.value().Value(s));
    EXPECT_DOUBLE_EQ(p.price().Price(s), params.price().Price(s));
    EXPECT_DOUBLE_EQ(p.DeterministicUtility(s),
                     params.DeterministicUtility(s));
  }
  for (ItemId i = 0; i < k; ++i) {
    EXPECT_EQ(p.noise().item(i).kind, ItemNoise::Kind::kGaussian);
    EXPECT_DOUBLE_EQ(p.noise().item(i).param, 0.3);
  }
}

TEST(ItemParamsSerialization, RoundTripsGenericPriceAndMixedNoise) {
  TempFile file("params_mixed");
  const ItemId k = 2;
  auto value = std::make_shared<AdditiveValueFunction>(
      std::vector<double>{4.0, 6.0});
  auto price = std::make_shared<VolumeDiscountPriceFunction>(
      std::vector<double>{3.0, 5.0}, 0.8);
  NoiseModel noise({ItemNoise::Zero(), ItemNoise::Uniform(1.5)});
  ItemParams params(value, price, noise);
  ASSERT_TRUE(SaveItemParams(params, file.path()).ok());

  auto loaded = LoadItemParams(file.path());
  ASSERT_TRUE(loaded.ok());
  const ItemParams& p = loaded.value();
  ASSERT_EQ(p.num_items(), k);
  for (ItemSet s = 0; s <= FullItemSet(k); ++s) {
    EXPECT_DOUBLE_EQ(p.value().Value(s), params.value().Value(s));
    EXPECT_DOUBLE_EQ(p.price().Price(s), params.price().Price(s));
  }
  EXPECT_EQ(p.noise().item(0).kind, ItemNoise::Kind::kZero);
  EXPECT_EQ(p.noise().item(1).kind, ItemNoise::Kind::kUniform);
  EXPECT_DOUBLE_EQ(p.noise().item(1).param, 1.5);
}

TEST(ItemParamsSerialization, RoundTripsSingleItem) {
  TempFile file("params_one");
  ItemParams params(
      std::make_shared<TabularValueFunction>(1, std::vector<double>{0.0, 7.5}),
      std::vector<double>{2.25}, NoiseModel::Zero(1));
  ASSERT_TRUE(SaveItemParams(params, file.path()).ok());
  auto loaded = LoadItemParams(file.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_items(), 1u);
  EXPECT_DOUBLE_EQ(loaded.value().value().Value(1), 7.5);
  EXPECT_DOUBLE_EQ(loaded.value().DeterministicUtility(1), 7.5 - 2.25);
}

TEST(ItemParamsSerialization, RejectsTruncatedFile) {
  TempFile file("params_bad");
  {
    std::ofstream out(file.path());
    out << "items 2\nvalues 0 1 2 3\n";  // prices + noise missing
  }
  EXPECT_FALSE(LoadItemParams(file.path()).ok());
}

}  // namespace
}  // namespace uic
