#include "exp/networks.h"

#include <algorithm>

#include "common/check.h"
#include "graph/generators.h"

namespace uic {

namespace {

constexpr NodeId kFlixsterNodes = 7600;
constexpr NodeId kDoubanBookNodes = 23300;
constexpr NodeId kDoubanMovieNodes = 34900;
constexpr NodeId kTwitterNodes = 40000;
constexpr NodeId kOrkutNodes = 30000;

NodeId Scaled(NodeId base, double scale) {
  // Converting a double outside NodeId's range is undefined behaviour.
  const double n = static_cast<double>(base) * scale;
  UIC_CHECK_MSG(n >= 0.0 && n < static_cast<double>(UINT32_MAX),
                "stand-in scale gives a node count outside [0, 2^32 - 1)");
  return std::max<NodeId>(64, static_cast<NodeId>(n));
}

}  // namespace

Graph MakeFlixsterLike(uint64_t seed, double scale) {
  Graph g = GeneratePreferentialAttachment(Scaled(kFlixsterNodes, scale),
                                           /*out_per_node=*/5,
                                           /*undirected=*/true, seed);
  g.ApplyWeightedCascade();
  return g;
}

Graph MakeDoubanBookLike(uint64_t seed, double scale) {
  Graph g = GeneratePreferentialAttachment(Scaled(kDoubanBookNodes, scale),
                                           /*out_per_node=*/5,
                                           /*undirected=*/false, seed);
  g.ApplyWeightedCascade();
  return g;
}

Graph MakeDoubanMovieLike(uint64_t seed, double scale) {
  Graph g = GeneratePreferentialAttachment(Scaled(kDoubanMovieNodes, scale),
                                           /*out_per_node=*/6,
                                           /*undirected=*/false, seed);
  g.ApplyWeightedCascade();
  return g;
}

Graph MakeTwitterLike(uint64_t seed, double scale) {
  Graph g = GeneratePreferentialAttachment(Scaled(kTwitterNodes, scale),
                                           /*out_per_node=*/22,
                                           /*undirected=*/false, seed);
  g.ApplyWeightedCascade();
  return g;
}

Graph MakeOrkutLike(uint64_t seed, double scale) {
  Graph g = GeneratePreferentialAttachment(Scaled(kOrkutNodes, scale),
                                           /*out_per_node=*/20,
                                           /*undirected=*/true, seed);
  g.ApplyWeightedCascade();
  return g;
}

std::vector<NetworkInfo> DescribeAllNetworks(uint64_t seed, double scale) {
  std::vector<NetworkInfo> infos;
  {
    Graph g = MakeFlixsterLike(seed, scale);
    infos.push_back({"Flixster", false, 7600, 71700, g.num_nodes(),
                     g.num_edges()});
  }
  {
    Graph g = MakeDoubanBookLike(seed, scale);
    infos.push_back({"Douban-Book", true, 23300, 141000, g.num_nodes(),
                     g.num_edges()});
  }
  {
    Graph g = MakeDoubanMovieLike(seed, scale);
    infos.push_back({"Douban-Movie", true, 34900, 274000, g.num_nodes(),
                     g.num_edges()});
  }
  {
    Graph g = MakeTwitterLike(seed, scale);
    infos.push_back({"Twitter", true, 41700000, 1470000000, g.num_nodes(),
                     g.num_edges()});
  }
  {
    Graph g = MakeOrkutLike(seed, scale);
    infos.push_back({"Orkut", false, 3070000, 234000000, g.num_nodes(),
                     g.num_edges()});
  }
  return infos;
}

std::span<const StandIn> StandIns() {
  static constexpr StandIn kStandIns[] = {
      {"flixster", kFlixsterNodes, &MakeFlixsterLike},
      {"douban-book", kDoubanBookNodes, &MakeDoubanBookLike},
      {"douban-movie", kDoubanMovieNodes, &MakeDoubanMovieLike},
      {"twitter", kTwitterNodes, &MakeTwitterLike},
      {"orkut", kOrkutNodes, &MakeOrkutLike},
  };
  return kStandIns;
}

}  // namespace uic
