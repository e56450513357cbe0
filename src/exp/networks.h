// Stand-ins for the paper's five evaluation networks (Table 2).
//
// The crawled datasets (Flixster, Douban-Book, Douban-Movie, Twitter,
// Orkut) are not redistributable offline; we substitute synthetic
// preferential-attachment graphs with matching directedness and average
// degree, scaled to laptop size for the two giant networks (table2 in
// bench_figures). Every constructor applies the weighted-cascade default
// p(u,v) = 1/din(v) of the paper; callers can re-weight afterwards.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace uic {

/// \brief Named network description for experiment tables.
struct NetworkInfo {
  std::string name;
  bool directed = true;
  NodeId paper_nodes = 0;    ///< size in the paper
  size_t paper_edges = 0;
  NodeId built_nodes = 0;    ///< size of our stand-in
  size_t built_edges = 0;
};

/// Flixster: undirected, 7.6K nodes, avg degree 9.4 (full size).
Graph MakeFlixsterLike(uint64_t seed, double scale = 1.0);

/// Douban-Book: directed, 23.3K nodes, avg degree 6.5 (full size).
Graph MakeDoubanBookLike(uint64_t seed, double scale = 1.0);

/// Douban-Movie: directed, 34.9K nodes, avg degree 7.9 (full size).
Graph MakeDoubanMovieLike(uint64_t seed, double scale = 1.0);

/// Twitter: directed, 41.7M nodes in the paper — built at `scale` times
/// a 40K-node stand-in with elevated average degree (~30).
Graph MakeTwitterLike(uint64_t seed, double scale = 1.0);

/// Orkut: undirected, 3.07M nodes in the paper — built at `scale` times a
/// 30K-node dense stand-in (~40 avg degree).
Graph MakeOrkutLike(uint64_t seed, double scale = 1.0);

/// Table-2 style descriptors for all five stand-ins (builds them).
std::vector<NetworkInfo> DescribeAllNetworks(uint64_t seed, double scale);

/// \brief A stand-in by the name `uic_run --network` and the daemon's
/// `load_graph` give it.
struct StandIn {
  const char* name;   ///< flixster | douban-book | ... | orkut
  NodeId base_nodes;  ///< node count at scale 1
  Graph (*make)(uint64_t seed, double scale);
};

/// The five stand-ins. Each builds max(64, ⌊base_nodes · scale⌋) nodes;
/// a `scale` whose node count is not in [0, 2^32 − 1) fails a CHECK, so
/// callers with an outside scale test it against `base_nodes` first
/// (exp/specs.h does).
std::span<const StandIn> StandIns();

}  // namespace uic
