// Synthetic network generators.
//
// The paper evaluates on five crawled networks (Flixster, Douban-Book,
// Douban-Movie, Twitter, Orkut). Those datasets are not redistributable
// offline, so the experiment harness substitutes synthetic graphs with
// matching density and a heavy-tailed degree distribution (exp/networks.h
// builds the five stand-ins). Real SNAP edge lists can still be used via
// `LoadEdgeList` in loaders.h.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace uic {

/// \brief G(n, m) Erdős–Rényi digraph: `m` directed edges chosen uniformly.
Graph GenerateErdosRenyi(NodeId n, size_t m, uint64_t seed);

/// \brief Preferential-attachment (Barabási–Albert style) graph.
///
/// Each new node attaches `out_per_node` out-edges to existing nodes chosen
/// preferentially by current in-degree (plus one smoothing). If
/// `undirected` is true each attachment adds both directions, yielding the
/// degree profile of the paper's undirected networks (Flixster, Orkut).
Graph GeneratePreferentialAttachment(NodeId n, uint32_t out_per_node,
                                     bool undirected, uint64_t seed);

/// \brief Watts–Strogatz small world (ring lattice + rewiring), directed.
Graph GenerateWattsStrogatz(NodeId n, uint32_t k, double rewire_prob,
                            uint64_t seed);

/// \brief 2D grid with edges in both directions (useful in tests: known
/// reachability structure).
Graph GenerateGrid(uint32_t rows, uint32_t cols);

/// \brief Complete DAG layered graph used by tests (deterministic paths).
Graph GenerateLayeredDag(uint32_t layers, uint32_t width, double prob);

}  // namespace uic
