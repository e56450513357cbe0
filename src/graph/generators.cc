#include "graph/generators.h"

#include <unordered_set>

#include "common/check.h"
#include "common/random.h"

namespace uic {

Graph GenerateErdosRenyi(NodeId n, size_t m, uint64_t seed) {
  UIC_CHECK_GT(n, 1u);
  Rng rng(seed);
  GraphBuilder builder(n);
  // Clamp before reserving: an over-asked m becomes the complete graph.
  const size_t max_possible = static_cast<size_t>(n) * (n - 1);
  if (m > max_possible) m = max_possible;
  std::unordered_set<uint64_t> used;
  used.reserve(m * 2);
  size_t added = 0;
  while (added < m) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
    if (!used.insert(key).second) continue;
    builder.AddEdge(u, v);
    ++added;
  }
  auto result = builder.Build();
  UIC_CHECK(result.ok());
  return result.MoveValue();
}

Graph GeneratePreferentialAttachment(NodeId n, uint32_t out_per_node,
                                     bool undirected, uint64_t seed) {
  UIC_CHECK_GT(n, out_per_node);
  Rng rng(seed);
  GraphBuilder builder(n);
  // `targets` holds one entry per unit of attachment mass; sampling an
  // element uniformly implements preferential attachment.
  std::vector<NodeId> mass;
  mass.reserve(static_cast<size_t>(n) * (out_per_node + 1));
  const NodeId seed_clique = out_per_node + 1;
  for (NodeId u = 0; u < seed_clique; ++u) {
    for (NodeId v = 0; v < seed_clique; ++v) {
      if (u == v) continue;
      builder.AddEdge(u, v);
    }
    mass.push_back(u);
    mass.push_back(u);
  }
  // `chosen` filters duplicates; `picks` preserves RNG draw order so the
  // emitted edges (and the interleaved back-edge coin flips below) are a
  // pure function of the seed. Iterating the unordered_set here would tie
  // the graph to the standard library's hash iteration order (UIC-L006).
  std::unordered_set<NodeId> chosen;
  std::vector<NodeId> picks;
  picks.reserve(out_per_node);
  for (NodeId u = seed_clique; u < n; ++u) {
    chosen.clear();
    picks.clear();
    while (chosen.size() < out_per_node) {
      const NodeId t = mass[rng.NextBounded(mass.size())];
      if (t == u) continue;
      if (chosen.insert(t).second) picks.push_back(t);
    }
    for (NodeId t : picks) {
      if (undirected) {
        builder.AddUndirectedEdge(u, t);
      } else {
        builder.AddEdge(u, t);
        // Keep the digraph weakly connected and heavy-tailed in in-degree:
        // occasionally add a back-edge too.
        if (rng.NextBernoulli(0.3)) builder.AddEdge(t, u);
      }
      mass.push_back(t);
    }
    mass.push_back(u);
  }
  auto result = builder.Build();
  UIC_CHECK(result.ok());
  return result.MoveValue();
}

Graph GenerateWattsStrogatz(NodeId n, uint32_t k, double rewire_prob,
                            uint64_t seed) {
  UIC_CHECK_GT(n, 2 * k);
  Rng rng(seed);
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (uint32_t j = 1; j <= k; ++j) {
      NodeId v = (u + j) % n;
      if (rng.NextBernoulli(rewire_prob)) {
        do {
          v = static_cast<NodeId>(rng.NextBounded(n));
        } while (v == u);
      }
      builder.AddUndirectedEdge(u, v);
    }
  }
  auto result = builder.Build();
  UIC_CHECK(result.ok());
  return result.MoveValue();
}

Graph GenerateGrid(uint32_t rows, uint32_t cols) {
  UIC_CHECK_GT(rows, 0u);
  UIC_CHECK_GT(cols, 0u);
  const NodeId n = rows * cols;
  GraphBuilder builder(n);
  auto id = [cols](uint32_t r, uint32_t c) { return r * cols + c; };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddUndirectedEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddUndirectedEdge(id(r, c), id(r + 1, c));
    }
  }
  auto result = builder.Build();
  UIC_CHECK(result.ok());
  return result.MoveValue();
}

Graph GenerateLayeredDag(uint32_t layers, uint32_t width, double prob) {
  UIC_CHECK_GT(layers, 0u);
  UIC_CHECK_GT(width, 0u);
  const NodeId n = layers * width;
  GraphBuilder builder(n);
  for (uint32_t l = 0; l + 1 < layers; ++l) {
    for (uint32_t a = 0; a < width; ++a) {
      for (uint32_t b = 0; b < width; ++b) {
        builder.AddEdge(l * width + a, (l + 1) * width + b, prob);
      }
    }
  }
  auto result = builder.Build();
  UIC_CHECK(result.ok());
  return result.MoveValue();
}

}  // namespace uic
