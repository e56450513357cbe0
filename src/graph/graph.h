// Immutable directed influence graph in CSR form.
//
// The graph stores both forward (out-neighbor) and reverse (in-neighbor)
// adjacency because the two main consumers need opposite directions:
// forward Monte-Carlo diffusion walks out-edges, while reverse-reachable
// (RR) set sampling walks in-edges. Edge influence probabilities are kept
// alongside the adjacency in edge-parallel arrays.
//
// The graph is also the one owner of the sampling plans derived from its
// adjacency (graph/sampling_plan.h): each kind is built on first request
// and every consumer borrows it for the graph's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace uic {

using NodeId = uint32_t;

class SamplingPlan;

/// \brief A weighted directed edge used during graph construction.
struct Edge {
  NodeId from = 0;
  NodeId to = 0;
  double prob = 0.0;
};

/// \brief Immutable directed graph with per-edge influence probabilities.
///
/// Nodes are dense ids `[0, num_nodes)`. Use `GraphBuilder` (or the loaders
/// and generators) to construct one. Copying is allowed but the intended
/// usage is to build once and share by const reference.
///
/// A plan points into the CSR arrays of the graph that built it, so:
///   * a copy starts with no plans (it builds its own on request);
///   * a move carries the plans along with the arrays they point into; the
///     moved-from graph may only be assigned to or destroyed;
///   * the Apply* re-weighting mutators drop the plans, which are a
///     function of the probabilities. Like any mutation they must not
///     run while another thread reads the graph or holds one of its
///     plans.
class Graph {
 public:
  /// The sampling plans a graph derives, one of each kind at most.
  enum class PlanKind : uint8_t {
    kReverseIc,  ///< in-edge probability buckets: IC RR sampling
    kReverseLt,  ///< in-edge alias tables: LT RR sampling
    kForwardIc,  ///< out-edge probability buckets: forward IC simulation
  };

  Graph();
  ~Graph();
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  NodeId num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return out_targets_.size(); }

  /// Average out-degree (== average in-degree).
  double AverageDegree() const {
    return num_nodes_ == 0
               ? 0.0
               : static_cast<double>(num_edges()) / static_cast<double>(num_nodes_);
  }

  uint32_t OutDegree(NodeId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  uint32_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Out-neighbors of `u`, parallel to `OutProbs(u)`.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }
  std::span<const float> OutProbs(NodeId u) const {
    return {out_probs_.data() + out_offsets_[u],
            out_probs_.data() + out_offsets_[u + 1]};
  }

  /// In-neighbors of `v`, parallel to `InProbs(v)`.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }
  std::span<const float> InProbs(NodeId v) const {
    return {in_probs_.data() + in_offsets_[v],
            in_probs_.data() + in_offsets_[v + 1]};
  }

  /// Global edge index of the k-th out-edge of u (stable identifier usable
  /// for edge-status memoization during one diffusion).
  size_t OutEdgeIndex(NodeId u, uint32_t k) const { return out_offsets_[u] + k; }

  /// Reassign every edge probability to `1/din(target)` (the weighted
  /// cascade scheme the paper uses as default).
  void ApplyWeightedCascade();

  /// Reassign every edge probability to a constant.
  void ApplyConstantProbability(double p);

  /// Reassign each edge probability uniformly at random from `choices`
  /// (the classic trivalency scheme), deterministically from `seed`.
  void ApplyTrivalency(const std::vector<double>& choices, uint64_t seed);

  /// Human-readable one-line summary (n, m, avg degree).
  std::string Summary() const;

  /// The graph's plan of `kind`, built by the first request (serially,
  /// under a lock that only the plan's own kind shares) and then returned
  /// to every caller. Safe to call concurrently. The plan lives until the
  /// graph is destroyed or re-weighted; callers look it up once per pool,
  /// collection or estimate, not per sample.
  const SamplingPlan& Plan(PlanKind kind) const;

 private:
  friend class GraphBuilder;

  struct PlanSlots;  // defined in graph.cc

  NodeId num_nodes_ = 0;
  // CSR forward adjacency.
  std::vector<uint32_t> out_offsets_;  // size num_nodes_+1
  std::vector<NodeId> out_targets_;
  std::vector<float> out_probs_;
  // CSR reverse adjacency.
  std::vector<uint32_t> in_offsets_;  // size num_nodes_+1
  std::vector<NodeId> in_sources_;
  std::vector<float> in_probs_;
  // Lazily built plans; null only in a moved-from graph.
  std::unique_ptr<PlanSlots> plans_;
};

/// \brief Accumulates edges and assembles an immutable `Graph`.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Add a directed edge. Self-loops are ignored; duplicate edges are
  /// deduplicated at Build() time (keeping the maximum probability).
  void AddEdge(NodeId from, NodeId to, double prob = 0.0) {
    if (from == to) return;
    edges_.push_back({from, to, prob});
  }

  /// Add both directions (for undirected source data).
  void AddUndirectedEdge(NodeId a, NodeId b, double prob = 0.0) {
    AddEdge(a, b, prob);
    AddEdge(b, a, prob);
  }

  size_t num_pending_edges() const { return edges_.size(); }

  /// Assemble the CSR structures. Fails if an endpoint is out of range,
  /// or if num_nodes + 1 or the edge count overflows the uint32_t offsets.
  [[nodiscard]] Result<Graph> Build();

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

}  // namespace uic
