// Probability-stratified sampling plan for geometric skip-sampling.
//
// The paper's cost model (§4.2.3) charges sampling one unit per in-edge
// *examined*, and every probability scheme the repo ships — weighted
// cascade (uniform 1/din(v) per node), constant, trivalency (≤3 distinct
// values) — gives each node's adjacency only a handful of distinct edge
// probabilities. A `SamplingPlan` materializes that structure once per
// graph so the hot samplers can replace per-edge Bernoulli trials with
// geometric jumps: within a run of edges sharing probability p, the gap
// to the next live edge is floor(log1p(-U)/log1p(-p)) — one RNG draw per
// *success* instead of one per edge (Rng::NextGeometric, common/random.h).
//
// Per node the plan classifies the adjacency slice as
//   * uniform  — one positive probability; the single bucket aliases the
//                graph's own CSR slice (no copy),
//   * bucketed — ≤ kMaxDistinct distinct positive values; a
//                probability-sorted (descending) permutation of the slice
//                with bucket boundaries, stored in the plan,
//   * general  — more distinct values than that; the samplers fall back
//                to per-edge trials for this node.
// Edges with p <= 0 can never fire and are dropped from buckets entirely
// (they still count as examined in EPT accounting — see rr_collection.h).
//
// For the Linear Threshold reverse walk the plan additionally
// precomputes a Vose alias table per node over the outcomes {in-neighbor
// k with prob w_k, none with 1 − Σ w}, replacing the linear cumulative
// scan with an O(1) draw.
//
// A plan is immutable after Build, borrows the graph's CSR arrays (it
// must not outlive the graph, nor survive Apply* reweighting — it is a
// function of the probabilities), and is shared freely across threads.
// The graph owns its plans (`Graph::Plan`): it builds each kind once, on
// the first request, and every consumer — cold collections, stream-cache
// entries, standalone samplers, `EstimateSpread` — borrows that one copy
// for the graph's lifetime. `Build` stays public for benches and tests
// that time or inspect a plan of their own.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"

namespace uic {

/// \brief Which sampling kernel the RR engine / forward simulators run.
///
/// The kernels draw DIFFERENT RNG sequences from the same streams, so the
/// kernel is part of the sampled pool's identity: pools are bit-reproducible
/// per kernel (pure function of graph, options incl. kernel, seed) but only
/// statistically equivalent across kernels.
enum class SamplingKernel : uint8_t {
  kSkip = 0,  ///< geometric skip over the plan (per-node scan fallback)
  kScan = 1,  ///< per-edge Bernoulli trials (the legacy kernel)
};

/// Flag-value spelling ("scan"/"skip").
const char* SamplingKernelName(SamplingKernel k);

/// Parse a flag value; returns false on an unknown spelling.
bool ParseSamplingKernel(const std::string& name, SamplingKernel* out);

/// \brief Immutable per-graph stratification of adjacency probabilities.
class SamplingPlan {
 public:
  /// Which adjacency the plan stratifies: kReverse (in-edges; RR sampling)
  /// or kForward (out-edges; forward IC simulation).
  enum class Direction : uint8_t { kReverse, kForward };

  /// What to precompute (bitmask).
  enum Features : uint32_t {
    kIcBuckets = 1u << 0,  ///< probability buckets for the IC kernels
    kLtAlias = 1u << 1,    ///< alias tables for the LT reverse walk
  };

  /// A maximal run of same-probability edges of one node. `nodes` points
  /// either into the graph's CSR slice (uniform nodes) or into the plan's
  /// probability-sorted permutation (bucketed nodes).
  struct Bucket {
    const NodeId* nodes = nullptr;
    uint32_t size = 0;
    float p = 0.0f;
    double log1p_neg_p = 0.0;  ///< log1p(-p); -inf for p >= 1
  };

  /// More distinct positive probabilities than this per node → kGeneral.
  static constexpr uint32_t kMaxDistinct = 8;

  /// Sentinel returned by SampleLtSource for the "no in-neighbor fires"
  /// outcome (probability 1 − Σ w).
  static constexpr NodeId kNoSource = ~NodeId{0};

  /// Build a plan for `graph`. The plan borrows the graph's CSR arrays.
  /// Consumers borrow `graph.Plan(kind)` instead, which calls this once.
  static std::unique_ptr<const SamplingPlan> Build(const Graph& graph,
                                                   Direction direction,
                                                   uint32_t features);

  Direction direction() const { return direction_; }
  bool has_ic_buckets() const { return (features_ & kIcBuckets) != 0; }
  bool has_lt_alias() const { return (features_ & kLtAlias) != 0; }

  /// True if the samplers must fall back to per-edge trials for `v`.
  bool IsGeneral(NodeId v) const { return general_[v] != 0; }

  /// `v`'s buckets, descending in probability; empty when every edge has
  /// p <= 0 (or v is general — check IsGeneral first).
  std::span<const Bucket> Buckets(NodeId v) const {
    return {buckets_.data() + bucket_off_[v],
            buckets_.data() + bucket_off_[v + 1]};
  }

  /// Draw the LT walk's live in-neighbor of `v`: in-neighbor u with
  /// probability w(u,v), kNoSource with 1 − Σ w. O(1): one bounded draw
  /// plus one uniform (none consumed when v has no in-edges). Requires
  /// has_lt_alias().
  NodeId SampleLtSource(NodeId v, Rng& rng) const {
    const size_t begin = alias_off_[v];
    const size_t count = alias_off_[v + 1] - begin;
    if (count == 0) return kNoSource;
    const size_t slot = begin + rng.NextBounded(count);
    return rng.NextDouble() < alias_prob_[slot] ? alias_first_[slot]
                                                : alias_second_[slot];
  }

  // Classification tallies (tests/instrumentation).
  NodeId num_uniform_nodes() const { return num_uniform_; }
  NodeId num_bucketed_nodes() const { return num_bucketed_; }
  NodeId num_general_nodes() const { return num_general_; }

 private:
  SamplingPlan() = default;

  void BuildBuckets(const Graph& graph);
  void BuildLtAlias(const Graph& graph);

  std::span<const NodeId> Slice(const Graph& graph, NodeId v) const {
    return direction_ == Direction::kReverse ? graph.InNeighbors(v)
                                             : graph.OutNeighbors(v);
  }
  std::span<const float> Probs(const Graph& graph, NodeId v) const {
    return direction_ == Direction::kReverse ? graph.InProbs(v)
                                             : graph.OutProbs(v);
  }

  Direction direction_ = Direction::kReverse;
  uint32_t features_ = 0;

  // IC buckets (feature kIcBuckets).
  std::vector<uint8_t> general_;      ///< per node: fall back to scan
  std::vector<uint32_t> bucket_off_;  ///< per node into buckets_, n+1
  std::vector<Bucket> buckets_;
  std::vector<NodeId> permuted_;  ///< bucketed nodes' sorted slices

  // LT alias tables (feature kLtAlias): per node, deg+1 slots over the
  // outcomes {each in-neighbor, none}, stored as resolved NodeIds.
  std::vector<size_t> alias_off_;  ///< per node into the slot arrays, n+1
  std::vector<double> alias_prob_;
  std::vector<NodeId> alias_first_;
  std::vector<NodeId> alias_second_;

  NodeId num_uniform_ = 0;
  NodeId num_bucketed_ = 0;
  NodeId num_general_ = 0;
};

}  // namespace uic
