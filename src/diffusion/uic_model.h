// The Utility-driven Independent Cascade (UIC) diffusion model (§3.2).
//
// A UIC diffusion proceeds as follows (Fig. 1):
//   * The per-item noise terms are sampled once at the start, fixing the
//     utility of every itemset for the whole diffusion (a *noise world*).
//   * At t=1 each seed node desires its allocated items and adopts the
//     utility-maximizing subset (ties → larger cardinality / union).
//   * At t>1, every node that adopted new items at t−1 tests its untested
//     out-edges (live w.p. p_uv, remembered for the whole diffusion); live
//     edges add the sender's adopted items to the receiver's desire set,
//     and the receiver adopts the utility-maximizing superset of its
//     current adoption within its desire set.
//   * Both desire and adoption are progressive (never shrink).
#pragma once

#include <vector>

#include "common/random.h"
#include "diffusion/allocation.h"
#include "graph/graph.h"
#include "items/utility_table.h"

namespace uic {

/// \brief Outcome of one UIC diffusion in one possible world.
struct UicOutcome {
  /// Sum of adopters' utilities Σ_v U_w(A_v) in this world.
  double welfare = 0.0;
  /// Number of nodes that adopted at least one item.
  size_t num_adopters = 0;
  /// Total item adoptions Σ_v |A_v|.
  size_t num_adoptions = 0;
};

/// \brief Reusable UIC forward simulator.
///
/// Per-node state is one epoch-stamped record, so repeated runs on the same
/// graph cost O(touched state), not O(n + m), per run. Edge outcomes are
/// kept per diffusion in a list of live targets rather than per edge: an
/// out-edge is only ever tested from its source, and a node's first
/// propagation tests all of its out-edges in adjacency order, so the list
/// records them then and every later propagation of the node replays its
/// slice. The RNG draws are exactly one Bernoulli trial per tested edge, in
/// the order the diffusion first reaches it.
class UicSimulator {
 public:
  explicit UicSimulator(const Graph& graph);

  /// Run one diffusion under a fixed noise world (`utilities`) with fresh
  /// edge randomness from `rng`. Returns aggregate outcome.
  UicOutcome Run(const Allocation& allocation, const UtilityTable& utilities,
                 Rng& rng);

  /// As Run(), but also exposes per-node final adoption sets for the nodes
  /// that adopted anything (pairs of node → itemset).
  UicOutcome RunDetailed(const Allocation& allocation,
                         const UtilityTable& utilities, Rng& rng,
                         std::vector<std::pair<NodeId, ItemSet>>* adoptions);

 private:
  /// `NodeState::live` before the node's first propagation in the current
  /// diffusion.
  static constexpr uint32_t kUnpropagated = ~uint32_t{0};

  /// One node's diffusion state; a record whose `epoch` is not the current
  /// one is stale and reads as empty.
  struct NodeState {
    uint32_t epoch = 0;
    ItemSet desire = kEmptyItemSet;
    ItemSet adoption = kEmptyItemSet;
    /// Offset into `live_` of the node's slice: a count, then that many
    /// live out-neighbors in adjacency order.
    uint32_t live = kUnpropagated;
  };

  /// Reset `v`'s record if it is stale. Returns true if it was.
  bool Touch(NodeId v) {
    NodeState& s = state_[v];
    if (s.epoch == epoch_) return false;
    s = {epoch_, kEmptyItemSet, kEmptyItemSet, kUnpropagated};
    return true;
  }

  const Graph& graph_;
  uint32_t epoch_ = 0;
  std::vector<NodeState> state_;
  std::vector<NodeId> live_;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::vector<NodeId> touched_;
};

/// \brief Monte-Carlo estimate of expected social welfare ρ(𝒮) (§3.3).
///
/// Each simulation samples a fresh noise world and fresh edge world.
/// Deterministic in `seed` alone: simulations run on the fixed stream
/// grid of `ParallelForStreams`, so `workers` only affects wall-clock.
struct WelfareEstimate {
  double welfare = 0.0;        ///< mean of ρ_W over sampled worlds
  double std_error = 0.0;        ///< standard error of the mean
  double avg_adopters = 0.0;   ///< mean #nodes adopting ≥ 1 item
  double avg_adoptions = 0.0;  ///< mean Σ_v |A_v|
};

WelfareEstimate EstimateWelfare(const Graph& graph,
                                const Allocation& allocation,
                                const ItemParams& params,
                                size_t num_simulations, uint64_t seed,
                                unsigned workers = 0);

}  // namespace uic
