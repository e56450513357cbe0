#include "comic/comic_model.h"

#include "common/check.h"

namespace uic {

ComIcSimulator::ComIcSimulator(const Graph& graph, const TwoItemGap& gap)
    : graph_(graph),
      gap_(gap),
      node_epoch_(graph.num_nodes(), 0),
      state_(graph.num_nodes(), 0),
      edge_epoch_(graph.num_edges(), 0),
      edge_live_(graph.num_edges(), 0) {}

ComIcOutcome ComIcSimulator::Run(const std::vector<NodeId>& seeds_a,
                                 const std::vector<NodeId>& seeds_b, Rng& rng,
                                 std::vector<uint32_t>* b_adoption_counts) {
  ++epoch_;
  ComIcOutcome outcome;
  frontier_.clear();
  touched_.clear();

  auto touch = [&](NodeId v) {
    if (node_epoch_[v] != epoch_) {
      node_epoch_[v] = epoch_;
      state_[v] = 0;
      touched_.push_back(v);
    }
  };

  // Deliver item `a_item` information to v; returns true if v's adoption
  // state changed (so it must (re)enter the frontier).
  auto inform = [&](NodeId v, bool is_a) -> bool {
    touch(v);
    uint8_t& st = state_[v];
    const uint8_t informed_bit = is_a ? kAInformed : kBInformed;
    const uint8_t adopted_bit = is_a ? kAAdopted : kBAdopted;
    const uint8_t other_adopted = is_a ? kBAdopted : kAAdopted;
    bool changed = false;
    if (!(st & informed_bit)) {
      st |= informed_bit;
      const double q_alone = is_a ? gap_.q1_none : gap_.q2_none;
      const double q_boosted = is_a ? gap_.q1_given2 : gap_.q2_given1;
      const double q = (st & other_adopted) ? q_boosted : q_alone;
      if (rng.NextBernoulli(q)) {
        st |= adopted_bit;
        changed = true;
      }
    }
    if (changed && (st & adopted_bit)) {
      // Reconsideration of the *other* item: v adopting this item may
      // upgrade a previously declined decision on the other item.
      const uint8_t other_informed = is_a ? kBInformed : kAInformed;
      const uint8_t other_adopted_bit = is_a ? kBAdopted : kAAdopted;
      if ((st & other_informed) && !(st & other_adopted_bit)) {
        const double q0 = is_a ? gap_.q2_none : gap_.q1_none;
        const double q1 = is_a ? gap_.q2_given1 : gap_.q1_given2;
        if (q1 > q0 && q0 < 1.0) {
          const double upgrade = (q1 - q0) / (1.0 - q0);
          if (rng.NextBernoulli(upgrade)) st |= other_adopted_bit;
        }
      }
    }
    return changed;
  };

  for (NodeId v : seeds_a) {
    if (inform(v, /*is_a=*/true)) frontier_.push_back(v);
  }
  for (NodeId v : seeds_b) {
    if (inform(v, /*is_a=*/false)) frontier_.push_back(v);
  }

  while (!frontier_.empty()) {
    next_.clear();
    for (NodeId u : frontier_) {
      const uint8_t sent = state_[u] & (kAAdopted | kBAdopted);
      auto nbrs = graph_.OutNeighbors(u);
      auto probs = graph_.OutProbs(u);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const size_t e = graph_.OutEdgeIndex(u, static_cast<uint32_t>(k));
        if (edge_epoch_[e] != epoch_) {
          edge_epoch_[e] = epoch_;
          edge_live_[e] = rng.NextBernoulli(probs[k]) ? 1 : 0;
        }
        if (!edge_live_[e]) continue;
        const NodeId v = nbrs[k];
        bool changed = false;
        if (sent & kAAdopted) changed |= inform(v, /*is_a=*/true);
        if (sent & kBAdopted) changed |= inform(v, /*is_a=*/false);
        if (changed) next_.push_back(v);
      }
    }
    frontier_.swap(next_);
  }

  // Tally over the reached nodes only, so a small cascade costs O(touched),
  // not O(n).
  for (NodeId v : touched_) {
    if (state_[v] & kAAdopted) ++outcome.adopted_a;
    if (state_[v] & kBAdopted) {
      ++outcome.adopted_b;
      if (b_adoption_counts) ++(*b_adoption_counts)[v];
    }
  }
  return outcome;
}

}  // namespace uic
