#include "diffusion/lt_model.h"

#include "common/check.h"
#include "common/parallel.h"

namespace uic {

namespace {

/// Sample one live in-neighbor of `v` (LT live-edge distribution): pick
/// in-neighbor u with probability w(u,v), none with 1 − Σ w.
NodeId SampleLiveSource(const Graph& graph, NodeId v, Rng& rng) {
  auto srcs = graph.InNeighbors(v);
  auto probs = graph.InProbs(v);
  if (srcs.empty()) return ~NodeId{0};
  double r = rng.NextDouble();
  for (size_t k = 0; k < srcs.size(); ++k) {
    if (r < probs[k]) return srcs[k];
    r -= probs[k];
  }
  return ~NodeId{0};
}

}  // namespace

LtSimulator::LtSimulator(const Graph& graph)
    : graph_(graph),
      visited_epoch_(graph.num_nodes(), 0),
      live_epoch_(graph.num_nodes(), 0),
      live_src_(graph.num_nodes(), kNone) {}

bool LtSimulator::LiveInNeighbor(NodeId v, Rng& rng, NodeId* src) {
  if (live_epoch_[v] != epoch_) {
    live_epoch_[v] = epoch_;
    live_src_[v] = SampleLiveSource(graph_, v, rng);
  }
  *src = live_src_[v];
  return live_src_[v] != kNone;
}

size_t LtSimulator::RunOnce(const std::vector<NodeId>& seeds, Rng& rng) {
  ++epoch_;
  frontier_.clear();
  size_t activated = 0;
  for (NodeId s : seeds) {
    if (visited_epoch_[s] == epoch_) continue;
    visited_epoch_[s] = epoch_;
    frontier_.push_back(s);
    ++activated;
  }
  while (!frontier_.empty()) {
    next_.clear();
    for (NodeId u : frontier_) {
      for (NodeId v : graph_.OutNeighbors(u)) {
        if (visited_epoch_[v] == epoch_) continue;
        NodeId src;
        if (!LiveInNeighbor(v, rng, &src) || src != u) continue;
        visited_epoch_[v] = epoch_;
        next_.push_back(v);
        ++activated;
      }
    }
    frontier_.swap(next_);
  }
  return activated;
}

double EstimateSpreadLt(const Graph& graph, const std::vector<NodeId>& seeds,
                        size_t num_simulations, uint64_t seed,
                        unsigned workers) {
  if (num_simulations == 0) return 0.0;
  std::vector<double> totals(kRngStreams, 0.0);
  ParallelForStreams(num_simulations, workers,
                     [&](unsigned s, size_t begin, size_t end) {
                       LtSimulator sim(graph);
                       Rng rng = Rng::Split(seed, s);
                       double local = 0.0;
                       for (size_t i = begin; i < end; ++i) {
                         local += static_cast<double>(sim.RunOnce(seeds, rng));
                       }
                       totals[s] = local;
                     });
  double total = 0.0;
  for (double t : totals) total += t;
  return total / static_cast<double>(num_simulations);
}

UicLtSimulator::UicLtSimulator(const Graph& graph)
    : graph_(graph),
      node_epoch_(graph.num_nodes(), 0),
      desire_(graph.num_nodes(), 0),
      adoption_(graph.num_nodes(), 0),
      live_epoch_(graph.num_nodes(), 0),
      live_src_(graph.num_nodes(), kNone) {}

bool UicLtSimulator::LiveInNeighbor(NodeId v, Rng& rng, NodeId* src) {
  if (live_epoch_[v] != epoch_) {
    live_epoch_[v] = epoch_;
    live_src_[v] = SampleLiveSource(graph_, v, rng);
  }
  *src = live_src_[v];
  return live_src_[v] != kNone;
}

UicOutcome UicLtSimulator::Run(const Allocation& allocation,
                               const UtilityTable& utilities, Rng& rng) {
  ++epoch_;
  frontier_.clear();
  touched_.clear();
  UicOutcome outcome;

  for (const auto& [v, items] : allocation.entries()) {
    Touch(v);
    desire_[v] |= items;
    touched_.push_back(v);
  }
  for (const auto& [v, items] : allocation.entries()) {
    const ItemSet best = utilities.BestAdoption(adoption_[v], desire_[v]);
    if (best != adoption_[v]) {
      adoption_[v] = best;
      frontier_.push_back(v);
    }
  }

  while (!frontier_.empty()) {
    next_.clear();
    for (NodeId u : frontier_) {
      const ItemSet send = adoption_[u];
      for (NodeId v : graph_.OutNeighbors(u)) {
        NodeId src;
        if (!LiveInNeighbor(v, rng, &src) || src != u) continue;
        if (node_epoch_[v] != epoch_) {
          Touch(v);
          touched_.push_back(v);
        }
        if (IsSubset(send, desire_[v])) continue;
        desire_[v] |= send;
        const ItemSet best = utilities.BestAdoption(adoption_[v], desire_[v]);
        if (best != adoption_[v]) {
          adoption_[v] = best;
          next_.push_back(v);
        }
      }
    }
    frontier_.swap(next_);
  }

  for (NodeId v : touched_) {
    const ItemSet a = adoption_[v];
    if (a == kEmptyItemSet) continue;
    outcome.welfare += utilities.Utility(a);
    outcome.num_adopters += 1;
    outcome.num_adoptions += Cardinality(a);
  }
  return outcome;
}

}  // namespace uic
