#include "diffusion/uic_model.h"

#include <cmath>
#include <span>

#include "common/check.h"
#include "common/parallel.h"
#include "diffusion/lt_model.h"

namespace uic {

namespace {

/// Frontier positions ahead of the current node whose out-adjacency is
/// prefetched.
constexpr size_t kPrefetchDistance = 4;

}  // namespace

UicSimulator::UicSimulator(const Graph& graph)
    : graph_(graph), state_(graph.num_nodes()) {}

UicOutcome UicSimulator::Run(const Allocation& allocation,
                             const UtilityTable& utilities, Rng& rng) {
  return RunDetailed(allocation, utilities, rng, nullptr);
}

UicOutcome UicSimulator::RunDetailed(
    const Allocation& allocation, const UtilityTable& utilities, Rng& rng,
    std::vector<std::pair<NodeId, ItemSet>>* adoptions) {
  ++epoch_;
  frontier_.clear();
  touched_.clear();
  live_.clear();
  UicOutcome outcome;

  // t = 1: seeds desire their allocated items and adopt the best subset.
  for (const auto& [v, items] : allocation.entries()) {
    UIC_DCHECK(v < graph_.num_nodes());
    Touch(v);
    state_[v].desire |= items;
    touched_.push_back(v);
  }
  for (const auto& [v, items] : allocation.entries()) {
    NodeState& s = state_[v];
    const ItemSet best = utilities.BestAdoption(s.adoption, s.desire);
    if (best != s.adoption) {
      s.adoption = best;
      frontier_.push_back(v);
    }
  }

  // t > 1: adopters send their adoption over live out-edges; receivers
  // re-optimize their adoption.
  while (!frontier_.empty()) {
    next_.clear();
    for (size_t i = 0; i < frontier_.size(); ++i) {
      if (i + kPrefetchDistance < frontier_.size()) {
        const NodeId ahead = frontier_[i + kPrefetchDistance];
        __builtin_prefetch(graph_.OutNeighbors(ahead).data());
        __builtin_prefetch(graph_.OutProbs(ahead).data());
      }
      const NodeId u = frontier_[i];
      NodeState& su = state_[u];
      const ItemSet send = su.adoption;
      if (su.live == kUnpropagated) {
        // First propagation: test every out-edge once, in adjacency order
        // (Fig. 1 step 1), and remember the live ones for the rest of the
        // diffusion.
        UIC_DCHECK(live_.size() < kUnpropagated);
        su.live = static_cast<uint32_t>(live_.size());
        live_.push_back(0);
        auto nbrs = graph_.OutNeighbors(u);
        auto probs = graph_.OutProbs(u);
        for (size_t k = 0; k < nbrs.size(); ++k) {
          if (!rng.NextBernoulli(probs[k])) continue;
          __builtin_prefetch(&state_[nbrs[k]]);
          live_.push_back(nbrs[k]);
        }
        live_[su.live] = static_cast<NodeId>(live_.size() - su.live - 1);
      }
      const NodeId* live = live_.data() + su.live;
      for (const NodeId v : std::span(live + 1, live[0])) {
        NodeState& sv = state_[v];
        if (Touch(v)) touched_.push_back(v);
        if (IsSubset(send, sv.desire)) continue;  // nothing new to desire
        sv.desire |= send;
        const ItemSet best = utilities.BestAdoption(sv.adoption, sv.desire);
        if (best != sv.adoption) {
          sv.adoption = best;
          // Re-activate v so it (re-)propagates its enlarged adoption set.
          next_.push_back(v);
        }
      }
    }
    frontier_.swap(next_);
  }

  if (adoptions) adoptions->clear();
  for (NodeId v : touched_) {
    const ItemSet a = state_[v].adoption;
    if (a == kEmptyItemSet) continue;
    outcome.welfare += utilities.Utility(a);
    outcome.num_adopters += 1;
    outcome.num_adoptions += Cardinality(a);
    if (adoptions) adoptions->emplace_back(v, a);
  }
  return outcome;
}

namespace {

/// The Monte-Carlo welfare driver behind `EstimateWelfare` and
/// `EstimateWelfareLt`: one `Simulator` per stream, a fresh noise world
/// and edge world per simulation.
template <typename Simulator>
WelfareEstimate EstimateWelfareWith(const Graph& graph,
                                    const Allocation& allocation,
                                    const ItemParams& params,
                                    size_t num_simulations, uint64_t seed,
                                    unsigned workers) {
  WelfareEstimate estimate;
  if (num_simulations == 0) return estimate;

  struct Accum {
    double sum = 0.0;
    double sum_sq = 0.0;
    double adopters = 0.0;
    double adoptions = 0.0;
  };
  // Fixed-grid stream partition + serial stream-order reduction: the
  // estimate is bit-identical at any worker count (see parallel.h).
  std::vector<Accum> per_stream(kRngStreams);

  ParallelForStreams(num_simulations, workers,
                     [&](unsigned s, size_t begin, size_t end) {
                       Simulator sim(graph);
                       Rng rng = Rng::Split(seed, s);
                       Accum acc;
                       // Noise buffer and table hoisted out of the loop:
                       // per simulation only the draws and the in-place
                       // rebuild remain (identical values and RNG
                       // sequence to fresh construction).
                       std::vector<double> noise;
                       UtilityTable table(params);
                       for (size_t i = begin; i < end; ++i) {
                         params.noise().Sample(rng, &noise);
                         table.Rebuild(params, noise);
                         const UicOutcome out = sim.Run(allocation, table, rng);
                         acc.sum += out.welfare;
                         acc.sum_sq += out.welfare * out.welfare;
                         acc.adopters += static_cast<double>(out.num_adopters);
                         acc.adoptions +=
                             static_cast<double>(out.num_adoptions);
                       }
                       per_stream[s] = acc;
                     });

  Accum total;
  for (const Accum& a : per_stream) {
    total.sum += a.sum;
    total.sum_sq += a.sum_sq;
    total.adopters += a.adopters;
    total.adoptions += a.adoptions;
  }
  const double n = static_cast<double>(num_simulations);
  estimate.welfare = total.sum / n;
  const double var =
      n > 1 ? (total.sum_sq - total.sum * total.sum / n) / (n - 1) : 0.0;
  estimate.std_error = var > 0 ? std::sqrt(var / n) : 0.0;
  estimate.avg_adopters = total.adopters / n;
  estimate.avg_adoptions = total.adoptions / n;
  return estimate;
}

}  // namespace

WelfareEstimate EstimateWelfare(const Graph& graph,
                                const Allocation& allocation,
                                const ItemParams& params,
                                size_t num_simulations, uint64_t seed,
                                unsigned workers) {
  return EstimateWelfareWith<UicSimulator>(graph, allocation, params,
                                           num_simulations, seed, workers);
}

WelfareEstimate EstimateWelfareLt(const Graph& graph,
                                  const Allocation& allocation,
                                  const ItemParams& params,
                                  size_t num_simulations, uint64_t seed,
                                  unsigned workers) {
  return EstimateWelfareWith<UicLtSimulator>(graph, allocation, params,
                                             num_simulations, seed, workers);
}

}  // namespace uic
