#include "core/mc_greedy.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"

namespace uic {

AllocationResult McGreedyAllocate(const Graph& graph,
                                  const std::vector<uint32_t>& budgets,
                                  const ItemParams& params,
                                  const SolverOptions& options) {
  WallTimer timer;
  AllocationResult result;
  const ItemId num_items = static_cast<ItemId>(budgets.size());
  UIC_CHECK_EQ(num_items, params.num_items());

  std::vector<NodeId> candidates = options.mc_greedy.candidates;
  if (candidates.empty()) {
    candidates.resize(graph.num_nodes());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) candidates[v] = v;
  }

  auto eval = [&](const Allocation& alloc) {
    return EstimateWelfare(graph, alloc, params,
                           options.mc_greedy.simulations_per_eval,
                           options.seed, options.workers)
        .welfare;
  };

  std::vector<uint32_t> remaining(budgets);
  size_t total_budget = 0;
  for (uint32_t b : budgets) total_budget += b;

  // Plain greedy with FULL re-evaluation each round.
  //
  // NOTE: CELF-style lazy evaluation is deliberately NOT used. Lazy
  // pruning is only sound when marginal gains can never increase — i.e.
  // for submodular objectives. UIC welfare is neither submodular nor
  // supermodular (Theorem 1): allocating item i2 to a node that already
  // holds its complement i1 can have a *larger* gain than it had against
  // the empty allocation, so a stale heap entry may hide the true
  // maximum. Exhaustive re-evaluation keeps the greedy correct at
  // O(b · n · |I|) welfare estimations — fine for the small reference
  // instances this algorithm is meant for.
  Allocation current;
  double current_welfare = 0.0;
  std::vector<std::vector<bool>> taken(
      num_items, std::vector<bool>(graph.num_nodes(), false));

  for (size_t picked = 0; picked < total_budget; ++picked) {
    double best_gain = -1.0;
    NodeId best_node = 0;
    ItemId best_item = 0;
    bool found = false;
    for (NodeId v : candidates) {
      for (ItemId i = 0; i < num_items; ++i) {
        if (remaining[i] == 0 || taken[i][v]) continue;
        Allocation probe = current;
        probe.AddItem(v, i);
        const double gain = eval(probe) - current_welfare;
        if (!found || gain > best_gain) {
          best_gain = gain;
          best_node = v;
          best_item = i;
          found = true;
        }
      }
    }
    if (!found) break;
    current.AddItem(best_node, best_item);
    taken[best_item][best_node] = true;
    --remaining[best_item];
    current_welfare += best_gain;
  }

  result.allocation = current;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace uic
