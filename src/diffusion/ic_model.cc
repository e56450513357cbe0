#include "diffusion/ic_model.h"

#include <atomic>

#include "common/check.h"
#include "common/parallel.h"

namespace uic {

IcSimulator::IcSimulator(const Graph& graph, const SamplingPlan* plan)
    : graph_(graph), plan_(plan), visited_epoch_(graph.num_nodes(), 0) {
  if (plan_ != nullptr) {
    UIC_CHECK(plan_->direction() == SamplingPlan::Direction::kForward);
    UIC_CHECK(plan_->has_ic_buckets());
  }
}

void IcSimulator::TryActivate(NodeId v, std::vector<NodeId>* activated_out,
                              size_t* activated) {
  if (visited_epoch_[v] == epoch_) return;
  visited_epoch_[v] = epoch_;
  next_.push_back(v);
  ++*activated;
  if (activated_out) activated_out->push_back(v);
}

size_t IcSimulator::RunOnce(const std::vector<NodeId>& seeds, Rng& rng,
                            std::vector<NodeId>* activated_out) {
  ++epoch_;
  if (activated_out) activated_out->clear();
  frontier_.clear();
  size_t activated = 0;
  for (NodeId s : seeds) {
    if (visited_epoch_[s] == epoch_) continue;
    visited_epoch_[s] = epoch_;
    frontier_.push_back(s);
    ++activated;
    if (activated_out) activated_out->push_back(s);
  }
  while (!frontier_.empty()) {
    next_.clear();
    for (NodeId u : frontier_) {
      if (plan_ != nullptr && !plan_->IsGeneral(u)) {
        // Skip kernel: geometric jumps over each probability bucket of
        // u's out-adjacency (same cascade distribution as the scan; see
        // sampling_plan.h).
        for (const SamplingPlan::Bucket& b : plan_->Buckets(u)) {
          size_t i = rng.NextGeometric(b.log1p_neg_p);
          while (i < b.size) {
            TryActivate(b.nodes[i], activated_out, &activated);
            if (i + 1 >= b.size) break;  // no edges left: no closing draw
            i += 1 + rng.NextGeometric(b.log1p_neg_p);
          }
        }
        continue;
      }
      auto nbrs = graph_.OutNeighbors(u);
      auto probs = graph_.OutProbs(u);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const NodeId v = nbrs[k];
        if (visited_epoch_[v] == epoch_) continue;
        if (!rng.NextBernoulli(probs[k])) continue;
        visited_epoch_[v] = epoch_;
        next_.push_back(v);
        ++activated;
        if (activated_out) activated_out->push_back(v);
      }
    }
    frontier_.swap(next_);
  }
  return activated;
}

double EstimateSpread(const Graph& graph, const std::vector<NodeId>& seeds,
                      size_t num_simulations, uint64_t seed, unsigned workers,
                      SamplingKernel kernel) {
  if (num_simulations == 0) return 0.0;
  // The graph's forward plan, looked up once and shared (read-only) by
  // every stream's simulator.
  const SamplingPlan* plan = nullptr;
  if (kernel == SamplingKernel::kSkip) {
    plan = &graph.Plan(Graph::PlanKind::kForwardIc);
  }
  std::atomic<uint64_t> total{0};
  ParallelForStreams(num_simulations, workers,
                     [&](unsigned s, size_t begin, size_t end) {
                       IcSimulator sim(graph, plan);
                       Rng rng = Rng::Split(seed, s);
                       uint64_t local = 0;
                       for (size_t i = begin; i < end; ++i) {
                         local += sim.RunOnce(seeds, rng);
                       }
                       total.fetch_add(local, std::memory_order_relaxed);
                     });
  return static_cast<double>(total.load()) /
         static_cast<double>(num_simulations);
}

}  // namespace uic
