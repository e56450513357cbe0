// Classic single-item Independent Cascade (IC) simulation (§2.1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "graph/sampling_plan.h"

namespace uic {

/// \brief Reusable IC forward simulator (buffers amortized across runs).
///
/// With a forward-direction `SamplingPlan` (kIcBuckets) the simulator
/// tests out-edges by geometric skip-sampling instead of per-edge trials
/// — same cascade distribution, different RNG draw sequence (see
/// graph/sampling_plan.h). With `plan == nullptr` it runs the legacy
/// per-edge scan. The plan must be this graph's (`graph.Plan(
/// Graph::PlanKind::kForwardIc)`, or one built for it) and outlive the
/// simulator.
class IcSimulator {
 public:
  explicit IcSimulator(const Graph& graph,
                       const SamplingPlan* plan = nullptr);

  /// Run one cascade from `seeds`; returns the number of activated nodes.
  /// If `activated_out` is non-null it receives the activated node list.
  size_t RunOnce(const std::vector<NodeId>& seeds, Rng& rng,
                 std::vector<NodeId>* activated_out = nullptr);

 private:
  void TryActivate(NodeId v, std::vector<NodeId>* activated_out,
                   size_t* activated);

  const Graph& graph_;
  const SamplingPlan* plan_;
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
};

/// \brief Monte-Carlo estimate of the influence spread σ(S).
///
/// The forward-spread oracle for tests and benches: neither `uic_run` nor
/// `uic_served` calls it (the solvers score allocations with the welfare
/// estimators of diffusion/uic_model.h).
///
/// Runs `num_simulations` cascades on the fixed stream grid (independent
/// deterministic RNG streams derived from `seed`); the result depends on
/// (`seed`, `kernel`) alone, `workers` only bounds concurrency. The
/// default kernel is skip-sampling on the graph's forward plan
/// (`Graph::Plan`), shared by all streams; pass SamplingKernel::kScan for
/// the legacy per-edge draw sequence.
double EstimateSpread(const Graph& graph, const std::vector<NodeId>& seeds,
                      size_t num_simulations, uint64_t seed,
                      unsigned workers = 0,
                      SamplingKernel kernel = SamplingKernel::kSkip);

}  // namespace uic
