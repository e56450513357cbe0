// bundleGRD (Algorithm 1): the paper's main welfare-maximization
// allocation algorithm.
//
// bundleGRD selects one prefix-preserving seed ranking of length
// b = max_i b_i via PRIMA, then allocates every item i to the top-b_i
// nodes of that ranking. For mutually complementary items (supermodular
// valuation, additive price and noise), this achieves a
// (1 − 1/e − ε)-approximation to the optimal expected social welfare with
// probability ≥ 1 − 1/n^ℓ (Theorem 2) — remarkably, without ever looking
// at the valuations, prices, or noise distributions.
#pragma once

#include <cstdint>
#include <vector>

#include "diffusion/allocation.h"
#include "graph/graph.h"
#include "rrset/imm.h"

namespace uic {

/// \brief Output of an allocation algorithm, with bookkeeping used by the
/// experiment harness (running time, RR-set memory proxy).
struct AllocationResult {
  Allocation allocation;
  double seconds = 0.0;       ///< wall-clock of the whole algorithm
  size_t num_rr_sets = 0;     ///< total RR sets generated (memory proxy)
  std::vector<NodeId> ranking;///< underlying seed ranking, when meaningful
  /// Objective value the solver itself reports, when it computes one (BDHS
  /// reports its externality-model benchmark welfare); 0 otherwise. The
  /// UIC welfare of `allocation` comes from RunSolve (exp/solve.h).
  double objective = 0.0;
};

/// Propagation model for seed selection (UIC results hold for any
/// triggering model, §5; IC and LT are provided).
enum class DiffusionModel { kIndependentCascade, kLinearThreshold };

/// \brief bundleGRD (Algorithm 1).
///
/// `budgets[i]` is item i's seed budget b_i. The allocation assigns item i
/// to the top-b_i nodes of the PRIMA ranking. Utilities are *not* inputs.
/// `rr_options` tunes the underlying RR sampling; selecting
/// `DiffusionModel::kLinearThreshold` implies LT sampling regardless of
/// `rr_options.linear_threshold`.
AllocationResult BundleGrd(const Graph& graph,
                           const std::vector<uint32_t>& budgets, double eps,
                           double ell, uint64_t seed, unsigned workers = 0,
                           DiffusionModel model =
                               DiffusionModel::kIndependentCascade,
                           RrOptions rr_options = {});

}  // namespace uic
