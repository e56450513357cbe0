// Classic Monte-Carlo greedy allocation over (node, item) pairs.
//
// Picks, at each step, the pair with the largest marginal gain in
// *estimated expected welfare*. Unlike bundleGRD this needs the utility
// configuration and O(n·|I|·b) welfare estimations, so it only scales to
// small instances — it serves as a quality reference in tests and
// ablations (the role the MC greedy played for IM before RR-set
// algorithms).
//
// Deliberately NOT CELF-accelerated: lazy gain pruning requires marginal
// gains that never increase (submodularity), and UIC welfare is neither
// submodular nor supermodular (Theorem 1) — complementary items make a
// pair's gain *grow* once its partner is allocated, which breaks the
// lazy-heap invariant and yields provably wrong picks.
//
// Takes the solver options themselves (solver/problem.h), so the
// mc-greedy row of the solver table passes them through as they are.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bundle_grd.h"
#include "diffusion/uic_model.h"
#include "items/params.h"
#include "solver/problem.h"

namespace uic {

/// \brief Plain greedy over node-item pairs under budget vector `budgets`,
/// fully re-evaluating every candidate pair each round. Reads `seed`,
/// `workers` and `mc_greedy` (simulations per welfare estimate, candidate
/// nodes) from `options`.
AllocationResult McGreedyAllocate(const Graph& graph,
                                  const std::vector<uint32_t>& budgets,
                                  const ItemParams& params,
                                  const SolverOptions& options = {});

}  // namespace uic
