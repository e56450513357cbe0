// RR-SIM+ and RR-CIM: the Com-IC seed-selection baselines (§4.3.1.2).
//
// Both algorithms take the seeds of item i2 as given (chosen by IMM) and
// select item i1's seeds to maximize i1's expected adoption under Com-IC:
//
//  * RR-SIM+ samples reverse-reachable sets in which every traversed node
//    additionally passes its NLA adoption coin (q_{1|∅}, boosted to
//    q_{1|2} at i2's seed nodes — the "+" one-way complementarity boost).
//  * RR-CIM first runs forward Monte-Carlo simulations of i2's diffusion
//    to estimate each node's i2-adoption probability, then samples RR sets
//    whose node coins use the mixed probability
//    q_{1|∅}·(1 − p2_v) + q_{1|2}·p2_v.
//
// Faithful to the originals, the sample size is governed by the more
// conservative TIM-style bound (they predate IMM's refined martingale
// bound; rr_sim.cc keeps that bound as LambdaTim), which is why they
// generate significantly more RR sets than IMM-based algorithms (Fig. 6).
// Both support exactly two items; extending Com-IC beyond two items needs
// exponentially many NLA parameters, which is precisely the limitation
// bundleGRD removes.
//
// Both take the solver options themselves (solver/problem.h), so the
// rr-sim+ and rr-cim rows of the solver table pass them through as they
// are. The GAP is a separate argument: the rows derive it from the
// problem's ItemParams, while tests feed synthetic GAPs no ItemParams
// produces.
#pragma once

#include <cstdint>

#include "core/bundle_grd.h"
#include "items/gap.h"
#include "solver/problem.h"

namespace uic {

/// \brief RR-SIM+: item i1 seeds via self-influence RR sets (i2 by IMM).
///
/// Reads eps, ell, seed and workers from `options`, and from
/// `options.rr_options` only `stream_cache`: the warm-start cache for every
/// RR pool these baselines build (the i2 IMM pool and the node-coin pools;
/// see rr_stream_cache.h). Results are bit-identical with or without it.
AllocationResult RrSimPlus(const Graph& graph, const TwoItemGap& gap,
                           uint32_t budget1, uint32_t budget2,
                           const SolverOptions& options);

/// \brief RR-CIM: complementary influence maximization for item i1. Reads
/// what RrSimPlus reads, plus `options.comic.cim_forward_simulations`.
AllocationResult RrCim(const Graph& graph, const TwoItemGap& gap,
                       uint32_t budget1, uint32_t budget2,
                       const SolverOptions& options);

}  // namespace uic
