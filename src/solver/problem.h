// The unified solver inputs: WelfareProblem (what to solve) and
// SolverOptions (how to solve it).
//
// Every allocation algorithm in the repo — bundleGRD, the disjoint
// baselines, MC greedy, the Com-IC baselines, BDHS — consumes the same
// problem description through `Solver::Solve(const WelfareProblem&)`
// instead of its historical positional signature. Algorithm-specific
// tuning lives in `SolverOptions` sub-structs so a caller can configure
// any solver without knowing which one the registry will hand back.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bundle_grd.h"
#include "graph/graph.h"
#include "items/params.h"
#include "rrset/rr_collection.h"

namespace uic {

/// Most Monte-Carlo simulations one estimate may run: a welfare estimate's
/// `eval_sims` (exp/solve.h), mc-greedy's simulations per evaluation and
/// rr-cim's forward simulations.
inline constexpr long long kMaxEvalSims = 1000000;

/// \brief A welfare-maximization instance (§3.3): network, per-item seed
/// budgets, and (optionally) the utility configuration.
///
/// `params` is optional because the paper's headline algorithm, bundleGRD,
/// never reads the utilities; solvers that do need them (bundle-disj,
/// mc-greedy, rr-sim+, rr-cim, bdhs) reject a problem without `params`
/// with `Status::FailedPrecondition` instead of crashing.
struct WelfareProblem {
  /// The social network. Not owned; must outlive the Solve call.
  const Graph* graph = nullptr;

  /// Per-item seed budgets b_i. `budgets.size()` is the number of items;
  /// when `params` is set the two must agree.
  std::vector<uint32_t> budgets;

  /// Utility configuration `Param = (V, P, N)`. Optional — see above.
  std::optional<ItemParams> params;

  /// Propagation model for seed selection (§5: the guarantees hold for any
  /// triggering model; IC and LT are provided). Solvers whose machinery is
  /// IC-specific (mc-greedy, rr-sim+, rr-cim, bdhs) reject kLinearThreshold.
  DiffusionModel model = DiffusionModel::kIndependentCascade;
};

/// MC greedy tuning (see core/mc_greedy.h). McGreedyAllocate reads these
/// fields directly; this struct is the only copy of the knobs.
struct McGreedySolverOptions {
  /// MC samples per welfare estimate, in [1, kMaxEvalSims].
  size_t simulations_per_eval = 200;
  /// Restrict candidate seed nodes (empty = all nodes). Pre-filtering to,
  /// say, the top-degree nodes makes the greedy usable on mid-size graphs.
  std::vector<NodeId> candidates;
};

/// Com-IC baseline tuning (see comic/rr_sim.h). RrCim reads this field
/// directly; this struct is the only copy of the knob.
struct ComIcSolverOptions {
  /// Forward Monte-Carlo simulations used by RR-CIM to estimate per-node
  /// i2-adoption probabilities, in [1, kMaxEvalSims].
  size_t cim_forward_simulations = 200;
};

/// Which BDHS externality benchmark to compute (see bdhs/bdhs.h).
enum class BdhsVariant { kStep, kConcave };

/// BDHS tuning.
struct BdhsSolverOptions {
  BdhsVariant variant = BdhsVariant::kStep;
  /// kStep: discount factor an isolated adopter's utility is scaled by,
  /// in [0, 1].
  double kappa = 0.0;
  /// kConcave requires a uniform edge probability, in (0, 1]; the solver
  /// re-weights a copy of the graph to this value (as the Fig. 9 bench
  /// does).
  double uniform_p = 0.01;
};

/// \brief Knobs shared by (or routed to) all solvers.
///
/// The common block (eps/ell/seed/workers) matches the defaults the bench
/// binaries historically hard-wired. `rr_options` reaches every RR-set
/// sampler a solver invokes (bundle-grd, item-disj, bundle-disj).
struct SolverOptions {
  double eps = 0.5;       ///< approximation slack ε, in [1e-6, 1]
  double ell = 1.0;       ///< guarantee w.p. ≥ 1 − 1/n^ℓ; ℓ in [1e-6, 16]
  uint64_t seed = 1;      ///< RNG seed; results are deterministic in it
  unsigned workers = 0;   ///< worker threads (0 = hardware concurrency)

  /// RR sampling semantics for the IMM/PRIMA-based solvers. The problem's
  /// DiffusionModel sets `linear_threshold`; the value here is ignored.
  ///
  /// `rr_options.stream_cache` is the pool-reuse hook RunSolve sets
  /// (exp/solve.h): every RR pool the solver builds — PRIMA/IMM phase
  /// pools, regeneration pools, the Com-IC coin pools — is served from the
  /// cache, sampling only the delta past its high-water mark. Allocations
  /// are bit-identical to a cold run; the cache must outlive the Solve
  /// call and is not thread-safe across concurrent solves.
  RrOptions rr_options;

  McGreedySolverOptions mc_greedy;
  ComIcSolverOptions comic;
  BdhsSolverOptions bdhs;
};

}  // namespace uic
