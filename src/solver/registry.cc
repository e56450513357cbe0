#include "solver/registry.h"

#include <algorithm>
#include <cctype>

#include "bdhs/bdhs.h"
#include "comic/rr_sim.h"
#include "common/timer.h"
#include "core/baselines.h"
#include "core/bundle_grd.h"
#include "core/mc_greedy.h"
#include "items/gap.h"

namespace uic {

namespace {

std::string Lowercase(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// RR options sampling under the problem's diffusion model, whatever
/// rr_options.linear_threshold says: the allocation is scored under it.
RrOptions EffectiveRrOptions(const WelfareProblem& p, const SolverOptions& o) {
  RrOptions rr = o.rr_options;
  rr.linear_threshold = p.model == DiffusionModel::kLinearThreshold;
  return rr;
}

AllocationResult RunBundleGrd(const WelfareProblem& p, const SolverOptions& o) {
  return BundleGrd(*p.graph, p.budgets, o.eps, o.ell, o.seed, o.workers,
                   p.model, EffectiveRrOptions(p, o));
}

AllocationResult RunItemDisjoint(const WelfareProblem& p,
                                 const SolverOptions& o) {
  return ItemDisjoint(*p.graph, p.budgets, o.eps, o.ell, o.seed, o.workers,
                      EffectiveRrOptions(p, o));
}

AllocationResult RunBundleDisjoint(const WelfareProblem& p,
                                   const SolverOptions& o) {
  return BundleDisjoint(*p.graph, p.budgets, *p.params, o.eps, o.ell, o.seed,
                        o.workers, EffectiveRrOptions(p, o));
}

AllocationResult RunMcGreedy(const WelfareProblem& p, const SolverOptions& o) {
  return McGreedyAllocate(*p.graph, p.budgets, *p.params, o);
}

AllocationResult RunRrSimPlus(const WelfareProblem& p, const SolverOptions& o) {
  return RrSimPlus(*p.graph, DeriveTwoItemGap(*p.params), p.budgets[0],
                   p.budgets[1], o);
}

AllocationResult RunRrCim(const WelfareProblem& p, const SolverOptions& o) {
  return RrCim(*p.graph, DeriveTwoItemGap(*p.params), p.budgets[0],
               p.budgets[1], o);
}

AllocationResult RunBdhs(const WelfareProblem& p, const SolverOptions& o) {
  WallTimer timer;
  BdhsResult bdhs;
  if (o.bdhs.variant == BdhsVariant::kConcave) {
    // BDHS-Concave is only valid under a uniform edge probability; evaluate
    // it on a re-weighted copy, as the Fig. 9 bench does.
    Graph uniform = *p.graph;
    uniform.ApplyConstantProbability(o.bdhs.uniform_p);
    bdhs = BdhsConcave(uniform, *p.params, o.bdhs.uniform_p);
  } else {
    bdhs = BdhsStep(*p.graph, *p.params, o.bdhs.kappa);
  }
  AllocationResult result;
  result.objective = bdhs.welfare;
  // BDHS is budget-free: it assigns the optimal bundle to every node.
  if (bdhs.bundle != kEmptyItemSet) {
    for (NodeId v = 0; v < p.graph->num_nodes(); ++v) {
      result.allocation.AppendNew(v, bdhs.bundle);
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

/// Utility-oblivious and LT-capable: the PRIMA family.
constexpr Solver::Traits kPrima{.supports_linear_threshold = true};
/// The PRIMA family, reading the utilities (bundle-disj).
constexpr Solver::Traits kPrimaWithParams{.needs_params = true,
                                          .supports_linear_threshold = true};
/// Reads the utilities of all 2^k itemsets, under IC only (mc-greedy, bdhs).
constexpr Solver::Traits kIcWithParams{.needs_params = true,
                                       .tabulates_utilities = true};
/// Com-IC: the GAP comes from the utilities; two items, IC only.
constexpr Solver::Traits kComIc{.needs_params = true, .two_items_only = true};

/// The seven §6 algorithms, sorted by name (the ListSolvers order).
/// Solver::Solve checks a problem against the row's traits before calling
/// its function.
constexpr Solver::Row kSolvers[] = {
    {"bdhs", kIcWithParams, RunBdhs},
    {"bundle-disj", kPrimaWithParams, RunBundleDisjoint},
    {"bundle-grd", kPrima, RunBundleGrd},
    {"item-disj", kPrima, RunItemDisjoint},
    {"mc-greedy", kIcWithParams, RunMcGreedy},
    {"rr-cim", kComIc, RunRrCim},
    {"rr-sim+", kComIc, RunRrSimPlus},
};

}  // namespace

std::unique_ptr<Solver> SolverRegistry::Create(const std::string& name,
                                               const SolverOptions& options) {
  const std::string key = Lowercase(name);
  for (const Solver::Row& row : kSolvers) {
    if (key == row.name) {
      return std::unique_ptr<Solver>(new Solver(row, options));
    }
  }
  return nullptr;
}

std::vector<std::string> SolverRegistry::ListSolvers() {
  std::vector<std::string> names;
  for (const Solver::Row& row : kSolvers) names.emplace_back(row.name);
  return names;
}

}  // namespace uic
