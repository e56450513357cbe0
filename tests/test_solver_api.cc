// The unified Solver API: solver-table lookups, Result-based error paths,
// and table-row-vs-direct-call equivalence at fixed seeds.
#include "solver/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>

#include "bdhs/bdhs.h"
#include "comic/rr_sim.h"
#include "core/baselines.h"
#include "core/bundle_grd.h"
#include "core/mc_greedy.h"
#include "exp/configs.h"
#include "exp/solve.h"
#include "graph/generators.h"
#include "items/gap.h"

namespace uic {
namespace {

Graph TestGraph(uint64_t seed, NodeId n = 120, size_t m = 700) {
  Graph g = GenerateErdosRenyi(n, m, seed);
  g.ApplyWeightedCascade();
  return g;
}

WelfareProblem TwoItemProblem(const Graph& graph,
                              std::vector<uint32_t> budgets = {4, 3}) {
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = MakeTwoItemConfig12();
  problem.budgets = std::move(budgets);
  return problem;
}

/// Options tuned so even mc-greedy solves a test instance in milliseconds.
SolverOptions FastOptions(uint64_t seed = 7) {
  SolverOptions options;
  options.seed = seed;
  options.mc_greedy.simulations_per_eval = 20;
  options.comic.cim_forward_simulations = 20;
  return options;
}

bool SameAllocation(const Allocation& a, const Allocation& b) {
  return a.entries() == b.entries();
}

TEST(SolverRegistry, ListsTheSevenBuiltins) {
  const std::vector<std::string> expected = {
      "bdhs",      "bundle-disj", "bundle-grd", "item-disj",
      "mc-greedy", "rr-cim",      "rr-sim+"};
  EXPECT_EQ(SolverRegistry::ListSolvers(), expected);
}

TEST(SolverRegistry, CreateUnknownName) {
  EXPECT_EQ(SolverRegistry::Create("no-such-algorithm"), nullptr);
  const Graph g = TestGraph(1);
  SolveSpec spec;
  spec.algorithm = "no-such-algorithm";
  const Status status = CheckSolve(TwoItemProblem(g), spec);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kNotFound);
  // The message teaches the caller what IS registered.
  EXPECT_NE(status.message().find("bundle-grd"), std::string::npos);
}

TEST(SolverRegistry, CreateIsCaseInsensitive) {
  auto solver = SolverRegistry::Create("Bundle-GRD");
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->name(), "bundle-grd");
}

TEST(SolverApi, EveryRegisteredSolverSolvesASmallInstance) {
  const Graph g = TestGraph(2);
  const WelfareProblem problem = TwoItemProblem(g);
  for (const std::string& name : SolverRegistry::ListSolvers()) {
    auto solver = SolverRegistry::Create(name, FastOptions());
    ASSERT_NE(solver, nullptr) << name;
    const auto result = solver->Solve(problem);
    ASSERT_TRUE(result.ok())
        << name << ": " << result.status().ToString();
    if (name == "bdhs") {
      // BDHS is budget-free: the best bundle goes to every node.
      EXPECT_EQ(result.value().allocation.num_seed_nodes(), g.num_nodes());
      EXPECT_GT(result.value().objective, 0.0);
    } else {
      EXPECT_TRUE(
          result.value().allocation.ValidateBudgets(problem.budgets).ok())
          << name;
      EXPECT_FALSE(result.value().allocation.empty()) << name;
    }
  }
}

// ---- solver-matrix determinism ---------------------------------------

// Every registered solver must be invariant to the worker count: the RR
// engine runs on a fixed stream grid and the MC estimators on fixed-grid
// streams (parallel.h), so workers only change wall-clock, never results.
TEST(SolverApi, EverySolverIsWorkerCountInvariant) {
  const Graph g = TestGraph(8, /*n=*/100, /*m=*/600);
  WelfareProblem problem = TwoItemProblem(g, {3, 2});
  for (const std::string& name : SolverRegistry::ListSolvers()) {
    SolverOptions base = FastOptions(/*seed=*/21);
    base.mc_greedy.simulations_per_eval = 10;  // keep mc-greedy fast
    SolverOptions w1 = base, w4 = base;
    w1.workers = 1;
    w4.workers = 4;
    const auto r1 = SolverRegistry::Create(name, w1)->Solve(problem);
    const auto r4 = SolverRegistry::Create(name, w4)->Solve(problem);
    ASSERT_TRUE(r1.ok()) << name << ": " << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << name << ": " << r4.status().ToString();
    EXPECT_EQ(r1.value().allocation.entries(), r4.value().allocation.entries())
        << name;
    EXPECT_EQ(r1.value().ranking, r4.value().ranking) << name;
    EXPECT_EQ(r1.value().num_rr_sets, r4.value().num_rr_sets) << name;
    EXPECT_EQ(r1.value().objective, r4.value().objective) << name;
  }
}

// ---- Result-based error paths ----------------------------------------

TEST(SolverApi, RejectsNullAndEmptyGraph) {
  WelfareProblem problem;
  problem.budgets = {2, 2};
  auto solver = SolverRegistry::Create("bundle-grd");
  auto result = solver->Solve(problem);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);

  const Graph empty;
  problem.graph = &empty;
  result = solver->Solve(problem);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(SolverApi, RejectsEmptyBudgets) {
  const Graph g = TestGraph(3);
  WelfareProblem problem;
  problem.graph = &g;
  for (const char* name : {"bundle-grd", "mc-greedy", "bdhs"}) {
    auto result = SolverRegistry::Create(name, FastOptions())->Solve(problem);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << name;
  }
}

TEST(SolverApi, RejectsParamsItemCountMismatch) {
  const Graph g = TestGraph(4);
  WelfareProblem problem = TwoItemProblem(g);
  problem.budgets = {2, 2, 2};  // params has two items
  const auto result =
      SolverRegistry::Create("bundle-disj", FastOptions())->Solve(problem);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(result.status().message().find("2 items"), std::string::npos);
}

TEST(SolverApi, RejectsBudgetBeyondGraphSize) {
  const Graph g = TestGraph(5, /*n=*/50, /*m=*/300);
  WelfareProblem problem = TwoItemProblem(g, {51, 1});
  const auto result =
      SolverRegistry::Create("bundle-grd")->Solve(problem);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

TEST(SolverApi, TwoItemOnlySolversRejectThreeItems) {
  const Graph g = TestGraph(6);
  WelfareProblem problem;
  problem.graph = &g;
  problem.params = MakeAdditiveConfig5(3);
  problem.budgets = {2, 2, 2};
  for (const char* name : {"rr-sim+", "rr-cim"}) {
    const auto result =
        SolverRegistry::Create(name, FastOptions())->Solve(problem);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << name;
  }
}

TEST(SolverApi, UtilityAwareSolversRequireParams) {
  const Graph g = TestGraph(7);
  WelfareProblem problem;
  problem.graph = &g;
  problem.budgets = {2, 2};
  for (const char* name :
       {"bundle-disj", "mc-greedy", "rr-sim+", "rr-cim", "bdhs"}) {
    const auto result =
        SolverRegistry::Create(name, FastOptions())->Solve(problem);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), Status::Code::kFailedPrecondition)
        << name;
  }
  // ...while the utility-oblivious solvers accept the same problem.
  for (const char* name : {"bundle-grd", "item-disj"}) {
    EXPECT_TRUE(
        SolverRegistry::Create(name, FastOptions())->Solve(problem).ok())
        << name;
  }
}

TEST(SolverApi, IcOnlySolversRejectLinearThreshold) {
  const Graph g = TestGraph(8);
  WelfareProblem problem = TwoItemProblem(g);
  problem.model = DiffusionModel::kLinearThreshold;
  for (const char* name : {"mc-greedy", "rr-sim+", "rr-cim", "bdhs"}) {
    const auto result =
        SolverRegistry::Create(name, FastOptions())->Solve(problem);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << name;
  }
  for (const char* name : {"bundle-grd", "item-disj", "bundle-disj"}) {
    EXPECT_TRUE(
        SolverRegistry::Create(name, FastOptions())->Solve(problem).ok())
        << name;
  }
}

TEST(SolverApi, RejectsNonPositiveEpsAndEll) {
  const Graph g = TestGraph(9);
  SolverOptions options;
  options.eps = 0.0;
  auto result = SolverRegistry::Create("bundle-grd", options)
                    ->Solve(TwoItemProblem(g));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);

  options.eps = 0.5;
  options.ell = -1.0;
  result = SolverRegistry::Create("bundle-grd", options)
               ->Solve(TwoItemProblem(g));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);

  // The limits every front end shares: eps in [1e-6, 1], ell in [1e-6, 16];
  // NaN is outside both.
  const std::pair<double, double> kOutOfRange[] = {
      {1e-9, 1.0}, {1.5, 1.0}, {0.5, 1e9}, {std::nan(""), 1.0}};
  for (const auto& [eps, ell] : kOutOfRange) {
    options.eps = eps;
    options.ell = ell;
    const Status status =
        SolverRegistry::Create("bundle-grd", options)->Validate(
            TwoItemProblem(g));
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
        << eps << " " << ell;
  }

  // Every tuning field has a limit too, checked whatever the solver:
  // simulations in [1, kMaxEvalSims], BDHS uniform_p in (0, 1] and kappa
  // in [0, 1]. NaN is outside each, and -1 is what a negative flag value
  // becomes as a size_t.
  const std::pair<const char*, void (*)(SolverOptions&)> kBadTuning[] = {
      {"greedy sims 0",
       [](SolverOptions& o) { o.mc_greedy.simulations_per_eval = 0; }},
      {"greedy sims -1",
       [](SolverOptions& o) {
         o.mc_greedy.simulations_per_eval = static_cast<size_t>(-1);
       }},
      {"greedy sims above max",
       [](SolverOptions& o) {
         o.mc_greedy.simulations_per_eval = kMaxEvalSims + 1;
       }},
      {"cim sims 0",
       [](SolverOptions& o) { o.comic.cim_forward_simulations = 0; }},
      {"cim sims -1",
       [](SolverOptions& o) {
         o.comic.cim_forward_simulations = static_cast<size_t>(-1);
       }},
      {"uniform_p 0", [](SolverOptions& o) { o.bdhs.uniform_p = 0.0; }},
      {"uniform_p -0.5", [](SolverOptions& o) { o.bdhs.uniform_p = -0.5; }},
      {"uniform_p 2", [](SolverOptions& o) { o.bdhs.uniform_p = 2.0; }},
      {"uniform_p nan",
       [](SolverOptions& o) { o.bdhs.uniform_p = std::nan(""); }},
      {"kappa -0.1", [](SolverOptions& o) { o.bdhs.kappa = -0.1; }},
      {"kappa 1.5", [](SolverOptions& o) { o.bdhs.kappa = 1.5; }},
      {"kappa nan", [](SolverOptions& o) { o.bdhs.kappa = std::nan(""); }},
  };
  for (const auto& [name, mutate] : kBadTuning) {
    SolverOptions bad;
    mutate(bad);
    for (const char* algorithm :
         {"bundle-grd", "mc-greedy", "rr-cim", "bdhs"}) {
      const Status status =
          SolverRegistry::Create(algorithm, bad)->Validate(TwoItemProblem(g));
      EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
          << name << " " << algorithm;
    }
  }

  // The limits themselves are in range.
  SolverOptions edge;
  edge.mc_greedy.simulations_per_eval = kMaxEvalSims;
  edge.comic.cim_forward_simulations = 1;
  edge.bdhs.uniform_p = 1.0;
  edge.bdhs.kappa = 1.0;
  EXPECT_TRUE(
      SolverRegistry::Create("bdhs", edge)->Validate(TwoItemProblem(g)).ok());
}

// ---- Table row vs direct call of the algorithm, fixed seeds -----------

TEST(SolverEquivalence, BundleGrdMatchesLegacy) {
  const Graph g = TestGraph(10);
  const std::vector<uint32_t> budgets = {6, 3};
  const AllocationResult legacy = BundleGrd(g, budgets, 0.5, 1.0, 77);
  const auto adapted = SolverRegistry::Create("bundle-grd", FastOptions(77))
                           ->Solve(TwoItemProblem(g, budgets));
  ASSERT_TRUE(adapted.ok());
  EXPECT_TRUE(SameAllocation(legacy.allocation, adapted.value().allocation));
  EXPECT_EQ(legacy.ranking, adapted.value().ranking);
  EXPECT_EQ(legacy.num_rr_sets, adapted.value().num_rr_sets);
}

TEST(SolverEquivalence, BundleGrdLinearThresholdMatchesLegacy) {
  Graph g = GenerateErdosRenyi(120, 500, 11);
  g.ApplyWeightedCascade();  // in-degree-normalized: valid LT weights
  const std::vector<uint32_t> budgets = {5, 5};
  const AllocationResult legacy =
      BundleGrd(g, budgets, 0.5, 1.0, 78, 0, DiffusionModel::kLinearThreshold);
  WelfareProblem problem = TwoItemProblem(g, budgets);
  problem.model = DiffusionModel::kLinearThreshold;
  const auto adapted =
      SolverRegistry::Create("bundle-grd", FastOptions(78))->Solve(problem);
  ASSERT_TRUE(adapted.ok());
  EXPECT_TRUE(SameAllocation(legacy.allocation, adapted.value().allocation));
}

TEST(SolverEquivalence, ItemDisjointMatchesLegacy) {
  const Graph g = TestGraph(12);
  const std::vector<uint32_t> budgets = {4, 4};
  const AllocationResult legacy = ItemDisjoint(g, budgets, 0.5, 1.0, 79);
  const auto adapted = SolverRegistry::Create("item-disj", FastOptions(79))
                           ->Solve(TwoItemProblem(g, budgets));
  ASSERT_TRUE(adapted.ok());
  EXPECT_TRUE(SameAllocation(legacy.allocation, adapted.value().allocation));
}

TEST(SolverEquivalence, BundleDisjointMatchesLegacy) {
  const Graph g = TestGraph(13);
  const std::vector<uint32_t> budgets = {5, 2};
  const ItemParams params = MakeTwoItemConfig12();
  const AllocationResult legacy =
      BundleDisjoint(g, budgets, params, 0.5, 1.0, 80);
  const auto adapted = SolverRegistry::Create("bundle-disj", FastOptions(80))
                           ->Solve(TwoItemProblem(g, budgets));
  ASSERT_TRUE(adapted.ok());
  EXPECT_TRUE(SameAllocation(legacy.allocation, adapted.value().allocation));
}

TEST(SolverEquivalence, McGreedyMatchesLegacy) {
  const Graph g = TestGraph(14, /*n=*/60, /*m=*/300);
  const std::vector<uint32_t> budgets = {2, 2};
  const ItemParams params = MakeTwoItemConfig12();
  SolverOptions legacy_options;
  legacy_options.mc_greedy.simulations_per_eval = 20;
  legacy_options.seed = 81;
  const AllocationResult legacy =
      McGreedyAllocate(g, budgets, params, legacy_options);
  const auto adapted = SolverRegistry::Create("mc-greedy", FastOptions(81))
                           ->Solve(TwoItemProblem(g, budgets));
  ASSERT_TRUE(adapted.ok());
  EXPECT_TRUE(SameAllocation(legacy.allocation, adapted.value().allocation));
}

TEST(SolverEquivalence, ComIcBaselinesMatchLegacy) {
  const Graph g = TestGraph(15);
  const ItemParams params = MakeTwoItemConfig12();
  const TwoItemGap gap = DeriveTwoItemGap(params);
  SolverOptions legacy_options;
  legacy_options.comic.cim_forward_simulations = 20;
  legacy_options.seed = 82;
  const AllocationResult legacy_sim = RrSimPlus(g, gap, 4, 3, legacy_options);
  const AllocationResult legacy_cim = RrCim(g, gap, 4, 3, legacy_options);

  const auto sim = SolverRegistry::Create("rr-sim+", FastOptions(82))
                       ->Solve(TwoItemProblem(g));
  const auto cim = SolverRegistry::Create("rr-cim", FastOptions(82))
                       ->Solve(TwoItemProblem(g));
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE(cim.ok());
  EXPECT_TRUE(SameAllocation(legacy_sim.allocation, sim.value().allocation));
  EXPECT_TRUE(SameAllocation(legacy_cim.allocation, cim.value().allocation));
}

TEST(SolverEquivalence, BdhsMatchesLegacy) {
  const Graph g = TestGraph(16);
  const ItemParams params = MakeTwoItemConfig12();
  const BdhsResult legacy = BdhsStep(g, params, /*kappa=*/0.0);
  const auto adapted = SolverRegistry::Create("bdhs", FastOptions())
                           ->Solve(TwoItemProblem(g, {0, 0}));
  ASSERT_TRUE(adapted.ok());
  EXPECT_DOUBLE_EQ(adapted.value().objective, legacy.welfare);
  if (legacy.bundle != kEmptyItemSet) {
    ASSERT_EQ(adapted.value().allocation.num_seed_nodes(), g.num_nodes());
    for (const auto& [node, items] : adapted.value().allocation.entries()) {
      EXPECT_EQ(items, legacy.bundle);
    }
  } else {
    EXPECT_TRUE(adapted.value().allocation.empty());
  }
}

// RrOptions plumbing (satellite): an LT-flagged RrOptions reaches the
// samplers of the legacy functions and changes the selection.
TEST(SolverEquivalence, RrOptionsReachLegacyFunctions) {
  Graph g = GenerateErdosRenyi(150, 800, 17);
  g.ApplyWeightedCascade();
  RrOptions lt;
  lt.linear_threshold = true;
  const AllocationResult via_rr_options =
      ItemDisjoint(g, {5, 5}, 0.5, 1.0, 83, 0, lt);
  WelfareProblem problem = TwoItemProblem(g, {5, 5});
  problem.model = DiffusionModel::kLinearThreshold;
  const auto via_model =
      SolverRegistry::Create("item-disj", FastOptions(83))->Solve(problem);
  ASSERT_TRUE(via_model.ok());
  EXPECT_TRUE(SameAllocation(via_rr_options.allocation,
                             via_model.value().allocation));
}

}  // namespace
}  // namespace uic
