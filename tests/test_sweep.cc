// SweepRunner: warm-swept cells must be bit-identical to independent cold
// solves (the sweep engine's hard contract), sample strictly fewer RR sets
// than cold per-point runs, and be invariant to the worker count. Also
// covers the CLI budget-point grammar and spec validation.
#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <vector>

#include "exp/configs.h"
#include "graph/generators.h"
#include "solver/registry.h"

namespace uic {
namespace {

Graph SweepGraph(uint64_t seed = 17) {
  Graph g = GenerateErdosRenyi(150, 900, seed);
  g.ApplyWeightedCascade();
  return g;
}

SweepSpec BaseSpec(const Graph& graph) {
  SweepSpec spec;
  spec.graph = &graph;
  spec.params = MakeTwoItemConfig12();
  spec.budget_points = {{1, 1}, {3, 3}, {5, 5}};
  spec.options.seed = 7;
  spec.options.workers = 4;
  spec.options.comic.cim_forward_simulations = 30;
  spec.eval_simulations = 0;  // identity checks don't need welfare
  return spec;
}

// Every RR-based solver of §6; mc-greedy and bdhs are exercised separately
// (they ignore the cache but must still run under a sweep).
const std::vector<std::string> kRrSolvers = {
    "bundle-grd", "item-disj", "bundle-disj", "rr-sim+", "rr-cim"};

TEST(SweepRunner, WarmCellsBitIdenticalToIndependentColdSolves) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = kRrSolvers;

  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(),
            kRrSolvers.size() * spec.budget_points.size());

  // Cold reference: same options, NO cache — a fresh per-point run.
  for (const SweepRow& row : report.value().rows) {
    WelfareProblem problem;
    problem.graph = &graph;
    problem.params = spec.params;
    problem.budgets = row.budgets;
    Result<AllocationResult> solved =
        SolverRegistry::Create(row.algorithm, spec.options)->Solve(problem);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    const AllocationResult& cold = solved.value();
    EXPECT_EQ(row.result.allocation.entries(), cold.allocation.entries())
        << row.algorithm << " " << row.setting;
    EXPECT_EQ(row.result.ranking, cold.ranking)
        << row.algorithm << " " << row.setting;
    EXPECT_EQ(row.num_rr_sets(), cold.num_rr_sets)
        << row.algorithm << " " << row.setting;
    EXPECT_EQ(row.objective(), cold.objective)
        << row.algorithm << " " << row.setting;
  }
}

TEST(SweepRunner, WarmAndColdModesProduceIdenticalRows) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd", "item-disj"};
  spec.eval_simulations = 200;  // exercise the welfare columns too

  SweepSpec cold_spec = spec;
  cold_spec.warm = false;

  SweepRunner warm(spec);
  SweepRunner cold(cold_spec);
  Result<SweepReport> wr = warm.Run();
  Result<SweepReport> cr = cold.Run();
  ASSERT_TRUE(wr.ok()) << wr.status().ToString();
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  ASSERT_EQ(wr.value().rows.size(), cr.value().rows.size());
  for (size_t i = 0; i < wr.value().rows.size(); ++i) {
    const SweepRow& w = wr.value().rows[i];
    const SweepRow& c = cr.value().rows[i];
    EXPECT_EQ(w.result.allocation.entries(), c.result.allocation.entries())
        << w.algorithm << " " << w.setting;
    EXPECT_EQ(w.welfare, c.welfare) << w.algorithm << " " << w.setting;
    EXPECT_EQ(w.welfare_std_error, c.welfare_std_error);
    EXPECT_EQ(w.num_rr_sets(), c.num_rr_sets());
    EXPECT_EQ(w.objective(), c.objective());
  }
  EXPECT_EQ(wr.value().total_rr_sets, cr.value().total_rr_sets);
}

TEST(SweepRunner, WarmSweepSamplesFewerSetsThanColdPerPointRuns) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd"};
  spec.budget_points = {{2, 2}, {4, 4}, {6, 6}, {8, 8}};

  SweepSpec cold_spec = spec;
  cold_spec.warm = false;

  SweepRunner warm(spec);
  SweepRunner cold(cold_spec);
  Result<SweepReport> wr = warm.Run();
  Result<SweepReport> cr = cold.Run();
  ASSERT_TRUE(wr.ok());
  ASSERT_TRUE(cr.ok());
  // Cold samples every point from scratch; warm only ever extends shared
  // streams, so the 4-point sweep must draw strictly fewer sets total.
  EXPECT_LT(wr.value().total_rr_sampled, cr.value().total_rr_sampled);
  // Points after the first should be (almost entirely) served from the
  // pool; in particular the warm total can't reach 2 cold points' worth.
  EXPECT_LT(2 * wr.value().total_rr_sampled, cr.value().total_rr_sampled);
}

TEST(SweepRunner, RowsAreInvariantToWorkerCount) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd", "rr-sim+"};
  spec.eval_simulations = 100;

  SweepSpec spec4 = spec;
  spec.options.workers = 1;
  spec4.options.workers = 4;
  SweepRunner a(spec);
  SweepRunner b(spec4);
  Result<SweepReport> ra = a.Run();
  Result<SweepReport> rb = b.Run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra.value().rows.size(), rb.value().rows.size());
  for (size_t i = 0; i < ra.value().rows.size(); ++i) {
    EXPECT_EQ(ra.value().rows[i].result.allocation.entries(),
              rb.value().rows[i].result.allocation.entries());
    EXPECT_EQ(ra.value().rows[i].welfare, rb.value().rows[i].welfare);
    EXPECT_EQ(ra.value().rows[i].num_rr_sets(),
              rb.value().rows[i].num_rr_sets());
    EXPECT_EQ(ra.value().rows[i].rr_sets_sampled,
              rb.value().rows[i].rr_sets_sampled);
  }
}

TEST(SweepRunner, NonRrSolversRunUnderASweep) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bdhs", "mc-greedy"};
  spec.budget_points = {{1, 1}, {2, 2}};
  spec.options.mc_greedy.simulations_per_eval = 10;
  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(), 4u);
  EXPECT_EQ(report.value().total_rr_sampled, 0u);  // nothing touches the pool
  // BDHS reports its externality objective.
  EXPECT_NE(report.value().rows[0].objective(), 0.0);
}

TEST(SweepRunner, ReportSerializesToCsvAndJson) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd"};
  spec.budget_points = {{2, 2}};
  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  ASSERT_TRUE(report.ok());
  const std::string csv = report.value().ToCsv(/*include_timing=*/false);
  EXPECT_NE(csv.find("algorithm,budgets,"), std::string::npos);
  EXPECT_NE(csv.find("bundle-grd,2|2,"), std::string::npos);
  EXPECT_NE(csv.find(",-,"), std::string::npos);  // timing suppressed
  const std::string json = report.value().ToJson(/*include_timing=*/false);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"seconds\": null"), std::string::npos);
  EXPECT_NE(json.find("\"total_rr_sampled\""), std::string::npos);
}

TEST(SweepRunner, InvalidSpecsFailCleanly) {
  const Graph graph = SweepGraph();
  {
    SweepSpec spec = BaseSpec(graph);
    spec.graph = nullptr;
    spec.algorithms = {"bundle-grd"};
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
  {
    SweepSpec spec = BaseSpec(graph);  // no algorithms
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
  }
  {
    SweepSpec spec = BaseSpec(graph);
    spec.algorithms = {"no-such-solver"};
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  }
  {
    SweepSpec spec = BaseSpec(graph);
    spec.algorithms = {"bundle-disj"};
    spec.params.reset();  // needs params -> FailedPrecondition, cell-labeled
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
    EXPECT_NE(r.status().message().find("bundle-disj"), std::string::npos);
  }
}

TEST(ParseSweepPoints, AcceptsAllThreeGrammars) {
  auto uniform = ParseSweepPoints("10,30,50", 2);
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform.value(),
            (std::vector<std::vector<uint32_t>>{{10, 10}, {30, 30}, {50, 50}}));

  auto range = ParseSweepPoints("10:50:20", 3);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value(), (std::vector<std::vector<uint32_t>>{
                               {10, 10, 10}, {30, 30, 30}, {50, 50, 50}}));

  auto inclusive = ParseSweepPoints("5:7:2", 1);
  ASSERT_TRUE(inclusive.ok());
  EXPECT_EQ(inclusive.value(),
            (std::vector<std::vector<uint32_t>>{{5}, {7}}));

  auto explicit_points = ParseSweepPoints("70,30;70,70;70,110", 5);
  ASSERT_TRUE(explicit_points.ok());  // explicit length overrides num_items
  EXPECT_EQ(explicit_points.value(), (std::vector<std::vector<uint32_t>>{
                                         {70, 30}, {70, 70}, {70, 110}}));

  auto trailing = ParseSweepPoints("70,30;", 2);
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(trailing.value(),
            (std::vector<std::vector<uint32_t>>{{70, 30}}));
}

TEST(ParseSweepPoints, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSweepPoints("", 2).ok());
  EXPECT_FALSE(ParseSweepPoints("10,x,30", 2).ok());
  EXPECT_FALSE(ParseSweepPoints("10:50", 2).ok());        // missing step
  EXPECT_FALSE(ParseSweepPoints("10:50:0", 2).ok());      // zero step
  EXPECT_FALSE(ParseSweepPoints("50:10:5", 2).ok());      // lo > hi
  EXPECT_FALSE(ParseSweepPoints("0:4000000000:1", 2).ok());  // point-count cap
  EXPECT_FALSE(ParseSweepPoints("10,20;10", 2).ok());     // ragged vectors
  EXPECT_FALSE(ParseSweepPoints("99999999999", 2).ok());  // out of range
  EXPECT_FALSE(ParseSweepPoints("10,30", 0).ok());        // no items
}

}  // namespace
}  // namespace uic
