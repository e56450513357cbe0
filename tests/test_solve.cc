// The one solve path: the same instance and request through RunSolve, a
// one-point SweepRunner and the daemon's solve verb must agree bit for bit
// on the allocation, the pool size and the welfare estimate — under IC and
// under LT (scored by the LT estimator), at 1 and 4 workers, warm and cold.
#include "exp/solve.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "diffusion/lt_model.h"
#include "exp/configs.h"
#include "exp/specs.h"
#include "exp/sweep.h"
#include "items/itemset.h"
#include "items/utility_table.h"
#include "serve/json.h"
#include "serve/server.h"

namespace uic {
namespace {

/// What the front ends must agree on.
struct Answer {
  std::vector<std::pair<NodeId, ItemSet>> allocation;
  size_t num_rr_sets = 0;
  double welfare = 0.0;
  double std_error = 0.0;

  bool operator==(const Answer&) const = default;
};

// The golden instance of tests/golden/uic_run_bundle_grd.txt.
const char kLoadGraph[] =
    "{\"id\":1,\"verb\":\"load_graph\",\"name\":\"g\",\"network\":\"er\","
    "\"nodes\":200,\"edges\":1200,\"net_seed\":5}";
const char kLoadParams[] =
    "{\"id\":2,\"verb\":\"load_params\",\"name\":\"p\",\"config\":\"config12\"}";

Graph GoldenGraph() {
  NetworkSpec spec;
  spec.network = "er";
  spec.nodes = 200;
  spec.edges = 1200;
  spec.seed = 5;
  Result<Graph> graph = BuildNetwork(spec);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return graph.MoveValue();
}

SolveSpec GoldenRequest(unsigned workers) {
  SolveSpec spec;
  spec.algorithm = "bundle-grd";
  spec.options.seed = 4;
  spec.options.workers = workers;
  spec.eval_sims = 200;
  spec.eval_seed = 9;
  return spec;
}

Answer ViaRunSolve(const WelfareProblem& problem, const SolveSpec& spec,
                   bool warm) {
  RrStreamCache cache;
  if (warm) {
    EXPECT_TRUE(RunSolve(problem, spec, &cache).ok());
  }
  Result<SolveOutcome> outcome =
      RunSolve(problem, spec, warm ? &cache : nullptr);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return {};
  const SolveOutcome& o = outcome.value();
  EXPECT_EQ(o.rr_sets_sampled == 0, warm);
  EXPECT_TRUE(o.welfare.has_value());
  const WelfareEstimate w = o.welfare.value_or(WelfareEstimate{});
  return {o.result.allocation.entries(), o.result.num_rr_sets, w.welfare,
          w.std_error};
}

Answer ViaSweep(const WelfareProblem& problem, const SolveSpec& spec,
                bool warm) {
  SweepSpec sweep;
  sweep.graph = problem.graph;
  sweep.params = problem.params;
  sweep.model = problem.model;
  sweep.algorithms = {spec.algorithm};
  sweep.budget_points = {problem.budgets};
  sweep.options = spec.options;
  sweep.eval_simulations = static_cast<size_t>(spec.eval_sims);
  sweep.eval_seed = spec.eval_seed;
  sweep.warm = warm;
  Result<SweepReport> report = SweepRunner(sweep).Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok() || report.value().rows.size() != 1) return {};
  const SweepRow& row = report.value().rows[0];
  return {row.result.allocation.entries(), row.num_rr_sets(), row.welfare,
          row.welfare_std_error};
}

Answer ViaDaemon(bool lt, bool warm) {
  serve::ServerOptions options;
  options.include_timing = false;
  serve::Server server(options);
  EXPECT_NE(server.HandleLine(kLoadGraph).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(server.HandleLine(kLoadParams).find("\"ok\":true"),
            std::string::npos);
  const std::string request =
      std::string("{\"id\":3,\"verb\":\"solve\",\"graph\":\"g\",") +
      "\"params\":\"p\",\"budgets\":[3,3],\"seed\":4,\"eval_sims\":200," +
      "\"eval_seed\":9,\"model\":\"" + (lt ? "lt" : "ic") +
      "\",\"warm\":" + (warm ? "true" : "false") + "}";
  if (warm) (void)server.HandleLine(request);  // fills the warm entry
  const std::string line = server.HandleLine(request);
  Result<serve::Json> response = serve::Json::Parse(line);
  EXPECT_TRUE(response.ok()) << line;
  const serve::Json* result =
      response.ok() ? response.value().Find("result") : nullptr;
  EXPECT_NE(result, nullptr) << line;
  if (result == nullptr) return {};
  EXPECT_EQ(response.value().Find("serve")->Find("warm_hit")->AsBool(), warm);

  Answer answer;
  for (const serve::Json& entry : result->Find("allocation")->items()) {
    ItemSet items = kEmptyItemSet;
    for (const serve::Json& item : entry.Find("items")->items()) {
      items |= ItemBit(static_cast<ItemId>(item.AsInt()));
    }
    answer.allocation.emplace_back(
        static_cast<NodeId>(entry.Find("node")->AsInt()), items);
  }
  answer.num_rr_sets =
      static_cast<size_t>(result->Find("num_rr_sets")->AsInt());
  const serve::Json* welfare = result->Find("welfare");
  EXPECT_NE(welfare, nullptr) << line;
  if (welfare == nullptr) return answer;
  answer.welfare = welfare->Find("welfare")->AsDouble();
  answer.std_error = welfare->Find("std_error")->AsDouble();
  return answer;
}

TEST(SolvePath, RunSolveSweepAndDaemonAgreeUnderIcAndLt) {
  const Graph graph = GoldenGraph();
  for (const bool lt : {false, true}) {
    WelfareProblem problem;
    problem.graph = &graph;
    problem.params = MakeTwoItemConfig12();
    problem.budgets = {3, 3};
    problem.model = lt ? DiffusionModel::kLinearThreshold
                       : DiffusionModel::kIndependentCascade;
    for (const bool warm : {false, true}) {
      const Answer daemon = ViaDaemon(lt, warm);
      ASSERT_FALSE(daemon.allocation.empty());
      for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(std::string(lt ? "lt" : "ic") +
                     (warm ? " warm" : " cold") + " workers " +
                     std::to_string(workers));
        const SolveSpec spec = GoldenRequest(workers);
        EXPECT_EQ(ViaRunSolve(problem, spec, warm), daemon);
        EXPECT_EQ(ViaSweep(problem, spec, warm), daemon);
      }
    }
  }
}

TEST(SolvePath, LtWelfareComesFromTheLtEstimator) {
  const Graph graph = GoldenGraph();
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = MakeTwoItemConfig12();
  problem.budgets = {3, 3};
  problem.model = DiffusionModel::kLinearThreshold;
  const SolveSpec spec = GoldenRequest(2);
  Result<SolveOutcome> outcome = RunSolve(problem, spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome.value().welfare.has_value());
  const WelfareEstimate lt =
      EstimateWelfareLt(graph, outcome.value().result.allocation,
                        *problem.params, 200, 9);
  EXPECT_EQ(outcome.value().welfare->welfare, lt.welfare);
  EXPECT_EQ(outcome.value().welfare->std_error, lt.std_error);
}

TEST(SolvePath, EvalSimsOutsideTheLimitAreRejectedBeforeSolving) {
  const Graph graph = GoldenGraph();
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = MakeTwoItemConfig12();
  problem.budgets = {3, 3};
  for (const long long sims : {-1LL, kMaxEvalSims + 1}) {
    SolveSpec spec = GoldenRequest(1);
    spec.eval_sims = sims;
    EXPECT_EQ(CheckSolve(problem, spec).code(),
              Status::Code::kInvalidArgument)
        << sims;
    RrStreamCache cache;
    EXPECT_FALSE(RunSolve(problem, spec, &cache).ok()) << sims;
    EXPECT_EQ(cache.stats().sampled_sets, 0u) << sims;
  }
}

TEST(SolvePath, SolvesThatTabulateUtilitiesAreLimitedTo20Items) {
  // A welfare estimate, mc-greedy and bdhs evaluate all 2^items itemsets;
  // past kMaxTabulatedItems items they are rejected before solving. A solve
  // that only selects seeds may use up to kMaxItems.
  const Graph graph = GoldenGraph();
  for (const ItemId items : {kMaxTabulatedItems, kMaxTabulatedItems + 1}) {
    WelfareProblem problem;
    problem.graph = &graph;
    problem.params = MakeAdditiveConfig5(items);
    problem.budgets.assign(items, 1);
    const bool over = items > kMaxTabulatedItems;
    for (const char* algorithm : {"bundle-grd", "mc-greedy", "bdhs"}) {
      SolveSpec spec = GoldenRequest(1);
      spec.algorithm = algorithm;
      spec.eval_sims = 0;
      const bool selects_only = std::string(algorithm) == "bundle-grd";
      EXPECT_EQ(CheckSolve(problem, spec).ok(), selects_only || !over)
          << algorithm << " at " << items << " items";
      spec.eval_sims = 10;
      EXPECT_EQ(CheckSolve(problem, spec).code(),
                over ? Status::Code::kInvalidArgument : Status::Code::kOk)
          << algorithm << " at " << items << " items, estimated";
    }
  }
}

}  // namespace
}  // namespace uic
