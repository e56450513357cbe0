// The one solve path: the same instance and request through RunSolve, a
// one-point SweepRunner and the daemon's solve verb must agree bit for bit
// on the allocation, the pool size, the objective and the welfare estimate
// — under IC and under LT (scored by the LT estimator), at 1 and 4
// workers, warm and cold, with every solver tuning field the daemon reads.
// Both front ends read those fields through the same tables
// (exp/fields.h), so both readers must agree on every row.
#include "exp/solve.h"

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/lt_model.h"
#include "exp/configs.h"
#include "exp/fields.h"
#include "exp/flags.h"
#include "exp/specs.h"
#include "exp/sweep.h"
#include "items/itemset.h"
#include "items/utility_table.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session.h"

namespace uic {
namespace {

/// What the front ends must agree on.
struct Answer {
  std::vector<std::pair<NodeId, ItemSet>> allocation;
  size_t num_rr_sets = 0;
  double objective = 0.0;
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
  EXPECT_EQ(o.rr_sets_sampled == 0, warm || o.result.num_rr_sets == 0);
  EXPECT_TRUE(o.welfare.has_value());
  const WelfareEstimate w = o.welfare.value_or(WelfareEstimate{});
  return {o.result.allocation.entries(), o.result.num_rr_sets,
          o.result.objective, w.welfare, w.std_error};
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
  return {row.result.allocation.entries(), row.num_rr_sets(),
          row.result.objective, row.welfare, row.welfare_std_error};
}

/// A solve both ways: the algorithm and the JSON members the daemon reads
/// beyond the golden request's, and the same settings on SolverOptions.
struct Cell {
  const char* algorithm;
  const char* fields;  ///< each member with a leading comma
  void (*tune)(SolverOptions& options);
};

const Cell kCells[] = {
    {"bundle-grd", "", [](SolverOptions&) {}},
    {"bundle-grd", ",\"sampling_kernel\":\"scan\"",
     [](SolverOptions& o) { o.rr_options.kernel = SamplingKernel::kScan; }},
    {"bdhs", ",\"bdhs_variant\":\"concave\",\"uniform_p\":0.05",
     [](SolverOptions& o) {
       o.bdhs.variant = BdhsVariant::kConcave;
       o.bdhs.uniform_p = 0.05;
     }},
    {"bdhs", ",\"kappa\":0.5", [](SolverOptions& o) { o.bdhs.kappa = 0.5; }},
    {"mc-greedy", ",\"greedy_sims\":2",
     [](SolverOptions& o) { o.mc_greedy.simulations_per_eval = 2; }},
    {"rr-cim", ",\"cim_sims\":3",
     [](SolverOptions& o) { o.comic.cim_forward_simulations = 3; }},
};

Answer ViaDaemon(const Cell& cell, bool lt, bool warm) {
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
      "\",\"warm\":" + (warm ? "true" : "false") + ",\"algorithm\":\"" +
      cell.algorithm + "\"" + cell.fields + "}";
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
  answer.objective = result->Find("objective")->AsDouble();
  const serve::Json* welfare = result->Find("welfare");
  EXPECT_NE(welfare, nullptr) << line;
  if (welfare == nullptr) return answer;
  answer.welfare = welfare->Find("welfare")->AsDouble();
  answer.std_error = welfare->Find("std_error")->AsDouble();
  return answer;
}

TEST(SolvePath, RunSolveSweepAndDaemonAgreeUnderIcAndLt) {
  const Graph graph = GoldenGraph();
  for (const Cell& cell : kCells) {
    // Only the PRIMA family solves under LT.
    const bool prima = std::string(cell.algorithm) == "bundle-grd";
    for (const bool lt : {false, true}) {
      if (lt && !prima) continue;
      WelfareProblem problem;
      problem.graph = &graph;
      problem.params = MakeTwoItemConfig12();
      problem.budgets = {3, 3};
      problem.model = lt ? DiffusionModel::kLinearThreshold
                         : DiffusionModel::kIndependentCascade;
      for (const bool warm : {false, true}) {
        const Answer daemon = ViaDaemon(cell, lt, warm);
        ASSERT_FALSE(daemon.allocation.empty()) << cell.algorithm
                                                << cell.fields;
        for (const unsigned workers : {1u, 4u}) {
          SCOPED_TRACE(std::string(cell.algorithm) + cell.fields +
                       (lt ? " lt" : " ic") + (warm ? " warm" : " cold") +
                       " workers " + std::to_string(workers));
          SolveSpec spec = GoldenRequest(workers);
          spec.algorithm = cell.algorithm;
          cell.tune(spec.options);
          EXPECT_EQ(ViaRunSolve(problem, spec, warm), daemon);
          EXPECT_EQ(ViaSweep(problem, spec, warm), daemon);
        }
      }
    }
  }
}

TEST(SolvePath, TheProblemsModelIsTheOnlyLtSwitch) {
  // An LT flag left on the options of an IC problem once sampled LT sets,
  // and RunSolve then scored that allocation with the IC estimator.
  const Graph graph = GoldenGraph();
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = MakeTwoItemConfig12();
  problem.budgets = {3, 3};
  for (const char* algorithm : {"bundle-grd", "item-disj", "bundle-disj"}) {
    SolveSpec spec = GoldenRequest(1);
    spec.algorithm = algorithm;
    const Answer ic = ViaRunSolve(problem, spec, false);
    spec.options.rr_options.linear_threshold = true;
    EXPECT_EQ(ViaRunSolve(problem, spec, false), ic) << algorithm;
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

// --- the field tables ---------------------------------------------------

/// Every member a row sets, so that two specs compare as strings.
std::string Render(const NetworkSpec& s) {
  std::ostringstream out;
  out.precision(17);
  out << s.path << '|' << s.network << '|' << s.nodes << '|'
      << s.edges.value_or(-1) << '|' << s.seed << '|' << s.scale << '|'
      << s.p;
  return out.str();
}

std::string Render(const ConfigSpec& s) {
  std::ostringstream out;
  out << s.path << '|' << s.config << '|' << s.items << '|' << s.seed;
  return out.str();
}

std::string Render(const SolveRequest& r) {
  const SolverOptions& o = r.spec.options;
  std::ostringstream out;
  out.precision(17);
  out << r.spec.algorithm << '|' << o.seed << '|' << o.eps << '|' << o.ell
      << '|' << static_cast<int>(r.model) << '|'
      << SamplingKernelName(o.rr_options.kernel) << '|'
      << o.mc_greedy.simulations_per_eval << '|'
      << o.comic.cim_forward_simulations << '|'
      << static_cast<int>(o.bdhs.variant) << '|' << o.bdhs.kappa << '|'
      << o.bdhs.uniform_p << '|' << r.spec.eval_sims << '|'
      << r.spec.eval_seed;
  return out.str();
}

/// One row's good and bad value, as flag text and as a JSON value. A null
/// bad flag text passes the flag without a value.
struct RowValues {
  const char* good_flag;
  const char* good_json;
  const char* bad_flag;
  const char* bad_json;
};

RowValues ValuesFor(const std::string& flag, FieldKind kind) {
  if (flag == "model") return {"lt", "\"lt\"", "ms", "\"ms\""};
  if (flag == "sampling-kernel") {
    return {"scan", "\"scan\"", "auto", "\"auto\""};
  }
  if (flag == "bdhs-variant") {
    return {"concave", "\"concave\"", "convex", "\"convex\""};
  }
  if (flag.ends_with("seed")) return {"7", "7", "-1", "-1"};
  switch (kind) {
    case FieldKind::kText: return {"x", "\"x\"", nullptr, "7"};
    case FieldKind::kInt: return {"7", "7", "7.5", "7.5"};
    case FieldKind::kNumber: return {"0.25", "0.25", "x", "\"x\""};
  }
  return {};
}

/// Feeds each row of `fields` a good and a bad value through both readers.
template <typename Spec>
void ExpectReadersAgree(std::span<const Field<Spec>> fields,
                        const Spec& defaults) {
  for (const Field<Spec>& field : fields) {
    const RowValues values = ValuesFor(field.flag, field.kind);
    for (const bool good : {true, false}) {
      SCOPED_TRACE(std::string(field.flag) + (good ? " good" : " bad"));
      std::vector<std::string> args = {"uic_run",
                                       std::string("--") + field.flag};
      const char* text = good ? values.good_flag : values.bad_flag;
      if (text != nullptr) args.emplace_back(text);
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      const Flags flags(static_cast<int>(argv.size()), argv.data());
      Spec via_flags = defaults;
      const Status by_flag = flags.Apply(fields, &via_flags);

      const char* json = good ? values.good_json : values.bad_json;
      Result<serve::Json> body = serve::Json::Parse(
          std::string("{\"") + field.key + "\":" + json + "}");
      ASSERT_TRUE(body.ok());
      Spec via_json = defaults;
      const Status by_key =
          serve::ApplyFields(body.value(), fields, {}, &via_json);

      EXPECT_EQ(by_flag.ok(), good) << by_flag.ToString();
      EXPECT_EQ(by_key.ok(), good) << by_key.ToString();
      EXPECT_EQ(by_flag.code(), by_key.code());
      if (good) {
        EXPECT_EQ(Render(via_flags), Render(via_json));
        EXPECT_NE(Render(via_flags), Render(defaults));
      }
    }
  }
}

TEST(FieldTables, BothReadersSetAndRejectEveryRowAlike) {
  ExpectReadersAgree(NetworkFields(), NetworkSpec());
  ExpectReadersAgree(ConfigFields(), ConfigSpec());
  ExpectReadersAgree(SolveFields(), SolveRequest());
}

TEST(FieldTables, TheJsonReaderRejectsNamesNoRowOrVerbReads) {
  NetworkSpec spec;
  Result<serve::Json> body = serve::Json::Parse(
      "{\"id\":1,\"verb\":\"load_graph\",\"deadline_ms\":5,"
      "\"name\":\"g\",\"nodes\":9,\"edgez\":3}");
  ASSERT_TRUE(body.ok());
  const Status st =
      serve::ApplyFields(body.value(), NetworkFields(), {"name"}, &spec);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("'edgez'"), std::string::npos) << st.message();
  EXPECT_EQ(spec.nodes, NetworkSpec().nodes);  // rejected before any row
}

}  // namespace
}  // namespace uic
