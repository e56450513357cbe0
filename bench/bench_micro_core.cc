// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate primitives: RR-set sampling, UIC simulation, utility-table
// construction, greedy max-cover selection.
#include <benchmark/benchmark.h>

#include "common/check.h"
#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "exp/sweep.h"
#include "graph/generators.h"
#include "items/utility_table.h"
#include "rrset/node_selection.h"
#include "rrset/rr_collection.h"
#include "serve/server.h"

namespace uic {
namespace {

const Graph& BenchGraph() {
  static const Graph g = [] {
    Graph graph = GeneratePreferentialAttachment(20000, 6, false, 99);
    graph.ApplyWeightedCascade();
    return graph;
  }();
  return g;
}

void BM_RrSetSampling(benchmark::State& state) {
  const Graph& g = BenchGraph();
  RrSampler sampler(g);
  Rng rng(1);
  std::vector<NodeId> rr;
  size_t total_nodes = 0;
  for (auto _ : state) {
    sampler.SampleInto(rng, &rr);
    total_nodes += rr.size();
    benchmark::DoNotOptimize(rr.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["avg_rr_size"] = static_cast<double>(total_nodes) /
                                  static_cast<double>(state.iterations());
}
BENCHMARK(BM_RrSetSampling);

void BM_UicSimulation(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const ItemParams params = MakeTwoItemConfig12();
  const UtilityTable table(params);
  UicSimulator sim(g);
  Rng rng(2);
  Allocation alloc;
  for (NodeId v = 0; v < static_cast<NodeId>(state.range(0)); ++v) {
    alloc.Add(v, 0b11);
  }
  for (auto _ : state) {
    const UicOutcome out = sim.Run(alloc, table, rng);
    benchmark::DoNotOptimize(out.welfare);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UicSimulation)->Arg(10)->Arg(50)->Arg(200);

void BM_UtilityTableBuild(benchmark::State& state) {
  const ItemId k = static_cast<ItemId>(state.range(0));
  const ItemParams params = MakeAdditiveConfig5(k);
  Rng rng(3);
  for (auto _ : state) {
    const std::vector<double> noise = params.noise().Sample(rng);
    const UtilityTable table(params, noise);
    benchmark::DoNotOptimize(table.Utility(FullItemSet(k)));
  }
}
BENCHMARK(BM_UtilityTableBuild)->Arg(2)->Arg(5)->Arg(10);

void BM_BestAdoption(benchmark::State& state) {
  const ItemId k = static_cast<ItemId>(state.range(0));
  const ItemParams params = MakeConeConfig67(k, 0);
  const UtilityTable table(params);
  const ItemSet full = FullItemSet(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.BestAdoption(0, full));
  }
}
BENCHMARK(BM_BestAdoption)->Arg(2)->Arg(5)->Arg(10);

void BM_NodeSelection(benchmark::State& state) {
  const Graph& g = BenchGraph();
  RrCollection pool(g, 4, 4);
  pool.GenerateUntil(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const SeedSelection sel = NodeSelection(pool, 50);
    benchmark::DoNotOptimize(sel.seeds.data());
  }
}
BENCHMARK(BM_NodeSelection)->Arg(10000)->Arg(50000);

// --- RR engine scaling benchmarks (ISSUE 3) ---------------------------
// Args: (workers, pool size). These measure the two halves of the hot
// path PRIMA/IMM spend nearly all their time in, at worker counts
// {1, 4, 8} and pool sizes {10k, 100k}, so thread-pool and index
// regressions are visible in isolation.

void BM_GenerateUntil(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const unsigned workers = static_cast<unsigned>(state.range(0));
  const size_t target = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    RrCollection pool(g, 7, workers);
    pool.GenerateUntil(target);
    benchmark::DoNotOptimize(pool.TotalNodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target));
}
BENCHMARK(BM_GenerateUntil)
    ->ArgsProduct({{1, 4, 8}, {10000, 100000}})
    ->Unit(benchmark::kMillisecond);

void BM_NodeSelectionScaling(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const unsigned workers = static_cast<unsigned>(state.range(0));
  const size_t target = static_cast<size_t>(state.range(1));
  RrCollection pool(g, 7, workers);
  pool.GenerateUntil(target);
  for (auto _ : state) {
    const SeedSelection sel = NodeSelection(pool, 50);
    benchmark::DoNotOptimize(sel.seeds.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target));
}
BENCHMARK(BM_NodeSelectionScaling)
    ->ArgsProduct({{1, 4, 8}, {10000, 100000}})
    ->Unit(benchmark::kMillisecond);

// Generation + selection end to end: the complete RR round a PRIMA phase
// executes. The index-maintenance refactor shifts work from selection
// into generation; this is the number that must not regress overall.
void BM_GenerateAndSelect(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const unsigned workers = static_cast<unsigned>(state.range(0));
  const size_t target = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    RrCollection pool(g, 7, workers);
    pool.GenerateUntil(target);
    const SeedSelection sel = NodeSelection(pool, 50);
    benchmark::DoNotOptimize(sel.seeds.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target));
}
BENCHMARK(BM_GenerateAndSelect)
    ->ArgsProduct({{1, 4, 8}, {10000, 100000}})
    ->Unit(benchmark::kMillisecond);

// --- sampling kernels: scan vs skip (ISSUE 8) --------------------------
// Args: (scheme, kernel). Pool generation (workers 4) under the legacy
// per-edge scan kernel vs the geometric skip kernel, across the repo's
// probability regimes and degree skews: weighted cascade on a heavy-tailed
// PA graph (the acceptance pair — compare against BM_GenerateUntil/4/
// 100000, which runs kernel auto = skip), sparse/dense constant
// probabilities on ER, and trivalency on PA. The skip kernel's win grows
// as per-edge probabilities shrink (fewer successes per examined edge).
void BM_SampleKernel(benchmark::State& state) {
  static const Graph* schemes[] = {nullptr, nullptr, nullptr, nullptr};
  static const char* names[] = {"wc_pa", "const_lo_er", "const_hi_er",
                                "trivalency_pa"};
  const size_t scheme = static_cast<size_t>(state.range(0));
  if (schemes[scheme] == nullptr) {
    Graph* g = new Graph();
    switch (scheme) {
      case 0:
        *g = BenchGraph();
        break;
      case 1:
        *g = GenerateErdosRenyi(20000, 120000, 99);
        g->ApplyConstantProbability(0.01);
        break;
      case 2:
        *g = GenerateErdosRenyi(20000, 120000, 99);
        g->ApplyConstantProbability(0.15);
        break;
      default:
        *g = GeneratePreferentialAttachment(20000, 6, false, 99);
        g->ApplyTrivalency({0.1, 0.01, 0.001}, 13);
        break;
    }
    schemes[scheme] = g;
  }
  const Graph& g = *schemes[scheme];
  RrOptions opt;
  opt.kernel =
      state.range(1) == 0 ? SamplingKernel::kScan : SamplingKernel::kSkip;
  // Each iteration builds its plan from scratch (an O(V+E) one-time cost
  // real runs amortize over the whole pool); the targets are big enough
  // that per-set sampling dominates it.
  const size_t target = scheme == 3 ? 30000 : 100000;
  for (auto _ : state) {
    RrCollection pool(g, 7, 4, opt);
    pool.GenerateUntil(target);
    benchmark::DoNotOptimize(pool.TotalNodes());
  }
  state.SetLabel(std::string(names[scheme]) + "/" +
                 SamplingKernelName(opt.kernel));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target));
}
BENCHMARK(BM_SampleKernel)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_GraphGeneration(benchmark::State& state) {
  for (auto _ : state) {
    Graph g = GeneratePreferentialAttachment(
        static_cast<NodeId>(state.range(0)), 6, false, 5);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GraphGeneration)->Arg(10000)->Arg(40000);

// --- budget sweep: warm pool reuse vs cold per-point runs (ISSUE 4) ----
// A 4-point bundleGRD budget sweep through SweepRunner, warm (arg 1: one
// shared RrStreamCache across points) vs cold (arg 0: cache cleared per
// point). Results are bit-identical; the counters show the warm sweep
// samples a fraction of the cold run's RR sets, and wall-clock follows.
void BM_BudgetSweep(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  static const Graph& g = []() -> const Graph& {
    static Graph graph = GeneratePreferentialAttachment(5000, 6, false, 31);
    graph.ApplyWeightedCascade();
    return graph;
  }();
  size_t sampled = 0, consumed = 0;
  for (auto _ : state) {
    SweepSpec spec;
    spec.graph = &g;
    spec.algorithms = {"bundle-grd"};
    spec.budget_points = {{10, 10}, {20, 20}, {30, 30}, {40, 40}};
    spec.options.seed = 9;
    spec.eval_simulations = 0;
    spec.warm = warm;
    SweepRunner runner(spec);
    Result<SweepReport> report = runner.Run();
    UIC_CHECK(report.ok());
    sampled += report.value().total_rr_sampled;
    consumed += report.value().total_rr_sets;
    benchmark::DoNotOptimize(report.value().rows.data());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["rr_sampled"] = static_cast<double>(sampled) / iters;
  state.counters["rr_consumed"] = static_cast<double>(consumed) / iters;
}
BENCHMARK(BM_BudgetSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- serve: repeated welfare query, warm pool vs cold (ISSUE 7) --------
// One daemon, one pinned graph, the same solve request over and over —
// the serving hot path. Warm (arg 1) reuses the daemon's RR pool so each
// repeat re-solves without resampling; cold (arg 0) pays the full RR
// sampling cost every time. Responses are bit-identical either way (the
// determinism contract); `rr_sampled_per_query` shows warm at 0 after the
// first fill, and the time ratio is the serving speedup the warm cache
// buys (acceptance bar: >= 2x). The second argument picks the instance:
// 0 is ER(2000) with budgets [5,5]; 1 is the perfbench serve-mixed graph
// and request (weighted-cascade PA(100k), eps 0.2, budgets [50,50]),
// where a warm re-solve's per-node costs show.
void BM_ServeRepeatedQuery(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const bool pa = state.range(1) != 0;
  serve::ServerOptions options;
  options.include_timing = false;
  serve::Server server(options);
  UIC_CHECK(server
                .HandleLine(pa ? "{\"verb\":\"load_graph\",\"name\":\"g\","
                                 "\"network\":\"pa\",\"nodes\":100000}"
                               : "{\"verb\":\"load_graph\",\"name\":\"g\","
                                 "\"network\":\"er\",\"nodes\":2000,"
                                 "\"edges\":12000}")
                .find("\"ok\":true") != std::string::npos);
  UIC_CHECK(server
                .HandleLine("{\"verb\":\"load_params\",\"name\":\"p\","
                            "\"config\":\"config12\"}")
                .find("\"ok\":true") != std::string::npos);
  const std::string request =
      std::string("{\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\",") +
      (pa ? "\"budgets\":[50,50],\"seed\":4,\"eps\":0.2,"
          : "\"budgets\":[5,5],\"seed\":4,") +
      "\"warm\":" + (warm ? "true}" : "false}");
  size_t queries = 0, sampled = 0;
  for (auto _ : state) {
    const std::string response = server.HandleLine(request);
    benchmark::DoNotOptimize(response.data());
    const Result<serve::Json> parsed = serve::Json::Parse(response);
    UIC_CHECK(parsed.ok());
    ++queries;
    sampled += static_cast<size_t>(
        parsed.value().Find("serve")->Find("rr_sets_sampled")->AsInt());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["rr_sampled_per_query"] =
      static_cast<double>(sampled) / static_cast<double>(queries);
}
BENCHMARK(BM_ServeRepeatedQuery)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"warm", "pa"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace uic

BENCHMARK_MAIN();
