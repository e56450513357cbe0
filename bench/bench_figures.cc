// bench_figures: the paper's §6 tables, figures and ablations as rows of
// one figure table. A row's function builds the figure's SweepSpecs
// (exp/sweep.h), so every solve is a SweepRunner cell; what a figure
// computes beyond its cells (network statistics, cross-model and spread
// estimates, certificates) reads the cells' allocations and rankings.
//
//   bench_figures --list
//   bench_figures --figure NAME|all [--scale S] [--mc N] [--eps E]
//
// --scale (stand-in size) and --mc (simulations per estimate) default to
// each figure's own values, which --list shows; --eps defaults to 0.5.
// Each figure prints its tables under one "== name: caption ==" header,
// then the shape the paper reports. Exit codes: 0 ok, 1 a failed sweep
// cell, 2 a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "diffusion/ic_model.h"
#include "diffusion/lt_model.h"
#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/sweep.h"
#include "graph/stats.h"
#include "graph/subgraph.h"
#include "items/gap.h"
#include "items/supermodular_generators.h"
#include "rrset/certificate.h"
#include "welfare/block_accounting.h"

namespace uic {
namespace {

/// The settings one figure runs at.
struct Run {
  double scale;  ///< stand-in size multiplier (exp/networks.h)
  size_t mc;     ///< simulations per welfare or spread estimate
  double eps;    ///< the solvers' approximation slack
};

using Rows = std::vector<std::vector<std::string>>;
/// One field of a sweep cell, as table text.
using Cell = std::function<std::string(const SweepRow&)>;

std::string Welfare(const SweepRow& row) {
  return TablePrinter::Num(row.welfare, 1);
}
std::string Seconds(const SweepRow& row) {
  return TablePrinter::Num(row.seconds(), 3);
}
std::string Millis(const SweepRow& row) {
  return TablePrinter::Num(row.seconds() * 1e3, 0);
}
std::string RrSets(const SweepRow& row) {
  return TablePrinter::Int(static_cast<long long>(row.num_rr_sets()));
}
std::string Sampled(const SweepRow& row) {
  return TablePrinter::Int(static_cast<long long>(row.rr_sets_sampled));
}

/// Runs `spec` on a SweepRunner, exiting 1 when a cell fails, and pivots
/// the cells into `rows`, which holds one row per budget point (its
/// label, and any columns an earlier sweep added): for each of `cells`,
/// each algorithm of `columns` (by default the spec's own) appends that
/// field of its cell at the point, or "skipped" when the spec does not run
/// the algorithm. The report is returned for what a pivot does not show.
SweepReport Sweep(const SweepSpec& spec, Rows* rows = nullptr,
                  const std::vector<Cell>& cells = {},
                  std::vector<std::string> columns = {}) {
  Result<SweepReport> report = SweepRunner(spec).Run();
  if (!report.ok()) {
    std::fprintf(stderr, "bench_figures: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  if (columns.empty()) columns = spec.algorithms;
  const size_t points = spec.budget_points.size();
  for (const Cell& cell : cells) {
    for (const std::string& name : columns) {
      const auto algorithm = std::ranges::find(spec.algorithms, name);
      const size_t first = (algorithm - spec.algorithms.begin()) * points;
      for (size_t p = 0; p < points; ++p) {
        (*rows)[p].push_back(algorithm == spec.algorithms.end()
                                 ? "skipped"
                                 : cell(report.value().rows[first + p]));
      }
    }
  }
  return report.MoveValue();
}

/// A sweep of `algorithms` over `points` on `graph` at the run's eps and
/// the figure's solver seed. With `eval_seed`, each cell's welfare is
/// estimated with the run's simulations under that seed.
SweepSpec Spec(const Graph& graph, std::optional<ItemParams> params,
               std::vector<std::string> algorithms,
               std::vector<std::vector<uint32_t>> points, uint64_t seed,
               const Run& run, std::optional<uint64_t> eval_seed = {}) {
  SweepSpec spec;
  spec.graph = &graph;
  spec.params = std::move(params);
  spec.algorithms = std::move(algorithms);
  spec.budget_points = std::move(points);
  spec.options.eps = run.eps;
  spec.options.seed = seed;
  spec.eval_simulations = eval_seed.has_value() ? run.mc : 0;
  spec.eval_seed = eval_seed.value_or(0);
  return spec;
}

void Print(std::vector<std::string> header, const Rows& rows) {
  TablePrinter table(std::move(header));
  for (const std::vector<std::string>& row : rows) table.AddRow(row);
  table.Print();
}

void PrintTotals(const SweepReport& report) {
  std::printf("rr sets consumed %zu, sampled %zu (%s sweep)\n",
              report.total_rr_sets, report.total_rr_sampled,
              report.warm ? "warm" : "cold");
}

constexpr uint64_t kNetSeed = 20190630;

/// The two-item algorithms of Figs. 4-6, in their columns' order.
const std::vector<std::string> kTwoItem = {
    "bundle-grd", "rr-sim+", "rr-cim", "item-disj", "bundle-disj"};
/// The algorithms that handle any number of items.
const std::vector<std::string> kAnyItems = {"bundle-grd", "item-disj",
                                            "bundle-disj"};
/// A panel of Fig. 4 or 7: a configuration at uniform or skewed budgets.
struct Panel {
  const char* title;
  ItemParams params;
  bool uniform;
};

/// Uniform two-item budgets k = 10, 30, 50 and their row labels.
const std::vector<std::vector<uint32_t>> kUniform = {
    {10, 10}, {30, 30}, {50, 50}};
Rows UniformRows() { return {{"k=10"}, {"k=30"}, {"k=50"}}; }

/// A total split 30/30/20/10/10 over the items {ps, c, g1, g2, g3}.
std::vector<uint32_t> Moderate(uint32_t total) {
  return {total * 30 / 100, total * 30 / 100, total * 20 / 100,
          total * 10 / 100, total * 10 / 100};
}

/// Table 6's and Fig. 8(d)'s splits of a total budget of 500 over five
/// items: uniform; large skew, with 82% on item 0 and the rest split
/// evenly; and moderate skew.
const char* const kSplitNames[] = {"Uniform", "Large skew", "Moderate skew"};
std::vector<std::vector<uint32_t>> Splits() {
  const uint32_t total = 500, u = total / 5, big = total * 82 / 100;
  const uint32_t small = (total - big) / 4;
  return {{u, u, u, u, u}, {big, small, small, small, small},
          Moderate(total)};
}

void Table2(const Run& run) {
  TablePrinter sizes({"network", "type", "paper n", "paper m", "built n",
                      "built m", "built avg deg"});
  TablePrinter stats({"network", "max in-deg", "largest WCC",
                      "gini(in-deg)", "sources", "sinks"});
  // DescribeAllNetworks lists the stand-ins in StandIns() order.
  const std::vector<NetworkInfo> infos =
      DescribeAllNetworks(kNetSeed, run.scale);
  for (size_t i = 0; i < infos.size(); ++i) {
    const NetworkInfo& info = infos[i];
    sizes.AddRow({info.name, info.directed ? "directed" : "undirected",
                  TablePrinter::Int(info.paper_nodes),
                  TablePrinter::Int(static_cast<long long>(info.paper_edges)),
                  TablePrinter::Int(info.built_nodes),
                  TablePrinter::Int(static_cast<long long>(info.built_edges)),
                  TablePrinter::Num(static_cast<double>(info.built_edges) /
                                        info.built_nodes,
                                    2)});
    const GraphStats s =
        ComputeGraphStats(StandIns()[i].make(kNetSeed, run.scale));
    stats.AddRow({info.name, TablePrinter::Int(s.max_in_degree),
                  TablePrinter::Int(s.largest_wcc),
                  TablePrinter::Num(s.gini_in_degree, 3),
                  TablePrinter::Int(s.num_sources),
                  TablePrinter::Int(s.num_sinks)});
  }
  sizes.Print();
  std::printf("\nstructural statistics of the stand-ins:\n");
  stats.Print();
}

void Table5(const Run&) {
  const ItemParams params = MakeRealPlaystationParams();
  TablePrinter table({"itemset", "price", "value", "det. utility"});
  const ItemSet ps = ItemBit(0), c = ItemBit(1);
  const std::vector<std::pair<std::string, ItemSet>> rows = {
      {"{ps}", ps},
      {"{ps,c}", ps | c},
      {"{ps,g1,g2,g3}", ps | ItemBit(2) | ItemBit(3) | ItemBit(4)},
      {"{ps,g1,g2,c}", ps | c | ItemBit(2) | ItemBit(3)},
      {"{ps,g1,g2,g3,c}", FullItemSet(5)},
  };
  for (const auto& [label, set] : rows) {
    table.AddRow({label, TablePrinter::Num(params.Price(set), 1),
                  TablePrinter::Num(params.value().Value(set), 1),
                  TablePrinter::Num(params.DeterministicUtility(set), 1)});
  }
  table.Print();

  std::printf("\nitem prices: ");
  for (ItemId i = 0; i < 5; ++i) {
    std::printf("%s=C$%.0f ", RealPlaystationItemNames()[i].c_str(),
                params.ItemPrice(i));
  }

  std::printf("\n\nsupermodularity evidence (controller marginal value):\n");
  const ItemSet games = ItemBit(2) | ItemBit(3) | ItemBit(4);
  std::printf("  V(c | ps)          = %+.1f\n",
              params.value().Value(ps | c) - params.value().Value(ps));
  std::printf("  V(c | ps,g1,g2,g3) = %+.1f  (grows with the bundle)\n",
              params.value().Value(ps | games | c) -
                  params.value().Value(ps | games));

  std::printf("\npositive-utility itemsets (ps + c + >=2 games only):\n");
  for (ItemSet s = 1; s <= FullItemSet(5); ++s) {
    if (params.DeterministicUtility(s) > 0) {
      std::printf("  %s: %+.1f\n", ItemSetToString(s).c_str(),
                  params.DeterministicUtility(s));
    }
  }

  // Eq. (12)'s GAP view of the two "core" items.
  std::printf("\nderived GAP parameters for the (ps, c) pair:\n");
  std::printf("  q_{c|ps} = %.3f vs q_{c|empty} = %.3f\n",
              GapProbability(params, 1, ItemBit(0)),
              GapProbability(params, 1, kEmptyItemSet));
}

void Table6(const Run& run) {
  const Graph graph = MakeTwitterLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  // IMM is PRIMA with one budget, so a one-item bundle-grd cell at b
  // counts IMM(b)'s sets: one sweep runs PRIMA on each split, then IMM on
  // each item budget of each split. MAX_IMM is the largest IMM count over
  // a split's items (IMM re-run per budget), IMM_MAX the count of one IMM
  // run at the split's largest budget.
  std::vector<std::vector<uint32_t>> points = Splits();
  for (size_t s = 0; s < 3; ++s) {
    for (size_t i = 0; i < 5; ++i) points.push_back({points[s][i]});
  }
  const SweepReport report =
      Sweep(Spec(graph, std::nullopt, {"bundle-grd"}, points, 7, run));
  std::map<uint32_t, long long> imm;
  for (size_t r = 3; r < report.rows.size(); ++r) {
    imm[points[r][0]] = static_cast<long long>(report.rows[r].num_rr_sets());
  }
  Rows rows;
  for (size_t s = 0; s < 3; ++s) {
    long long max_imm = 0;
    for (uint32_t b : points[s]) max_imm = std::max(max_imm, imm[b]);
    rows.push_back({kSplitNames[s], RrSets(report.rows[s]),
                    TablePrinter::Int(max_imm),
                    TablePrinter::Int(imm[std::ranges::max(points[s])])});
  }
  Print({"budget distribution", "bundleGRD", "MAX_IMM", "IMM_MAX"}, rows);
}

void Fig4(const Run& run) {
  const Graph graph = MakeDoubanMovieLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  // Configurations 1/2 share one Param, as do 3/4; the even ones pin
  // item 1's budget at 70 and sweep item 2's.
  const std::vector<std::vector<uint32_t>> skewed = {
      {70, 30}, {70, 70}, {70, 110}};
  const Panel panels[] = {
      {"(a) Configuration 1 (uniform budgets)", MakeTwoItemConfig12(), true},
      {"(b) Configuration 2 (non-uniform budgets)", MakeTwoItemConfig12(),
       false},
      {"(c) Configuration 3 (uniform budgets)", MakeTwoItemConfig34(), true},
      {"(d) Configuration 4 (non-uniform budgets)", MakeTwoItemConfig34(),
       false},
  };
  for (const auto& panel : panels) {
    std::printf("\n-- %s --\n", panel.title);
    const TwoItemGap gap = DeriveTwoItemGap(panel.params);
    std::printf("GAP: q1|0=%.2f q2|0=%.2f q1|2=%.2f q2|1=%.2f\n",
                gap.q1_none, gap.q2_none, gap.q1_given2, gap.q2_given1);
    Rows rows = panel.uniform ? UniformRows()
                              : Rows{{"b2=30"}, {"b2=70"}, {"b2=110"}};
    const SweepReport report =
        Sweep(Spec(graph, panel.params, kTwoItem,
                   panel.uniform ? kUniform : skewed, 11, run, 555),
              &rows, {Welfare});
    Print({"budget", "bundleGRD", "RR-SIM+", "RR-CIM", "item-disj",
           "bundle-disj"},
          rows);
    PrintTotals(report);
  }
}

/// Figs. 5 and 6: Configuration 1 over uniform budgets on four
/// stand-ins, one `cell` per algorithm. RR-SIM+ and RR-CIM are skipped on
/// Twitter, where the paper's runs timed out (> 6 h).
void FourNetworks(const Run& run, uint64_t seed, const Cell& cell,
                  const std::string& unit) {
  for (uint64_t i = 0; i < 4; ++i) {  // Flixster, Douban-*, Twitter
    const StandIn& network = StandIns()[i];
    const Graph graph = network.make(i + 1, run.scale);
    std::printf("\n-- (%c) %s: %s --\n", static_cast<char>('a' + i),
                network.name, graph.Summary().c_str());
    std::vector<std::string> algorithms = kAnyItems;
    if (i < 3) algorithms.insert(algorithms.end(), {"rr-sim+", "rr-cim"});
    Rows rows = UniformRows();
    const SweepReport report =
        Sweep(Spec(graph, MakeTwoItemConfig12(), algorithms, kUniform, seed,
                   run),
              &rows, {cell}, kTwoItem);
    Print({"budget", "bundleGRD" + unit, "RR-SIM+" + unit, "RR-CIM" + unit,
           "item-disj" + unit, "bundle-disj" + unit},
          rows);
    PrintTotals(report);
  }
}

// Fig. 5's times are warm-sweep times: the first budget point pays for
// the shared pool and later points ride on it, the regime the paper
// sweeps its figures in.
void Fig5(const Run& run) { FourNetworks(run, 31, Millis, "(ms)"); }

void Fig6(const Run& run) { FourNetworks(run, 41, RrSets, ""); }

void Fig7(const Run& run) {
  const Graph graph = MakeTwitterLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  // Five items. A non-uniform split puts 20% of the total on item 0, 2%
  // on the last item and the rest evenly on the others; the cone's core
  // item is item 0 in Configuration 6 and the last item in 7.
  const auto split = [](uint32_t total, bool uniform) {
    const uint32_t rest = (total - total / 5 - total / 50) / 3;
    return uniform ? std::vector<uint32_t>(5, total / 5)
                   : std::vector<uint32_t>{total / 5, rest, rest, rest,
                                           total / 50};
  };
  const Panel panels[] = {
      {"(a) Configuration 5: additive, uniform budgets",
       MakeAdditiveConfig5(5), true},
      {"(b) Configuration 6: cone-max, non-uniform budgets",
       MakeConeConfig67(5, /*core_item=*/0), false},
      {"(c) Configuration 7: cone-min, non-uniform budgets",
       MakeConeConfig67(5, /*core_item=*/4), false},
      {"(d) Configuration 8: level-wise random, uniform budgets",
       MakeLevelwiseConfig8(5, /*seed=*/8), true},
  };
  for (const auto& panel : panels) {
    std::printf("\n-- %s --\n", panel.title);
    Rows rows = {{"100"}, {"300"}, {"500"}};
    Sweep(Spec(graph, panel.params, kAnyItems,
               {split(100, panel.uniform), split(300, panel.uniform),
                split(500, panel.uniform)},
               71, run, 777),
          &rows, {Welfare});
    Print({"total budget", "bundleGRD", "item-disj", "bundle-disj"}, rows);
  }
}

void Fig8a(const Run& run) {
  const Graph graph = MakeTwitterLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  // Configuration 5 at 50 seeds per item: one cold sweep per item count.
  Rows rows;
  for (ItemId items = 1; items <= 10; ++items) {
    Rows row = {{std::to_string(items)}};
    SweepSpec spec = Spec(graph, MakeAdditiveConfig5(items), kAnyItems,
                          {std::vector<uint32_t>(items, 50)}, 81, run);
    spec.warm = false;
    Sweep(spec, &row, {Seconds});
    rows.push_back(row[0]);
  }
  Print({"#items", "bundleGRD(s)", "item-disj(s)", "bundle-disj(s)"}, rows);
}

void Fig8bc(const Run& run) {
  const Graph graph = MakeTwitterLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  // item-disj is omitted, as in the paper: every singleton has negative
  // deterministic utility, so its welfare is 0.
  std::vector<std::vector<uint32_t>> points;
  Rows rows;
  for (uint32_t total = 100; total <= 500; total += 100) {
    points.push_back(Moderate(total));
    rows.push_back({std::to_string(total)});
  }
  SweepSpec spec = Spec(graph, MakeRealPlaystationParams(),
                        {"bundle-grd", "bundle-disj"}, points, 91, run, 888);
  spec.warm = false;
  Sweep(spec, &rows, {Welfare, Seconds});
  Print({"total budget", "bundleGRD welfare", "bundle-disj welfare",
         "bundleGRD(s)", "bundle-disj(s)"},
        rows);
}

// The three splits run as one warm sweep: PRIMA's pools for the smaller
// max-budgets are prefixes of the large-skew point's pool, so the whole
// figure costs about one 410-budget solve.
void Fig8d(const Run& run) {
  const Graph graph = MakeTwitterLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  Rows rows = {{kSplitNames[0]}, {kSplitNames[1]}, {kSplitNames[2]}};
  const SweepReport report = Sweep(
      Spec(graph, MakeRealPlaystationParams(), {"bundle-grd"}, Splits(), 101,
           run, 999),
      &rows,
      {Welfare, Seconds,
       [](const SweepRow& row) {
         return std::to_string(std::ranges::max(row.budgets));
       },
       Sampled});
  Print({"distribution", "welfare", "time(s)", "max budget", "rr sampled"},
        rows);
  PrintTotals(report);
}

void Fig9(const Run& run) {
  // Two complementary items, individually break-even, +1 jointly, with
  // the noise removed so both sides of the comparison score exactly the
  // deterministic utility per adopter (UIC's rational adopters otherwise
  // enjoy a selection bias BDHS's externality model has no analogue of,
  // which would inflate the propagation side of the ratio).
  const std::vector<double> prices = {3.0, 4.0};
  const ItemParams params(MakeValueFromUtilities(2, prices, {0, 0, 0, 1}),
                          prices, NoiseModel::Zero(2));
  // Orkut, Douban-Book and Douban-Movie (StandIns() rows 4, 1 and 2),
  // each with the shares of its nodes that bundleGRD seeds.
  const std::pair<size_t, std::vector<double>> panels[] = {
      {4, {1, 2, 5, 15, 25, 35}},
      {1, {2, 5, 10, 30, 50, 70, 90}},
      {2, {2, 5, 10, 20, 30, 40, 50}}};
  for (uint64_t i = 0; i < 3; ++i) {
    const StandIn& network = StandIns()[panels[i].first];
    const Graph graph = network.make(i + 1, run.scale);
    std::printf("\n-- (%c) %s: %s --\n", static_cast<char>('a' + i),
                network.name, graph.Summary().c_str());
    // BDHS may assign the best bundle to every node (no budget, no
    // propagation) and reports that benchmark welfare as its objective.
    // BDHS-Concave needs a uniform edge probability: the solver evaluates
    // it on a p = 0.01 re-weighted copy, as the paper does.
    SweepSpec bdhs = Spec(graph, params, {"bdhs"}, {{0, 0}}, 1, run);
    const SweepRow step = Sweep(bdhs).rows[0];
    bdhs.options.bdhs.variant = BdhsVariant::kConcave;
    bdhs.options.bdhs.uniform_p = 0.01;
    const SweepRow concave = Sweep(bdhs).rows[0];
    const Allocation& all = step.result.allocation;
    const ItemSet bundle =
        all.empty() ? kEmptyItemSet : all.entries()[0].second;
    std::printf("benchmarks: BDHS-Step %.1f | BDHS-Concave %.1f (bundle %s)\n",
                step.objective(), concave.objective(),
                ItemSetToString(bundle).c_str());

    // bundleGRD seeds k = x% of the nodes with both items.
    std::vector<std::vector<uint32_t>> points;
    Rows rows;
    for (double percent : panels[i].second) {
      const uint32_t k = static_cast<uint32_t>(
          percent / 100.0 * static_cast<double>(graph.num_nodes()));
      if (k == 0) continue;
      points.push_back({k, k});
      rows.push_back({TablePrinter::Num(percent, 0)});
    }
    const auto share_of = [](double benchmark) {
      return [benchmark](const SweepRow& row) {
        return TablePrinter::Num(
            benchmark > 0 ? 100.0 * row.welfare / benchmark : 0, 1);
      };
    };
    Sweep(Spec(graph, params, {"bundle-grd"}, points, 111, run, 1234), &rows,
          {Welfare, share_of(step.objective()),
           share_of(concave.objective())});
    Print({"% budget", "bundleGRD welfare", "% of BDHS-Step",
           "% of BDHS-Concave"},
          rows);
  }
}

void Fig9d(const Run& run) {
  const Graph full = MakeOrkutLike(kNetSeed, run.scale);
  std::printf("full network: %s\n", full.Summary().c_str());
  // Configuration 1 at k = 50 per item on BFS subgraphs of 20%..100% of
  // the nodes, under (1) weighted cascade 1/din(v) and (2) the fixed
  // probability 0.01: one sweep per subgraph and weighting.
  Rows rows;
  for (int percent = 20; percent <= 100; percent += 20) {
    const uint64_t target = uint64_t{full.num_nodes()} * percent / 100;
    Graph sub = BfsInducedSubgraph(full, 0, static_cast<NodeId>(target));
    Rows row = {{std::to_string(percent), std::to_string(sub.num_nodes())}};
    const auto solve = [&] {
      Sweep(Spec(sub, MakeTwoItemConfig12(), {"bundle-grd"}, {{50, 50}}, 121,
                 run, 4321),
            &row, {Welfare, Seconds});
    };
    sub.ApplyWeightedCascade();
    solve();
    sub.ApplyConstantProbability(0.01);
    solve();
    rows.push_back(row[0]);
  }
  Print({"% nodes", "n", "welfare1 (1/din)", "time1(s)", "welfare2 (p=0.01)",
         "time2(s)"},
        rows);
}

void AblationBundling(const Run& run) {
  const Graph graph = MakeDoubanMovieLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  const ItemParams params = MakeRealPlaystationParams();
  const auto& names = RealPlaystationItemNames();
  constexpr uint32_t k = 50;
  // One shared bundleGRD ranking; items join the bundle on its top-k
  // prefix in the order ps, c, g1, g2, g3.
  const SweepReport report = Sweep(Spec(graph, std::nullopt, {"bundle-grd"},
                                        {{k, k, k, k, k}}, 151, run));
  const std::vector<NodeId>& ranking = report.rows[0].result.ranking;
  TablePrinter table({"bundle", "det. utility", "welfare", "adopters"});
  for (ItemId j = 1; j <= 5; ++j) {
    Allocation alloc;
    const ItemSet bundle = FullItemSet(j);
    for (uint32_t r = 0; r < k && r < ranking.size(); ++r) {
      alloc.Add(ranking[r], bundle);
    }
    const WelfareEstimate w =
        EstimateWelfare(graph, alloc, params, run.mc, 777);
    std::string label;
    for (ItemId i = 0; i < j; ++i) label += (i ? "+" : "") + names[i];
    table.AddRow({label,
                  TablePrinter::Num(params.DeterministicUtility(bundle), 1),
                  TablePrinter::Num(w.welfare, 1),
                  TablePrinter::Num(w.avg_adopters, 1)});
  }
  table.Print();

  std::printf("\nblock structure of the full configuration:\n");
  const UtilityTable det(params);
  const BlockDecomposition d = GenerateBlocks(det, {k, k, k, k, k});
  for (size_t i = 0; i < d.num_blocks(); ++i) {
    std::printf("  block %zu: %s  Δ=%+.1f\n", i + 1,
                ItemSetToString(d.blocks[i]).c_str(), d.deltas[i]);
  }
}

void AblationLt(const Run& run) {
  const Graph graph = MakeDoubanMovieLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  const ItemParams params = MakeTwoItemConfig12();
  // A cell estimates its welfare under the model it selected seeds for;
  // the cross column scores the same allocation under the other model.
  Rows rows = UniformRows();
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const auto cross = model == DiffusionModel::kIndependentCascade
                           ? EstimateWelfareLt
                           : EstimateWelfare;
    SweepSpec spec =
        Spec(graph, params, {"bundle-grd"}, kUniform, 131, run, 7);
    spec.model = model;
    spec.warm = false;
    Sweep(spec, &rows,
          {Welfare,
           [&](const SweepRow& row) {
             return TablePrinter::Num(
                 cross(graph, row.result.allocation, params, run.mc, 7, 0)
                     .welfare,
                 1);
           },
           Seconds});
  }
  Print({"budget", "IC-sel/IC-eval", "IC-sel/LT-eval", "IC time(s)",
         "LT-sel/LT-eval", "LT-sel/IC-eval", "LT time(s)"},
        rows);
}

void AblationPrefix(const Run& run) {
  const Graph graph = MakeDoubanBookLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  // PRIMA's ranking for the budget vector, and IMM's (PRIMA with one
  // budget) at every k: one bundle-grd cell each. IMM(100)'s prefixes
  // carry no guarantee below k = 100, the only size its sample was tuned
  // for; IMM(k) direct re-runs IMM per budget, guaranteed but |b| runs.
  const SweepReport report =
      Sweep(Spec(graph, std::nullopt, {"bundle-grd"},
                 {{100, 50, 20, 5}, {5}, {20}, {50}, {100}}, 7, run));
  const SweepRow& prima = report.rows[0];
  const auto prefix = [](const SweepRow& row, size_t k) {
    const std::vector<NodeId>& ranking = row.result.ranking;
    return std::vector<NodeId>(
        ranking.begin(), ranking.begin() + std::min(k, ranking.size()));
  };
  const auto spread = [&](const std::vector<NodeId>& seeds) {
    return TablePrinter::Num(EstimateSpread(graph, seeds, run.mc, 99), 1);
  };
  TablePrinter table({"k", "PRIMA prefix", "IMM(100) prefix",
                      "IMM(k) direct", "PRIMA certificate"});
  for (size_t i = 1; i <= 4; ++i) {
    const uint32_t k = report.rows[i].budgets[0];
    const std::vector<NodeId> prima_prefix = prefix(prima, k);
    const SpreadCertificate cert =
        CertifySeedSet(graph, prima_prefix, 30000, 0.01, 55);
    table.AddRow({std::to_string(k), spread(prima_prefix),
                  spread(prefix(report.rows[4], k)),
                  spread(prefix(report.rows[i], k)),
                  ">= " + TablePrinter::Num(cert.ratio, 3) + " OPT"});
  }
  table.Print();
}

void AblationPrice(const Run& run) {
  const Graph graph = MakeDoubanMovieLike(kNetSeed, run.scale);
  std::printf("%s\n", graph.Summary().c_str());
  // Three items, modest synergy in the valuation; prices 3/3/3.
  const std::vector<double> prices = {3.0, 3.0, 3.0};
  auto value = std::make_shared<TabularValueFunction>(
      3, std::vector<double>{0.0, 3.0, 3.0, 6.5, 3.0, 6.5, 6.5, 10.5});
  // bundleGRD and item-disj never read the utilities, so the sweep omits
  // params: one allocation each serves every price model below.
  const SweepReport report =
      Sweep(Spec(graph, std::nullopt, {"bundle-grd", "item-disj"},
                 {{30, 30, 30}}, 141, run));
  TablePrinter table({"price model", "bundle utility", "bundleGRD",
                      "item-disj", "GRD/disj"});
  for (double discount : {1.0, 0.85, 0.7, 0.5}) {
    auto price =
        std::make_shared<VolumeDiscountPriceFunction>(prices, discount);
    const ItemParams params(value, price, NoiseModel::IidGaussian(3, 1.0));
    const auto welfare = [&](const SweepRow& row) {
      return EstimateWelfare(graph, row.result.allocation, params, run.mc, 888)
          .welfare;
    };
    const double w_grd = welfare(report.rows[0]);
    const double w_disj = welfare(report.rows[1]);
    const std::string label =
        discount == 1.0 ? "additive"
                        : "discount " + TablePrinter::Num(discount, 2);
    table.AddRow({label,
                  TablePrinter::Num(params.DeterministicUtility(0b111), 2),
                  TablePrinter::Num(w_grd, 1), TablePrinter::Num(w_disj, 1),
                  TablePrinter::Num(w_disj > 0 ? w_grd / w_disj : 0.0, 2)});
  }
  table.Print();
}

/// \brief One figure: its --figure name, what it shows, the shape the
/// paper reports, and the --scale and --mc it runs at by default.
struct Figure {
  const char* name;
  const char* caption;
  const char* expected;
  double scale;
  long mc;  ///< 0 when the figure estimates nothing
  void (*run)(const Run&);
};

/// Sorted by name, the --list order.
constexpr Figure kFigures[] = {
    {"ablation-bundling", "welfare vs bundle size on one seed prefix",
     "welfare jumps where the bundle first turns profitable and grows "
     "superlinearly after it: the power of bundling behind bundleGRD's "
     "advantage (§4.2.1)",
     0.5, 400, AblationBundling},
    {"ablation-lt", "bundleGRD under IC vs LT, cross-evaluated (§5)",
     "the UIC results carry over to any triggering model; matched selection "
     "and evaluation win their own evaluation column",
     0.5, 500, AblationLt},
    {"ablation-prefix", "prefix preservation, PRIMA vs plain IMM",
     "PRIMA's sample size pays a union bound over all budgets, so every "
     "prefix carries the (1-1/e-eps) guarantee; the per-budget certificate "
     "column verifies it a posteriori. In practice plain IMM prefixes are "
     "close — the guarantee, not the typical case, is what PRIMA buys, at "
     "only a log(#budgets) sampling overhead and none of the |b| reruns",
     0.5, 5000, AblationPrefix},
    {"ablation-price", "additive vs volume-discount prices (§5)",
     "the allocations do not change; a submodular price makes bundles "
     "cheaper, which raises welfare for every allocation and widens "
     "bundleGRD's lead over item-disj",
     0.5, 400, AblationPrice},
    {"fig4", "Fig. 4: welfare on the two-item configurations",
     "bundleGRD, RR-SIM+, RR-CIM reach similar welfare (the Com-IC "
     "algorithms end up bundling the same seeds); the disjoint baselines "
     "trail by up to ~5x",
     0.5, 400, Fig4},
    {"fig5", "Fig. 5: running time, Configuration 1",
     "bundleGRD == bundle-disj here (equivalent under Config 1) and both "
     "are fastest; item-disj ~1.5x slower (one IMM call at the summed "
     "budget); RR-SIM+ and RR-CIM are orders of magnitude slower and time "
     "out on Twitter (they are skipped there, as in the paper)",
     0.5, 0, Fig5},
    {"fig6", "Fig. 6: #RR sets generated, Configuration 1",
     "RR-SIM+ and RR-CIM (TIM-style bound) generate several times more RR "
     "sets than the IMM-based bundleGRD / item-disj / bundle-disj",
     0.5, 0, Fig6},
    {"fig7", "Fig. 7: multi-item welfare, Configurations 5-8",
     "bundleGRD >= both baselines everywhere, up to ~4x; under Config 5 "
     "(additive) and Config 6 the algorithms are closest",
     0.5, 300, Fig7},
    {"fig8a", "Fig. 8(a): running time vs #items",
     "bundleGRD's time is flat in the number of items (one PRIMA call at "
     "the max budget); item-disj grows (one IMM call at budget k*s); "
     "bundle-disj grows fastest (s IMM calls at budget k) — at 10 items "
     "bundleGRD is ~8x faster than bundle-disj and ~2.5x faster than "
     "item-disj",
     0.5, 0, Fig8a},
    {"fig8bc", "Fig. 8(b,c): real PlayStation parameters",
     "bundleGRD beats bundle-disj at every budget, by >2x at the high end "
     "(b); and is ~1.5x faster (c)",
     0.5, 300, Fig8bc},
    {"fig8d", "Fig. 8(d): budget skew, real PlayStation parameters",
     "welfare uniform > moderate > large skew; running time uniform < "
     "moderate < large skew (skew inflates the max budget)",
     0.5, 300, Fig8d},
    {"fig9", "Fig. 9(a-c): bundleGRD vs BDHS externality benchmarks",
     "dense networks (Orkut) reach the benchmark with <35% of the budget; "
     "sparse ones (Douban-Book) need ~82%; and the curve is concave — e.g. "
     "75% of the benchmark at only 50% budget",
     0.2, 200, Fig9},
    {"fig9d", "Fig. 9(d): bundleGRD scalability on Orkut subgraphs",
     "running time grows roughly linearly with network size; welfare grows "
     "sublinearly",
     0.5, 200, Fig9d},
    {"table2", "Table 2: network statistics of the stand-ins",
     "each stand-in keeps its network's directedness and average degree; "
     "Twitter and Orkut are scaled down to laptop size",
     1.0, 0, Table2},
    {"table5", "Table 5: learned PlayStation parameters",
     "only ps + c + at least two games has positive utility, and the "
     "controller's marginal value grows with the bundle (supermodular)",
     1.0, 0, Table5},
    {"table6", "Table 6: #RR sets, bundleGRD vs MAX_IMM vs IMM_MAX",
     "all three counts are (nearly) identical — PRIMA achieves prefix "
     "preservation at IMM-like memory (exact equality in the paper; here "
     "PRIMA pays a small log|b| union-bound factor)",
     0.5, 0, Table6},
};

constexpr const char* kUsage =
    "usage: bench_figures --list\n"
    "       bench_figures --figure NAME|all [--scale S] [--mc N] [--eps E]\n";

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  constexpr std::string_view kFlags[] = {"list", "figure", "scale", "mc",
                                         "eps"};
  flags.RejectUnknown(kFlags);
  if (flags.GetBool("list")) {
    for (const Figure& figure : kFigures) {
      std::printf("%-18s scale %.2f, mc %-5ld %s\n", figure.name,
                  figure.scale, figure.mc, figure.caption);
    }
    return 0;
  }
  const std::string name = flags.GetString("figure");
  const auto chosen = [&](const Figure& f) {
    return name == "all" || name == f.name;
  };
  if (std::ranges::none_of(kFigures, chosen)) {
    std::fprintf(stderr, "bench_figures: no figure named '%s'\n%s",
                 name.c_str(), kUsage);
    return 2;
  }
  for (const Figure& figure : kFigures) {
    if (!chosen(figure)) continue;
    const long mc = flags.GetInt("mc", figure.mc);
    const Run run{flags.GetDouble("scale", figure.scale),
                  static_cast<size_t>(mc), flags.GetDouble("eps", 0.5)};
    // At scale 1000 the largest stand-in has 4e7 nodes, far below 2^32.
    if (!(run.scale > 0 && run.scale <= 1000) || mc < 0 || mc > kMaxEvalSims) {
      std::fprintf(stderr,
                   "bench_figures: --scale must be in (0, 1000] and --mc in "
                   "[0, %lld]\n",
                   kMaxEvalSims);
      return 2;
    }
    std::printf("== %s: %s (scale %.2f, mc %zu, eps %.2f) ==\n", figure.name,
                figure.caption, run.scale, run.mc, run.eps);
    figure.run(run);
    std::printf("\nexpected shape (paper): %s\n\n", figure.expected);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace uic

int main(int argc, char** argv) { return uic::Main(argc, argv); }
