// Table 6: number of RR sets generated by bundleGRD (PRIMA) versus two
// single-budget IMM variants, under the three budget distributions of
// Fig. 8(d):
//   MAX_IMM — max over items of the RR sets IMM generates at that item's
//             budget (IMM is re-run per budget);
//   IMM_MAX — IMM run once at the maximum budget.
//
// Expected shape (paper): all three counts are (nearly) identical — PRIMA
// achieves prefix preservation at IMM-like memory. (Exact equality in the
// paper; here PRIMA pays a small log|®b| union-bound factor.)
#include <cstdio>

#include "common/table.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"
#include "rrset/prima.h"

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const double eps = flags.GetDouble("eps", 0.5);
  const uint32_t total = static_cast<uint32_t>(flags.GetInt("total", 500));

  std::printf("== Table 6: #RR sets, bundleGRD vs MAX_IMM vs IMM_MAX "
              "(Twitter-like, scale %.2f, total budget %u) ==\n",
              scale, total);
  const Graph graph = MakeTwitterLike(/*seed=*/20190630, scale);
  std::printf("%s\n", graph.Summary().c_str());

  struct Split {
    std::string name;
    std::vector<uint32_t> budgets;
  };
  const uint32_t u = total / 5;
  const uint32_t big = total * 82 / 100;
  const uint32_t small = (total - big) / 4;
  const std::vector<Split> splits = {
      {"Uniform", {u, u, u, u, u}},
      {"Large skew", {big, small, small, small, small}},
      {"Moderate skew",
       {total * 30 / 100, total * 30 / 100, total * 20 / 100,
        total * 10 / 100, total * 10 / 100}},
  };

  TablePrinter table({"budget distribution", "bundleGRD", "MAX_IMM",
                      "IMM_MAX"});
  for (const Split& split : splits) {
    const ImResult prima = Prima(graph, split.budgets, eps, 1.0, 7, 0);
    size_t max_imm = 0;
    for (uint32_t b : split.budgets) {
      const ImResult imm = Imm(graph, b, eps, 1.0, 7, 0);
      max_imm = std::max(max_imm, imm.num_rr_sets);
    }
    uint32_t bmax = 0;
    for (uint32_t b : split.budgets) bmax = std::max(bmax, b);
    const ImResult imm_max = Imm(graph, bmax, eps, 1.0, 7, 0);
    table.AddRow({split.name,
                  TablePrinter::Int(static_cast<long long>(prima.num_rr_sets)),
                  TablePrinter::Int(static_cast<long long>(max_imm)),
                  TablePrinter::Int(
                      static_cast<long long>(imm_max.num_rr_sets))});
  }
  table.Print();
  return 0;
}
