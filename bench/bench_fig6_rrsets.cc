// Fig. 6: number of RR sets generated (the memory footprint proxy) by each
// algorithm under Configuration 1 on four networks.
//
// Expected shape (paper): RR-SIM+ and RR-CIM (TIM-style bound) generate
// several times more RR sets than the IMM-based bundleGRD / item-disj /
// bundle-disj.
#include <cstdio>

#include "common/table.h"
#include "exp/configs.h"
#include "exp/flags.h"
#include "exp/networks.h"
#include "exp/solve.h"

namespace uic {
namespace {

void RunNetwork(const std::string& name, const Graph& graph,
                const ItemParams& params, bool run_comic, double eps) {
  std::printf("\n-- %s: %s --\n", name.c_str(), graph.Summary().c_str());
  TablePrinter table({"budget", "bundleGRD", "RR-SIM+", "RR-CIM",
                      "item-disj", "bundle-disj"});
  SolverOptions options;
  options.eps = eps;
  WelfareProblem problem;
  problem.graph = &graph;
  problem.params = params;
  uint64_t seed = 41;
  for (uint32_t k = 10; k <= 50; k += 20) {
    problem.budgets = {k, k};
    options.seed = seed;
    const AllocationResult grd = MustSolve("bundle-grd", problem, options);
    const AllocationResult idisj = MustSolve("item-disj", problem, options);
    const AllocationResult bdisj =
        MustSolve("bundle-disj", problem, options);
    std::string sim_sets = "skipped", cim_sets = "skipped";
    if (run_comic) {
      const AllocationResult sim_plus =
          MustSolve("rr-sim+", problem, options);
      const AllocationResult cim = MustSolve("rr-cim", problem, options);
      sim_sets = TablePrinter::Int(static_cast<long long>(sim_plus.num_rr_sets));
      cim_sets = TablePrinter::Int(static_cast<long long>(cim.num_rr_sets));
    }
    table.AddRow({"k=" + std::to_string(k),
                  TablePrinter::Int(static_cast<long long>(grd.num_rr_sets)),
                  sim_sets, cim_sets,
                  TablePrinter::Int(static_cast<long long>(idisj.num_rr_sets)),
                  TablePrinter::Int(static_cast<long long>(bdisj.num_rr_sets))});
    ++seed;
  }
  table.Print();
}

}  // namespace
}  // namespace uic

int main(int argc, char** argv) {
  using namespace uic;
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.5);
  const double eps = flags.GetDouble("eps", 0.5);

  std::printf("== Fig. 6: #RR sets generated, Configuration 1 "
              "(scale %.2f) ==\n",
              scale);
  const ItemParams params = MakeTwoItemConfig12();
  RunNetwork("(a) Flixster", MakeFlixsterLike(1, scale), params, true, eps);
  RunNetwork("(b) Douban-Book", MakeDoubanBookLike(2, scale), params, true,
             eps);
  RunNetwork("(c) Douban-Movie", MakeDoubanMovieLike(3, scale), params, true,
             eps);
  RunNetwork("(d) Twitter", MakeTwitterLike(4, scale), params, false, eps);
  return 0;
}
