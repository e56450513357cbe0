#include "rrset/prima.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uic {

ImResult Prima(const Graph& graph, const std::vector<uint32_t>& budgets_in,
               double eps, double ell, uint64_t seed, unsigned workers,
               const std::vector<NodeId>& excluded, RrOptions rr_options) {
  ImResult result;
  if (budgets_in.empty()) return result;
  UIC_CHECK_GT(eps, 0.0);
  UIC_CHECK_GT(ell, 0.0);

  std::vector<uint32_t> budgets(budgets_in);
  std::sort(budgets.begin(), budgets.end(), std::greater<>());
  while (!budgets.empty() && budgets.back() == 0) budgets.pop_back();
  if (budgets.empty()) return result;

  const double n = static_cast<double>(graph.num_nodes());
  UIC_CHECK_GE(graph.num_nodes(), 2u);
  const size_t b = std::min<size_t>(budgets[0], graph.num_nodes());

  // Line 2: boost ℓ for the final union bound, then pay for |®b| budgets.
  const double ell_boosted = ell + std::log(2.0) / std::log(n);
  const double ell_prime =
      ell_boosted + std::log(static_cast<double>(budgets.size())) / std::log(n);
  const double eps_prime = std::sqrt(2.0) * eps;

  obs::TraceSpan phases_span("solver.prima");
  WallTimer sampling_timer;
  double sampling_seconds = 0.0;
  double selection_seconds = 0.0;

  RrCollection pool(graph, seed, workers, rr_options);
  const double i_max = std::log2(n) - 1.0;

  size_t s = 0;      // index into budgets
  double i = 1.0;    // phase counter
  bool budget_switch = false;
  SeedSelection last_sel;
  double theta_max = 0.0;

  while (i <= i_max && s < budgets.size()) {
    const double k = static_cast<double>(budgets[s]);
    const double x = n / std::pow(2.0, i);
    const double theta_i = LambdaPrime(n, k, eps_prime, ell_prime) / x;

    sampling_timer.Restart();
    pool.GenerateUntil(static_cast<size_t>(std::ceil(theta_i)));
    sampling_seconds += sampling_timer.ElapsedSeconds();

    double covered_frac;
    if (budget_switch) {
      // Reuse the prefix of the ordering computed for the previous (larger)
      // budget on the same pool — NodeSelection is deterministic greedy, so
      // its first k picks are NodeSelection(R, k).
      covered_frac = last_sel.CoverageAt(budgets[s]);
    } else {
      WallTimer sel_timer;
      last_sel = NodeSelection(pool, budgets[s], excluded);
      selection_seconds += sel_timer.ElapsedSeconds();
      covered_frac = last_sel.CoverageAt(budgets[s]);
    }

    if (n * covered_frac >= (1.0 + eps_prime) * x) {
      const double lb = n * covered_frac / (1.0 + eps_prime);
      const double theta_k = LambdaStar(n, k, eps, ell_prime) / lb;
      sampling_timer.Restart();
      pool.GenerateUntil(static_cast<size_t>(std::ceil(theta_k)));
      sampling_seconds += sampling_timer.ElapsedSeconds();
      theta_max = std::max(theta_max, theta_k);
      ++s;
      budget_switch = true;
    } else {
      i += 1.0;
      budget_switch = false;
    }
  }

  if (s < budgets.size()) {
    // Phases exhausted: fall back to LB = 1 for the current budget (line
    // 21). Smaller remaining budgets need no more samples since λ* is
    // monotone in k.
    const double theta_k =
        LambdaStar(n, static_cast<double>(budgets[s]), eps, ell_prime);
    sampling_timer.Restart();
    pool.GenerateUntil(static_cast<size_t>(std::ceil(theta_k)));
    sampling_seconds += sampling_timer.ElapsedSeconds();
    theta_max = std::max(theta_max, theta_k);
  }

  // Regeneration fix: the guarantee requires the final NodeSelection to run
  // on RR sets whose count was fixed *before* sampling them. Regenerate the
  // pool from scratch at the determined size — reusing the same engine
  // instance (streams, index, thread pool) under a fresh seed.
  double theta_final = theta_max;
  if (theta_final <= 0.0) theta_final = static_cast<double>(pool.size());
  const size_t final_count =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(theta_final)));
  pool.Reset(seed ^ 0x5bf03635u);
  sampling_timer.Restart();
  pool.GenerateUntil(final_count);
  sampling_seconds += sampling_timer.ElapsedSeconds();

  WallTimer sel_timer;
  SeedSelection sel = NodeSelection(pool, b, excluded);
  selection_seconds += sel_timer.ElapsedSeconds();

  result.seeds = std::move(sel.seeds);
  result.coverage = std::move(sel.coverage);
  result.num_rr_sets = pool.size();
  result.total_rr_nodes = pool.TotalNodes();
  result.sampling_seconds = sampling_seconds;
  result.selection_seconds = selection_seconds;

  // One phase-time record per Prima run (the phases interleave across
  // rounds, so the accumulated sums are the per-phase truth).
  UIC_METRIC_TIMING_COUNTER(generate_us, "uic_solver_phase_us_total",
                            "phase=\"generate\"",
                            "Wall time per solve phase, microseconds.");
  UIC_METRIC_TIMING_COUNTER(select_us, "uic_solver_phase_us_total",
                            "phase=\"select\"",
                            "Wall time per solve phase, microseconds.");
  generate_us.Add(static_cast<uint64_t>(sampling_seconds * 1e6));
  select_us.Add(static_cast<uint64_t>(selection_seconds * 1e6));
  phases_span.SetAttr("generate_us",
                      static_cast<long long>(sampling_seconds * 1e6));
  phases_span.SetAttr("select_us",
                      static_cast<long long>(selection_seconds * 1e6));
  phases_span.SetAttr("rr_sets", static_cast<long long>(pool.size()));
  return result;
}

}  // namespace uic
