#include "comic/rr_sim.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "comic/comic_model.h"
#include "rrset/imm.h"
#include "rrset/node_selection.h"

namespace uic {

namespace {

/// TIM-style sample requirement: θ = λ_TIM / LB with
/// λ_TIM = (8 + 2ε) n (ℓ log n + log C(n,k) + log 2) / ε².
double LambdaTim(double n, double k, double eps, double ell) {
  return (8.0 + 2.0 * eps) * n *
         (ell * std::log(n) + LogChoose(n, k) + std::log(2.0)) / (eps * eps);
}

/// Shared skeleton of RR-SIM+/RR-CIM once the per-node pass probabilities
/// are fixed: estimate a lower bound on the (adoption-weighted) optimum by
/// IMM-style doubling, then sample θ = λ_TIM/LB sets and greedily select.
AllocationResult SelectWithNodeCoins(const Graph& graph,
                                     const std::vector<float>& pass_prob,
                                     uint32_t budget1,
                                     const std::vector<NodeId>& seeds2,
                                     const SolverOptions& options) {
  AllocationResult result;
  const double n = static_cast<double>(graph.num_nodes());
  const double eps = options.eps;
  const double ell = options.ell;
  const double eps_prime = std::sqrt(2.0) * eps;

  RrOptions rr_options;
  rr_options.node_pass_prob = &pass_prob;
  rr_options.stream_cache = options.rr_options.stream_cache;
  RrCollection pool(graph, options.seed, options.workers, rr_options);

  // Doubling phase to find a lower bound LB on the optimal coverage.
  double lb = 1.0;
  const double i_max = std::log2(n) - 1.0;
  SeedSelection sel;
  for (double i = 1.0; i <= i_max; i += 1.0) {
    const double x = n / std::pow(2.0, i);
    const double theta_i =
        LambdaPrime(n, budget1, eps_prime, ell) / std::max(x, 1.0);
    pool.GenerateUntil(static_cast<size_t>(std::ceil(theta_i)));
    sel = NodeSelection(pool, budget1);
    const double covered = n * sel.CoverageAt(budget1);
    if (covered >= (1.0 + eps_prime) * x) {
      lb = covered / (1.0 + eps_prime);
      break;
    }
  }

  const double theta = LambdaTim(n, budget1, eps, ell) / lb;
  // Final pass on the same engine instance under a fresh seed (the bound
  // requires sets sampled after θ was fixed).
  const size_t doubling_rr_sets = pool.size();
  pool.Reset(options.seed ^ 0xc1a0u);
  pool.GenerateUntil(
      std::max<size_t>(1, static_cast<size_t>(std::ceil(theta))));
  SeedSelection final_sel = NodeSelection(pool, budget1);

  result.num_rr_sets = doubling_rr_sets + pool.size();
  result.ranking = final_sel.seeds;
  for (size_t r = 0; r < final_sel.seeds.size() && r < budget1; ++r) {
    result.allocation.AddItem(final_sel.seeds[r], 0);
  }
  for (NodeId v : seeds2) result.allocation.AddItem(v, 1);
  return result;
}

}  // namespace

AllocationResult RrSimPlus(const Graph& graph, const TwoItemGap& gap,
                           uint32_t budget1, uint32_t budget2,
                           const SolverOptions& options) {
  WallTimer timer;
  // Item i2's seeds by plain IMM (warm-started when a cache is attached).
  RrOptions imm_rr;
  imm_rr.stream_cache = options.rr_options.stream_cache;
  ImResult imm2 = Imm(graph, budget2, options.eps, options.ell,
                      options.seed ^ 0xb2u, options.workers, {}, imm_rr);
  std::vector<NodeId> seeds2(imm2.seeds.begin(),
                             imm2.seeds.begin() +
                                 std::min<size_t>(budget2, imm2.seeds.size()));

  // Node coins: q_{1|∅} everywhere, boosted to q_{1|2} at i2's seeds.
  std::vector<float> pass(graph.num_nodes(),
                          static_cast<float>(gap.q1_none));
  for (NodeId v : seeds2) pass[v] = static_cast<float>(gap.q1_given2);

  AllocationResult result =
      SelectWithNodeCoins(graph, pass, budget1, seeds2, options);
  result.num_rr_sets += imm2.num_rr_sets;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

AllocationResult RrCim(const Graph& graph, const TwoItemGap& gap,
                       uint32_t budget1, uint32_t budget2,
                       const SolverOptions& options) {
  WallTimer timer;
  RrOptions imm_rr;
  imm_rr.stream_cache = options.rr_options.stream_cache;
  ImResult imm2 = Imm(graph, budget2, options.eps, options.ell,
                      options.seed ^ 0xb2u, options.workers, {}, imm_rr);
  std::vector<NodeId> seeds2(imm2.seeds.begin(),
                             imm2.seeds.begin() +
                                 std::min<size_t>(budget2, imm2.seeds.size()));

  // Forward Monte-Carlo estimation of each node's i2-adoption probability
  // (this pass is what makes RR-CIM the slowest algorithm, cf. Fig. 5).
  // Fixed-grid streams so the counts — and hence the derived node coins —
  // are worker-count invariant. The accumulators are kRngStreams × n
  // uint32 regardless of the worker count (streams may run concurrently,
  // so they cannot share a slot without synchronization); at the repo's
  // laptop-scale stand-ins (≤ ~40K nodes, networks.h) that is a few MB.
  const size_t sims =
      std::max<size_t>(1, options.comic.cim_forward_simulations);
  std::vector<std::vector<uint32_t>> counts(
      kRngStreams, std::vector<uint32_t>(graph.num_nodes(), 0));
  ParallelForStreams(
      sims, options.workers, [&](unsigned s, size_t begin, size_t end) {
        ComIcSimulator sim(graph, gap);
        Rng rng = Rng::Split(options.seed ^ 0xf0f0u, s);
        for (size_t i = begin; i < end; ++i) {
          sim.Run({}, seeds2, rng, &counts[s]);
        }
      });
  std::vector<float> pass(graph.num_nodes(), 0.0f);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    uint64_t c = 0;
    for (unsigned s = 0; s < kRngStreams; ++s) c += counts[s][v];
    const double p2 = static_cast<double>(c) / static_cast<double>(sims);
    pass[v] = static_cast<float>(gap.q1_none * (1.0 - p2) +
                                 gap.q1_given2 * p2);
  }

  AllocationResult result =
      SelectWithNodeCoins(graph, pass, budget1, seeds2, options);
  result.num_rr_sets += imm2.num_rr_sets;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace uic
