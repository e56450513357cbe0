// Sampling-plan classification, scan-vs-skip kernel equivalence, and the
// graph as the one owner of its plans.
//
// The two kernels draw DIFFERENT RNG sequences, so cross-kernel checks are
// statistical (frequencies and means within tolerance at sample counts
// that put flakes many sigma away) except where an exact identity holds:
//   * p = 0 edges can never fire — RR sets are root singletons,
//   * p = 1 edges always fire — RR sets are the full reverse-reachable set,
//   * single-edge nodes — the geometric gap on a size-1 bucket is the
//     Bernoulli identity (gap == 0 ⟺ U < p) with the same one-draw cost,
//     so whole pools are bit-identical between kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "diffusion/ic_model.h"
#include "exp/configs.h"
#include "exp/solve.h"
#include "exp/sweep.h"
#include "graph/generators.h"
#include "graph/sampling_plan.h"
#include "obs/metrics.h"
#include "rrset/rr_collection.h"

namespace uic {
namespace {

using Direction = SamplingPlan::Direction;

Graph StarInto(NodeId leaves, const std::vector<double>& probs) {
  // Leaves 1..leaves each point at node 0 with probs[i % probs.size()].
  GraphBuilder b(leaves + 1);
  for (NodeId u = 1; u <= leaves; ++u) {
    b.AddEdge(u, 0, probs[(u - 1) % probs.size()]);
  }
  Result<Graph> g = b.Build();
  EXPECT_TRUE(g.ok());
  return g.MoveValue();
}

// --- flag spelling -----------------------------------------------------

TEST(SamplingKernelFlag, ParseAndNameRoundTrip) {
  for (SamplingKernel k : {SamplingKernel::kScan, SamplingKernel::kSkip}) {
    SamplingKernel parsed;
    ASSERT_TRUE(ParseSamplingKernel(SamplingKernelName(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  SamplingKernel parsed;
  for (const char* spelling : {"fast", "", "auto"}) {
    EXPECT_FALSE(ParseSamplingKernel(spelling, &parsed)) << spelling;
  }
  EXPECT_EQ(RrOptions().kernel, SamplingKernel::kSkip);
}

// --- geometric gap primitive -------------------------------------------

TEST(NextGeometric, MatchesBernoulliOnTheFirstTrial) {
  // gap == 0 ⟺ U < p, and both spellings consume exactly one draw — the
  // identity that makes size-1 buckets bit-compatible with the scan kernel.
  for (double p : {0.05, 0.3, 0.7, 0.97}) {
    Rng a = Rng::Split(11, 0);
    Rng b = Rng::Split(11, 0);
    const double l = std::log1p(-p);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_EQ(a.NextBernoulli(p), b.NextGeometric(l) == 0) << "p=" << p;
    }
  }
}

TEST(NextGeometric, CertainEdgeAlwaysFires) {
  Rng rng = Rng::Split(3, 1);
  const double l = std::log1p(-1.0);  // -inf
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.NextGeometric(l), 0u);
  }
}

TEST(NextGeometric, MeanMatchesGeometricDistribution) {
  for (double p : {0.1, 0.5, 0.9}) {
    Rng rng = Rng::Split(7, 2);
    const double l = std::log1p(-p);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.NextGeometric(l));
    const double mean = sum / n;
    const double want = (1.0 - p) / p;
    EXPECT_NEAR(mean, want, 0.05 * want + 0.01) << "p=" << p;
  }
}

// --- plan classification -----------------------------------------------

TEST(SamplingPlanClassification, WeightedCascadeIsAllUniform) {
  Graph g = GenerateErdosRenyi(200, 1200, 7);
  g.ApplyWeightedCascade();
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  EXPECT_EQ(plan->num_general_nodes(), 0u);
  EXPECT_EQ(plan->num_bucketed_nodes(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_FALSE(plan->IsGeneral(v));
    auto buckets = plan->Buckets(v);
    if (g.InDegree(v) == 0) {
      EXPECT_TRUE(buckets.empty());
      continue;
    }
    ASSERT_EQ(buckets.size(), 1u) << "node " << v;
    EXPECT_EQ(buckets[0].size, g.InDegree(v));
    EXPECT_FLOAT_EQ(buckets[0].p, 1.0f / static_cast<float>(g.InDegree(v)));
    // Uniform nodes alias the graph's own CSR slice.
    EXPECT_EQ(buckets[0].nodes, g.InNeighbors(v).data());
  }
}

TEST(SamplingPlanClassification, TrivalencyBucketsAreSortedAndComplete) {
  Graph g = GenerateErdosRenyi(200, 1200, 7);
  g.ApplyTrivalency({0.1, 0.01, 0.001}, 13);
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  EXPECT_EQ(plan->num_general_nodes(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto buckets = plan->Buckets(v);
    auto srcs = g.InNeighbors(v);
    auto probs = g.InProbs(v);
    ASSERT_LE(buckets.size(), 3u);
    size_t covered = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(buckets[i].p, buckets[i - 1].p);
      }
      // Every bucket member really is an in-neighbor with that probability.
      for (uint32_t j = 0; j < buckets[i].size; ++j) {
        bool found = false;
        for (size_t k = 0; k < srcs.size(); ++k) {
          if (srcs[k] == buckets[i].nodes[j] && probs[k] == buckets[i].p) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "node " << v;
      }
      covered += buckets[i].size;
    }
    EXPECT_EQ(covered, srcs.size()) << "node " << v;
  }
}

TEST(SamplingPlanClassification, ManyDistinctProbabilitiesFallBackToGeneral) {
  std::vector<double> probs;
  for (int i = 1; i <= 12; ++i) probs.push_back(0.01 * i);  // 12 > kMaxDistinct
  Graph g = StarInto(12, probs);
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  EXPECT_TRUE(plan->IsGeneral(0));
  EXPECT_EQ(plan->num_general_nodes(), 1u);
  EXPECT_TRUE(plan->Buckets(0).empty());
}

TEST(SamplingPlanClassification, DeadEdgesAreDroppedFromBuckets) {
  GraphBuilder b(4);
  b.AddEdge(1, 0, 0.5);
  b.AddEdge(2, 0, 0.0);  // can never fire
  b.AddEdge(3, 0, 0.5);
  b.AddEdge(1, 2, 0.0);  // node 2: only dead in-edges
  Graph g = b.Build().MoveValue();
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  ASSERT_FALSE(plan->IsGeneral(0));
  auto buckets = plan->Buckets(0);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].size, 2u);  // the p=0 edge is gone
  EXPECT_TRUE(plan->Buckets(2).empty());  // all-dead: no buckets, not general
  EXPECT_FALSE(plan->IsGeneral(2));
}

TEST(SamplingPlanClassification, ForwardDirectionStratifiesOutAdjacency) {
  Graph g = GenerateErdosRenyi(100, 600, 3);
  g.ApplyConstantProbability(0.2);
  auto plan = SamplingPlan::Build(g, Direction::kForward,
                                  SamplingPlan::kIcBuckets);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto buckets = plan->Buckets(u);
    if (g.OutDegree(u) == 0) {
      EXPECT_TRUE(buckets.empty());
    } else {
      ASSERT_EQ(buckets.size(), 1u);
      EXPECT_EQ(buckets[0].size, g.OutDegree(u));
      EXPECT_EQ(buckets[0].nodes, g.OutNeighbors(u).data());
    }
  }
}

// --- exact cross-kernel identities -------------------------------------

RrOptions KernelOpt(SamplingKernel k) {
  RrOptions opt;
  opt.kernel = k;
  return opt;
}

TEST(KernelEquivalenceExact, DeadGraphYieldsRootSingletonsUnderBothKernels) {
  Graph g = GenerateErdosRenyi(60, 400, 5);
  g.ApplyConstantProbability(0.0);
  for (SamplingKernel k : {SamplingKernel::kScan, SamplingKernel::kSkip}) {
    RrSampler sampler(g, KernelOpt(k));
    Rng rng = Rng::Split(9, 0);
    std::vector<NodeId> set;
    for (NodeId root = 0; root < g.num_nodes(); ++root) {
      sampler.SampleRootedInto(root, rng, &set);
      ASSERT_EQ(set, std::vector<NodeId>{root});
    }
  }
}

TEST(KernelEquivalenceExact, CertainGraphYieldsFullReachableSet) {
  // p = 1 everywhere: the RR set is exactly the reverse-reachable set,
  // whichever kernel samples it.
  Graph g = GenerateErdosRenyi(80, 500, 6);
  g.ApplyConstantProbability(1.0);
  RrSampler scan(g, KernelOpt(SamplingKernel::kScan));
  RrSampler skip(g, KernelOpt(SamplingKernel::kSkip));
  Rng rng_a = Rng::Split(9, 1);
  Rng rng_b = Rng::Split(9, 1);
  std::vector<NodeId> a, b;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    scan.SampleRootedInto(root, rng_a, &a);
    skip.SampleRootedInto(root, rng_b, &b);
    ASSERT_EQ(a, b) << "root " << root;  // same BFS order, same content
  }
}

TEST(KernelEquivalenceExact, SingleInEdgeNodesAreBitIdenticalAcrossKernels) {
  // A chain: every node has in-degree ≤ 1, so every bucket has size 1 and
  // the geometric gap degenerates to the Bernoulli identity — identical
  // draw sequence, identical sets, for arbitrarily many samples from ONE
  // shared RNG.
  GraphBuilder b(64);
  for (NodeId v = 1; v < 64; ++v) {
    b.AddEdge(v - 1, v, 0.05 + 0.9 * static_cast<double>(v) / 64.0);
  }
  Graph g = b.Build().MoveValue();
  RrSampler scan(g, KernelOpt(SamplingKernel::kScan));
  RrSampler skip(g, KernelOpt(SamplingKernel::kSkip));
  Rng rng_a = Rng::Split(4, 2);
  Rng rng_b = Rng::Split(4, 2);
  std::vector<NodeId> a, bset;
  for (int i = 0; i < 4000; ++i) {
    const size_t ea = scan.SampleInto(rng_a, &a);
    const size_t eb = skip.SampleInto(rng_b, &bset);
    ASSERT_EQ(a, bset) << "sample " << i;
    ASSERT_EQ(ea, eb) << "sample " << i;
  }
}

TEST(KernelEquivalenceExact, EdgesExaminedIsKernelIndependentPerSet) {
  // The EPT convention: edges examined = Σ in-degree over the set's nodes
  // — the skip kernel counts jumped-over edges as examined.
  Graph g = GenerateErdosRenyi(150, 900, 8);
  g.ApplyTrivalency({0.2, 0.05, 0.01}, 17);
  for (bool lt : {false, true}) {
    for (SamplingKernel k : {SamplingKernel::kScan, SamplingKernel::kSkip}) {
      RrOptions opt = KernelOpt(k);
      if (lt) {
        opt.linear_threshold = true;
      }
      RrSampler sampler(g, opt);
      Rng rng = Rng::Split(5, 3);
      std::vector<NodeId> set;
      for (int i = 0; i < 500; ++i) {
        const size_t edges = sampler.SampleInto(rng, &set);
        size_t want = 0;
        for (NodeId v : set) want += g.InDegree(v);
        ASSERT_EQ(edges, want) << "lt=" << lt;
      }
    }
  }
}

// --- statistical cross-kernel equivalence ------------------------------

TEST(KernelEquivalenceStatistical, PerEdgeFireFrequenciesMatchOnAStar) {
  // Mixed bucketed star: each leaf joins the root's RR set iff its edge
  // fires, so membership frequency estimates the edge probability exactly.
  const std::vector<double> probs = {0.8, 0.5, 0.5, 0.2, 0.2, 0.05};
  const NodeId leaves = 18;
  Graph g = StarInto(leaves, probs);
  const int n = 120000;
  for (SamplingKernel k : {SamplingKernel::kScan, SamplingKernel::kSkip}) {
    RrSampler sampler(g, KernelOpt(k));
    Rng rng = Rng::Split(2, 4);
    std::vector<NodeId> set;
    std::vector<int> hits(leaves + 1, 0);
    for (int i = 0; i < n; ++i) {
      sampler.SampleRootedInto(0, rng, &set);
      for (NodeId v : set) ++hits[v];
    }
    for (NodeId u = 1; u <= leaves; ++u) {
      const double p = probs[(u - 1) % probs.size()];
      const double freq = static_cast<double>(hits[u]) / n;
      // 5σ of a Bernoulli(p) mean at n=120000 is < 0.008.
      EXPECT_NEAR(freq, p, 0.01)
          << "leaf " << u << " kernel " << SamplingKernelName(k);
    }
  }
}

TEST(KernelEquivalenceStatistical, LtAliasSourceDistributionMatchesWeights) {
  GraphBuilder b(3);
  b.AddEdge(1, 0, 0.2);
  b.AddEdge(2, 0, 0.3);
  Graph g = b.Build().MoveValue();
  auto plan = SamplingPlan::Build(
      g, Direction::kReverse, SamplingPlan::kIcBuckets | SamplingPlan::kLtAlias);
  Rng rng = Rng::Split(8, 5);
  const int n = 200000;
  int from1 = 0, from2 = 0, none = 0;
  for (int i = 0; i < n; ++i) {
    const NodeId src = plan->SampleLtSource(0, rng);
    if (src == 1) {
      ++from1;
    } else if (src == 2) {
      ++from2;
    } else {
      ASSERT_EQ(src, SamplingPlan::kNoSource);
      ++none;
    }
  }
  EXPECT_NEAR(from1 / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(from2 / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(none / static_cast<double>(n), 0.5, 0.01);
  // Nodes without in-edges never draw and always return kNoSource.
  Rng untouched = Rng::Split(8, 6);
  Rng probe = Rng::Split(8, 6);
  EXPECT_EQ(plan->SampleLtSource(1, probe), SamplingPlan::kNoSource);
  EXPECT_EQ(probe.NextU64(), untouched.NextU64());
}

TEST(KernelEquivalenceStatistical, PoolStatisticsMatchAcrossSchemesAndModels) {
  // scan vs skip over {wc, constant, trivalency} × {IC, LT} × {plain,
  // pass-prob}: pool mean set size and per-node coverage rates must agree
  // within tolerance — same distribution, different draw sequences.
  Graph base = GenerateErdosRenyi(200, 1200, 7);
  const size_t target = 6000;
  std::vector<float> pass(base.num_nodes(), 0.6f);
  for (int scheme = 0; scheme < 3; ++scheme) {
    Graph g = base;
    if (scheme == 0) {
      g.ApplyWeightedCascade();
    } else if (scheme == 1) {
      g.ApplyConstantProbability(0.04);
    } else {
      g.ApplyTrivalency({0.05, 0.01, 0.002}, 21);
    }
    for (bool lt : {false, true}) {
      for (bool coins : {false, true}) {
        RrOptions scan_opt = KernelOpt(SamplingKernel::kScan);
        scan_opt.linear_threshold = lt;
        if (coins) scan_opt.node_pass_prob = &pass;
        RrOptions skip_opt = scan_opt;
        skip_opt.kernel = SamplingKernel::kSkip;
        RrCollection scan_pool(g, 42, 4, scan_opt);
        RrCollection skip_pool(g, 42, 4, skip_opt);
        scan_pool.GenerateUntil(target);
        skip_pool.GenerateUntil(target);
        const double mean_scan =
            static_cast<double>(scan_pool.TotalNodes()) / target;
        const double mean_skip =
            static_cast<double>(skip_pool.TotalNodes()) / target;
        EXPECT_NEAR(mean_skip, mean_scan, 0.12 * mean_scan + 0.05)
            << "scheme=" << scheme << " lt=" << lt << " coins=" << coins;
        // Per-node coverage rates (live in-degree of the root-of-v RR
        // world): compare the busiest nodes, where the estimate is tight.
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          const double a =
              static_cast<double>(scan_pool.IndexDegree(v)) / target;
          const double b =
              static_cast<double>(skip_pool.IndexDegree(v)) / target;
          if (a < 0.05 && b < 0.05) continue;
          ASSERT_NEAR(b, a, 0.25 * a + 0.02)
              << "node " << v << " scheme=" << scheme << " lt=" << lt
              << " coins=" << coins;
        }
      }
    }
  }
}

// --- forward-simulation kernel -----------------------------------------

TEST(ForwardKernel, EstimateSpreadMatchesScanWithinTolerance) {
  Graph g = GenerateErdosRenyi(200, 1200, 7);
  g.ApplyWeightedCascade();
  const std::vector<NodeId> seeds = {3, 17, 42};
  const double scan =
      EstimateSpread(g, seeds, 40000, 11, 4, SamplingKernel::kScan);
  const double skip =
      EstimateSpread(g, seeds, 40000, 11, 4, SamplingKernel::kSkip);
  EXPECT_NEAR(skip, scan, 0.05 * scan + 0.1);
}

TEST(ForwardKernel, CertainEdgesReachEverythingUnderBothKernels) {
  Graph g = GenerateLayeredDag(4, 5, 1.0);
  const std::vector<NodeId> seeds = {0};
  const double scan = EstimateSpread(g, seeds, 64, 1, 2, SamplingKernel::kScan);
  const double skip = EstimateSpread(g, seeds, 64, 1, 2, SamplingKernel::kSkip);
  EXPECT_EQ(scan, skip);  // deterministic diffusion: every run identical
}

// --- the graph owns its plans ------------------------------------------

using PlanKind = Graph::PlanKind;

constexpr PlanKind kAllPlanKinds[] = {
    PlanKind::kReverseIc, PlanKind::kReverseLt, PlanKind::kForwardIc};

obs::Counter& PlanBuilds() {
  UIC_METRIC_COUNTER(builds, "uic_sampling_plan_builds_total",
                     "Sampling plans built (SamplingPlan::Build calls).");
  return builds;
}

Graph WeightedCascadeGraph() {
  Graph g = GenerateErdosRenyi(300, 1800, 5);
  g.ApplyWeightedCascade();
  return g;
}

// Every node that reaches `root`, `root` included, ascending.
std::vector<NodeId> Ancestors(const Graph& g, NodeId root) {
  std::vector<uint8_t> seen(g.num_nodes(), 0);
  std::vector<NodeId> queue = {root};
  seen[root] = 1;
  for (size_t i = 0; i < queue.size(); ++i) {
    for (NodeId u : g.InNeighbors(queue[i])) {
      if (!seen[u]) {
        seen[u] = 1;
        queue.push_back(u);
      }
    }
  }
  std::sort(queue.begin(), queue.end());
  return queue;
}

// Whether `a` and `b` hold the same sets in the same order.
bool SamePool(const RrCollection& a, const RrCollection& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (!std::ranges::equal(a.Set(r), b.Set(r))) return false;
  }
  return true;
}

TEST(GraphPlans, OneBuildPerGraphAndPlanKind) {
  // Every consumer of a plan, on one graph: solves under IC and LT on
  // private caches, a cold sweep (its cache is cleared every cell), a
  // cold collection, standalone samplers and forward-spread estimates.
  // Between them the graph builds each plan kind once, and nothing else
  // builds one.
  const Graph g = WeightedCascadeGraph();
  const uint64_t before = PlanBuilds().Value();
  auto built = [&] { return PlanBuilds().Value() - before; };

  WelfareProblem problem;
  problem.graph = &g;
  problem.params = MakeTwoItemConfig12();
  problem.budgets = {3, 2};
  SolveSpec spec;
  spec.algorithm = "bundle-grd";
  spec.eval_sims = 20;
  ASSERT_TRUE(RunSolve(problem, spec).ok());
  ASSERT_TRUE(RunSolve(problem, spec).ok());
  EXPECT_EQ(built(), 1u);
  problem.model = DiffusionModel::kLinearThreshold;
  ASSERT_TRUE(RunSolve(problem, spec).ok());
  EXPECT_EQ(built(), 2u);

  SweepSpec sweep;
  sweep.graph = &g;
  sweep.params = MakeTwoItemConfig12();
  sweep.algorithms = {"bundle-grd", "item-disj"};
  sweep.budget_points = {{1, 1}, {2, 2}};
  sweep.eval_simulations = 0;
  sweep.warm = false;
  ASSERT_TRUE(SweepRunner(sweep).Run().ok());

  RrCollection cold(g, 7, 2);
  cold.GenerateUntil(500);
  for (bool lt : {false, true}) {
    RrOptions options;
    options.linear_threshold = lt;
    RrSampler sampler(g, options);
    Rng rng = Rng::Split(1, 0);
    std::vector<NodeId> set;
    sampler.SampleInto(rng, &set);
  }
  EXPECT_EQ(built(), 2u);

  EstimateSpread(g, {0, 1}, 100, 3, 2);
  EstimateSpread(g, {2}, 100, 4, 2);
  EXPECT_EQ(built(), 3u);
  for (PlanKind kind : kAllPlanKinds) {
    EXPECT_EQ(&g.Plan(kind), &g.Plan(kind));
  }
  EXPECT_EQ(built(), 3u);
}

TEST(GraphPlans, ConcurrentFirstUseBuildsOnce) {
  // The shared pool's workers all ask a fresh graph for one plan at once:
  // one of them builds it, and every caller gets the same plan.
  Graph g = GenerateErdosRenyi(20000, 120000, 9);
  g.ApplyTrivalency({0.1, 0.01, 0.001}, 3);
  const uint64_t before = PlanBuilds().Value();
  ThreadPool& pool = ThreadPool::Shared();
  const unsigned callers = pool.num_threads() + 1;
  std::vector<const SamplingPlan*> seen(callers, nullptr);
  pool.ParallelFor(callers, callers, [&](unsigned, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      seen[i] = &g.Plan(PlanKind::kReverseIc);
    }
  });
  EXPECT_EQ(PlanBuilds().Value() - before, 1u);
  for (const SamplingPlan* plan : seen) EXPECT_EQ(plan, seen[0]);
}

TEST(GraphPlans, ReweightingDropsThePlans) {
  // A plan built under weighted cascade must not survive a re-weight to
  // p = 1: every RR set is then exactly its root's ancestors.
  Graph g = WeightedCascadeGraph();
  g.Plan(PlanKind::kReverseIc);
  g.ApplyConstantProbability(1.0);
  RrSampler sampler(g);
  Rng rng = Rng::Split(9, 1);
  std::vector<NodeId> set;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    sampler.SampleRootedInto(root, rng, &set);
    std::sort(set.begin(), set.end());
    ASSERT_EQ(set, Ancestors(g, root)) << "root " << root;
  }

  // Each mutator drops every plan kind: the plans rebuilt afterwards carry
  // the new probabilities.
  const std::vector<std::pair<const char*, void (*)(Graph&)>> mutators = {
      {"constant", [](Graph& h) { h.ApplyConstantProbability(0.3); }},
      {"cascade", [](Graph& h) { h.ApplyWeightedCascade(); }},
      {"trivalency", [](Graph& h) { h.ApplyTrivalency({0.2, 0.02}, 4); }},
  };
  for (const auto& [name, mutate] : mutators) {
    for (PlanKind kind : kAllPlanKinds) g.Plan(kind);
    mutate(g);
    for (PlanKind kind : {PlanKind::kReverseIc, PlanKind::kForwardIc}) {
      const bool forward = kind == PlanKind::kForwardIc;
      const SamplingPlan& plan = g.Plan(kind);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        double want = 0.0;
        for (float p : forward ? g.OutProbs(v) : g.InProbs(v)) want += p;
        double got = 0.0;
        for (const SamplingPlan::Bucket& b : plan.Buckets(v)) {
          got += b.size * static_cast<double>(b.p);
        }
        ASSERT_NEAR(got, want, 1e-5) << name << " node " << v;
      }
    }
    // LT: the alias tables draw "none fires" with probability 1 − Σ w,
    // checked on a node of least positive in-degree, where it is largest.
    NodeId v = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (g.InDegree(u) > 0 &&
          (g.InDegree(v) == 0 || g.InDegree(u) < g.InDegree(v))) {
        v = u;
      }
    }
    double sum = 0.0;
    for (float p : g.InProbs(v)) sum += p;
    const SamplingPlan& lt = g.Plan(PlanKind::kReverseLt);
    Rng lt_rng = Rng::Split(6, 2);
    const int draws = 40000;
    int none = 0;
    for (int i = 0; i < draws; ++i) {
      none += lt.SampleLtSource(v, lt_rng) == SamplingPlan::kNoSource;
    }
    EXPECT_NEAR(none / static_cast<double>(draws), std::max(0.0, 1.0 - sum),
                0.02)
        << name;
  }
}

TEST(GraphPlans, ACopyBuildsItsOwnPlans) {
  // A copy of a graph whose plans exist outlives its source: its plans
  // point into its own arrays, and its pools and estimates are a fresh
  // graph's (under ASan, a plan left pointing into the source fails here).
  const Graph fresh = WeightedCascadeGraph();
  auto source = std::make_unique<Graph>(WeightedCascadeGraph());
  for (PlanKind kind : kAllPlanKinds) source->Plan(kind);
  const Graph copy = *source;
  EXPECT_NE(&copy.Plan(PlanKind::kReverseLt),
            &source->Plan(PlanKind::kReverseLt));
  source.reset();

  // Under weighted cascade every node's in-edges form one bucket, which
  // aliases the graph's own CSR slice.
  const SamplingPlan& reverse = copy.Plan(PlanKind::kReverseIc);
  for (NodeId v = 0; v < copy.num_nodes(); ++v) {
    if (copy.InDegree(v) == 0) continue;
    ASSERT_EQ(reverse.Buckets(v)[0].nodes, copy.InNeighbors(v).data());
  }
  for (bool lt : {false, true}) {
    RrOptions options;
    options.linear_threshold = lt;
    RrCollection a(copy, 42, 4, options);
    RrCollection b(fresh, 42, 4, options);
    a.GenerateUntil(3000);
    b.GenerateUntil(3000);
    EXPECT_TRUE(SamePool(a, b)) << "lt=" << lt;
  }
  EXPECT_EQ(EstimateSpread(copy, {0, 5}, 500, 3, 2),
            EstimateSpread(fresh, {0, 5}, 500, 3, 2));
}

TEST(GraphPlans, AMoveCarriesItsPlans) {
  // The CSR buffers move with the plans that point into them: a move
  // builds nothing and hands over the same plans.
  Graph g = WeightedCascadeGraph();
  const SamplingPlan* plan = &g.Plan(PlanKind::kReverseIc);
  const uint64_t before = PlanBuilds().Value();
  Graph moved = std::move(g);
  EXPECT_EQ(&moved.Plan(PlanKind::kReverseIc), plan);
  Graph assigned;
  assigned = std::move(moved);
  EXPECT_EQ(&assigned.Plan(PlanKind::kReverseIc), plan);
  EXPECT_EQ(PlanBuilds().Value(), before);

  const Graph fresh = WeightedCascadeGraph();
  RrCollection a(assigned, 42, 4);
  RrCollection b(fresh, 42, 4);
  a.GenerateUntil(2000);
  b.GenerateUntil(2000);
  EXPECT_TRUE(SamePool(a, b));
}

}  // namespace
}  // namespace uic
