// Determinism, equivalence, and index-maintenance tests for the RR engine
// (persistent thread pool + RrCollection + index-driven NodeSelection).
//
// The GOLDEN_* constants pin the stream-grid engine (fixed kRrStreams
// logical streams, RR set g = sample g/kRrStreams of stream g%kRrStreams):
// pool content is a pure function of (graph, options, seed), so ONE golden
// covers every worker count and every growth schedule. The invariance
// tests below assert exactly that; the warm-cache tests assert that an
// RrStreamCache replays the same streams byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "exp/configs.h"
#include "exp/solve.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "rrset/node_selection.h"
#include "rrset/prima.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_stream_cache.h"

namespace uic {
namespace {

// --- golden values pinned from the stream-grid engine ------------------
//
// Two kernels, two golden families. The default (skip) kernel draws
// a different RNG sequence than the scan kernel, so each pins its own
// goldens; the kScan pins are the pre-skip-kernel values, unchanged since
// that kernel's draw sequence is untouched.
constexpr uint64_t kGoldenIcPoolHash = 0xc90d2f7464a213d9ULL;
constexpr uint64_t kGoldenLtPoolHash = 0x201e1a632f30d058ULL;
constexpr uint64_t kGoldenCoverageHash = 0xe02d9082d553853cULL;
const std::vector<NodeId> kGoldenSeeds = {
    98, 44, 34, 97, 109, 54, 199, 22, 20, 96, 48, 119, 41,
    62, 134, 82, 197, 46, 47, 179, 189, 30, 18, 32, 40};
const std::vector<NodeId> kGoldenPrimaSeeds = {89, 168, 52, 187, 104,
                                               166, 93, 25, 12, 79};
constexpr size_t kGoldenPrimaRrSets = 2435;

constexpr uint64_t kGoldenScanIcPoolHash = 0xc50df440a80a50c4ULL;
constexpr uint64_t kGoldenScanLtPoolHash = 0xc46b2e9a1265f51cULL;
constexpr uint64_t kGoldenScanCoverageHash = 0x4b4cce635b7fd6a9ULL;
const std::vector<NodeId> kGoldenScanSeeds = {
    98, 44, 62, 43, 113, 65, 61, 18, 14, 94, 10, 179, 109,
    189, 47, 97, 147, 48, 199, 30, 96, 54, 82, 134, 172};
const std::vector<NodeId> kGoldenScanPrimaSeeds = {25, 85, 166, 89, 79,
                                                   100, 296, 202, 279, 116};
constexpr size_t kGoldenScanPrimaRrSets = 2282;

uint64_t Fnv1a(uint64_t h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t PoolHash(const RrCollection& pool) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, pool.size());
  for (size_t r = 0; r < pool.size(); ++r) {
    auto s = pool.Set(r);
    h = Fnv1a(h, s.size());
    for (NodeId v : s) h = Fnv1a(h, v);
  }
  return h;
}

uint64_t CoverageHash(const SeedSelection& sel) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double c : sel.coverage) {
    uint64_t bits;
    std::memcpy(&bits, &c, sizeof(bits));
    h = Fnv1a(h, bits);
  }
  return h;
}

Graph GoldenGraph() {
  Graph g = GenerateErdosRenyi(200, 1200, 7);
  g.ApplyWeightedCascade();
  return g;
}

// Reference inverted index built from scratch by scanning the pool — what
// the pre-refactor NodeSelection rebuilt on every call.
std::vector<std::vector<uint32_t>> ReferenceIndex(const RrCollection& pool) {
  std::vector<std::vector<uint32_t>> index(pool.graph().num_nodes());
  for (size_t r = 0; r < pool.size(); ++r) {
    for (NodeId v : pool.Set(r)) {
      index[v].push_back(static_cast<uint32_t>(r));
    }
  }
  return index;
}

void ExpectIndexMatchesReference(const RrCollection& pool) {
  const std::vector<std::vector<uint32_t>> ref = ReferenceIndex(pool);
  for (NodeId v = 0; v < pool.graph().num_nodes(); ++v) {
    ASSERT_EQ(pool.IndexDegree(v), ref[v].size()) << "node " << v;
    std::vector<uint32_t> got;
    pool.ForEachSetContaining(v, [&](uint32_t r) { got.push_back(r); });
    ASSERT_EQ(got, ref[v]) << "node " << v;
  }
}

// The pre-refactor NodeSelection, kept verbatim as an executable spec:
// builds its own CSR index, pushes every candidate onto one heap, then runs
// the identical lazy greedy. `ids_read`, when given, receives the set ids
// its re-evaluations and picks read (the uic_rr_select_ids_read_total
// charge).
SeedSelection ReferenceNodeSelection(const RrCollection& collection, size_t k,
                                     const std::vector<NodeId>& excluded,
                                     size_t* ids_read = nullptr) {
  size_t reads = 0;
  const Graph& graph = collection.graph();
  const NodeId n = graph.num_nodes();
  const size_t num_sets = collection.size();
  SeedSelection result;
  if (num_sets == 0 || k == 0) return result;

  std::vector<uint32_t> deg(n, 0);
  for (size_t r = 0; r < num_sets; ++r) {
    for (NodeId v : collection.Set(r)) ++deg[v];
  }
  std::vector<size_t> node_off(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) node_off[v + 1] = node_off[v] + deg[v];
  std::vector<uint32_t> node_sets(node_off[n]);
  {
    std::vector<size_t> cursor(node_off.begin(), node_off.end() - 1);
    for (size_t r = 0; r < num_sets; ++r) {
      for (NodeId v : collection.Set(r)) {
        node_sets[cursor[v]++] = static_cast<uint32_t>(r);
      }
    }
  }

  std::vector<uint8_t> banned(n, 0);
  for (NodeId v : excluded) banned[v] = 1;

  std::vector<uint8_t> covered(num_sets, 0);
  std::vector<uint8_t> selected(n, 0);
  using Entry = std::pair<uint32_t, NodeId>;
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (NodeId v = 0; v < n; ++v) {
    if (deg[v] > 0 && !banned[v]) heap.push({deg[v], v});
  }

  size_t covered_count = 0;
  std::vector<uint32_t> stamp(n, 0);
  uint32_t round = 0;
  while (result.seeds.size() < k && !heap.empty()) {
    auto [gain, v] = heap.top();
    heap.pop();
    if (selected[v]) continue;
    if (stamp[v] != round) {
      uint32_t g = 0;
      for (size_t idx = node_off[v]; idx < node_off[v + 1]; ++idx) {
        g += covered[node_sets[idx]] == 0;
      }
      reads += node_off[v + 1] - node_off[v];
      stamp[v] = round;
      if (!heap.empty() && g < heap.top().first) {
        if (g > 0) heap.push({g, v});
        continue;
      }
      gain = g;
    }
    selected[v] = 1;
    for (size_t idx = node_off[v]; idx < node_off[v + 1]; ++idx) {
      const uint32_t r = node_sets[idx];
      if (!covered[r]) {
        covered[r] = 1;
        ++covered_count;
      }
    }
    reads += node_off[v + 1] - node_off[v];
    ++round;
    (void)gain;
    result.seeds.push_back(v);
    result.coverage.push_back(static_cast<double>(covered_count) /
                              static_cast<double>(num_sets));
  }
  for (NodeId v = 0; v < n && result.seeds.size() < k; ++v) {
    if (!selected[v] && !banned[v]) {
      selected[v] = 1;
      result.seeds.push_back(v);
      result.coverage.push_back(static_cast<double>(covered_count) /
                                static_cast<double>(num_sets));
    }
  }
  if (ids_read != nullptr) *ids_read = reads;
  return result;
}

// --- pinned goldens + seed-only determinism ---------------------------

TEST(RrEngineGolden, IcPoolMatchesPinnedGoldenAtAnyWorkerCount) {
  Graph g = GoldenGraph();
  // One golden for every worker count: pool content is a pure function of
  // (graph, options, seed).
  for (unsigned workers : {1u, 4u, 8u}) {
    RrCollection pool(g, 42, workers);
    pool.GenerateUntil(777);
    pool.GenerateUntil(2000);
    EXPECT_EQ(PoolHash(pool), kGoldenIcPoolHash) << "workers=" << workers;
    const SeedSelection sel = NodeSelection(pool, 25);
    EXPECT_EQ(sel.seeds, kGoldenSeeds) << "workers=" << workers;
    EXPECT_EQ(CoverageHash(sel), kGoldenCoverageHash) << "workers=" << workers;
  }
}

TEST(RrEngineGolden, ScanKernelStillMatchesPreSkipGoldens) {
  // The scan kernel's draw sequence predates the skip kernels; its goldens
  // must never move. This is the proof that opting out of skip sampling
  // reproduces historical pools bit-for-bit.
  Graph g = GoldenGraph();
  RrOptions scan;
  scan.kernel = SamplingKernel::kScan;
  for (unsigned workers : {1u, 4u, 8u}) {
    RrCollection pool(g, 42, workers, scan);
    pool.GenerateUntil(777);
    pool.GenerateUntil(2000);
    EXPECT_EQ(PoolHash(pool), kGoldenScanIcPoolHash) << "workers=" << workers;
    const SeedSelection sel = NodeSelection(pool, 25);
    EXPECT_EQ(sel.seeds, kGoldenScanSeeds) << "workers=" << workers;
    EXPECT_EQ(CoverageHash(sel), kGoldenScanCoverageHash)
        << "workers=" << workers;
  }
  RrOptions scan_lt = scan;
  scan_lt.linear_threshold = true;
  RrCollection lt_pool(g, 5, 4, scan_lt);
  lt_pool.GenerateUntil(1500);
  EXPECT_EQ(PoolHash(lt_pool), kGoldenScanLtPoolHash);

  Graph pg = GenerateErdosRenyi(300, 1800, 3);
  pg.ApplyWeightedCascade();
  const ImResult r = Prima(pg, {10, 5, 3}, 0.5, 1.0, 11, 4, {}, scan);
  EXPECT_EQ(r.seeds, kGoldenScanPrimaSeeds);
  EXPECT_EQ(r.num_rr_sets, kGoldenScanPrimaRrSets);
}

TEST(RrEngineGolden, PoolIsIndependentOfGrowthSchedule) {
  // The same golden must come out however the pool grows to 2000: RR set g
  // is always sample g/kRrStreams of stream g%kRrStreams.
  Graph g = GoldenGraph();
  RrCollection one_shot(g, 42, 4);
  one_shot.GenerateUntil(2000);
  EXPECT_EQ(PoolHash(one_shot), kGoldenIcPoolHash);
  RrCollection many(g, 42, 4);
  for (size_t target : {3ul, 50ul, 51ul, 700ul, 1999ul, 2000ul}) {
    many.GenerateUntil(target);
  }
  EXPECT_EQ(PoolHash(many), kGoldenIcPoolHash);
}

TEST(RrEngineGolden, LtPoolMatchesPinnedGolden) {
  Graph g = GoldenGraph();
  RrOptions opt;
  opt.linear_threshold = true;
  RrCollection pool(g, 5, 4, opt);
  pool.GenerateUntil(1500);
  EXPECT_EQ(PoolHash(pool), kGoldenLtPoolHash);
}

TEST(RrEngineGolden, PrimaSeedsMatchPinnedGoldenAtAnyWorkerCount) {
  Graph g = GenerateErdosRenyi(300, 1800, 3);
  g.ApplyWeightedCascade();
  const ImResult r4 = Prima(g, {10, 5, 3}, 0.5, 1.0, 11, 4);
  EXPECT_EQ(r4.seeds, kGoldenPrimaSeeds);
  EXPECT_EQ(r4.num_rr_sets, kGoldenPrimaRrSets);
  const ImResult r1 = Prima(g, {10, 5, 3}, 0.5, 1.0, 11, 1);
  EXPECT_EQ(r1.seeds, kGoldenPrimaSeeds);
  EXPECT_EQ(r1.num_rr_sets, kGoldenPrimaRrSets);
}

// --- warm stream-cache equivalence ------------------------------------

TEST(RrStreamCacheTest, WarmPoolIsBitIdenticalToCold) {
  Graph g = GoldenGraph();
  RrStreamCache cache;
  RrOptions warm_opt;
  warm_opt.stream_cache = &cache;
  RrCollection warm(g, 42, 4, warm_opt);
  warm.GenerateUntil(777);
  warm.GenerateUntil(2000);
  EXPECT_EQ(PoolHash(warm), kGoldenIcPoolHash);
  ExpectIndexMatchesReference(warm);

  RrCollection cold(g, 42, 4);
  cold.GenerateUntil(2000);
  ASSERT_EQ(warm.size(), cold.size());
  EXPECT_EQ(warm.TotalNodes(), cold.TotalNodes());
  EXPECT_EQ(warm.TotalEdgesExamined(), cold.TotalEdgesExamined());
}

TEST(RrStreamCacheTest, SecondCollectionSamplesOnlyTheDelta) {
  Graph g = GoldenGraph();
  RrStreamCache cache;
  RrOptions warm_opt;
  warm_opt.stream_cache = &cache;
  {
    RrCollection first(g, 9, 4, warm_opt);
    first.GenerateUntil(1000);
  }
  const size_t sampled_after_first = cache.stats().sampled_sets;
  EXPECT_EQ(sampled_after_first, 1000u);
  RrCollection second(g, 9, 4, warm_opt);
  second.GenerateUntil(1500);  // prefix of the same streams + 500 more
  EXPECT_EQ(cache.stats().sampled_sets, 1500u);
  EXPECT_GE(cache.stats().served_sets, 2500u);
  RrCollection cold(g, 9, 4);
  cold.GenerateUntil(1500);
  EXPECT_EQ(PoolHash(second), PoolHash(cold));
}

TEST(RrStreamCacheTest, ResetKeysANewEntryAndReplaysIt) {
  // PRIMA's regeneration pass Resets to a derived seed; the cache must key
  // the two stream groups separately and replay both bit-identically.
  Graph g = GoldenGraph();
  RrStreamCache cache;
  RrOptions warm_opt;
  warm_opt.stream_cache = &cache;
  RrCollection warm(g, 21, 4, warm_opt);
  warm.GenerateUntil(600);
  warm.Reset(123);
  warm.GenerateUntil(800);
  RrCollection cold(g, 123, 4);
  cold.GenerateUntil(800);
  EXPECT_EQ(PoolHash(warm), PoolHash(cold));
  EXPECT_EQ(cache.stats().entries, 2u);

  // Replaying the regeneration seed costs no new samples.
  const size_t sampled = cache.stats().sampled_sets;
  RrCollection replay(g, 123, 4, warm_opt);
  replay.GenerateUntil(800);
  EXPECT_EQ(cache.stats().sampled_sets, sampled);
  EXPECT_EQ(PoolHash(replay), PoolHash(cold));
}

TEST(RrStreamCacheTest, PassProbEntriesAreKeyedByContents) {
  Graph g = GoldenGraph();
  RrStreamCache cache;
  std::vector<float> coins_a(g.num_nodes(), 0.6f);
  std::vector<float> coins_b(g.num_nodes(), 0.6f);  // equal contents
  std::vector<float> coins_c(g.num_nodes(), 0.3f);  // different coins
  RrOptions opt_a;
  opt_a.node_pass_prob = &coins_a;
  opt_a.stream_cache = &cache;
  RrCollection a(g, 3, 4, opt_a);
  a.GenerateUntil(400);
  EXPECT_EQ(cache.stats().entries, 1u);

  RrOptions opt_b = opt_a;
  opt_b.node_pass_prob = &coins_b;  // different pointer, same contents
  RrCollection b(g, 3, 4, opt_b);
  b.GenerateUntil(400);
  EXPECT_EQ(cache.stats().entries, 1u);  // reused
  EXPECT_EQ(cache.stats().sampled_sets, 400u);
  EXPECT_EQ(PoolHash(a), PoolHash(b));

  RrOptions opt_c = opt_a;
  opt_c.node_pass_prob = &coins_c;
  RrCollection c(g, 3, 4, opt_c);
  c.GenerateUntil(400);
  EXPECT_EQ(cache.stats().entries, 2u);  // new coins, new entry
  EXPECT_NE(PoolHash(a), PoolHash(c));

  // Cold reference for the coin pool: identical content.
  RrOptions cold_opt;
  cold_opt.node_pass_prob = &coins_a;
  RrCollection cold(g, 3, 4, cold_opt);
  cold.GenerateUntil(400);
  EXPECT_EQ(PoolHash(a), PoolHash(cold));
}

TEST(RrStreamCacheTest, TrimDropsOldestCoinEntriesKeepsPlainOnes) {
  Graph g = GoldenGraph();
  RrStreamCache cache;
  RrOptions plain;
  plain.stream_cache = &cache;
  {
    RrCollection pool(g, 1, 4, plain);
    pool.GenerateUntil(100);
  }
  std::vector<std::vector<float>> coin_sets;
  for (int i = 0; i < 3; ++i) {
    coin_sets.emplace_back(g.num_nodes(), 0.1f * static_cast<float>(i + 1));
    RrOptions opt = plain;
    opt.node_pass_prob = &coin_sets.back();
    RrCollection pool(g, 2, 4, opt);
    pool.GenerateUntil(100);
  }
  ASSERT_EQ(cache.stats().entries, 4u);  // 1 plain + 3 coin entries
  const size_t sampled = cache.stats().sampled_sets;

  cache.TrimPassProbEntries(1);
  EXPECT_EQ(cache.stats().entries, 2u);  // plain + newest coins survive
  EXPECT_EQ(cache.stats().sampled_sets, sampled);  // counters are monotone

  // The survivors still serve without resampling; the evicted coins cost
  // a fresh 100 sets again.
  {
    RrOptions opt = plain;
    opt.node_pass_prob = &coin_sets.back();  // newest: kept
    RrCollection pool(g, 2, 4, opt);
    pool.GenerateUntil(100);
  }
  EXPECT_EQ(cache.stats().sampled_sets, sampled);
  {
    RrOptions opt = plain;
    opt.node_pass_prob = &coin_sets.front();  // oldest: evicted
    RrCollection pool(g, 2, 4, opt);
    pool.GenerateUntil(100);
  }
  EXPECT_EQ(cache.stats().sampled_sets, sampled + 100);
}

// `reader`, a warm collection at its latest cut, checked against a cold
// pool of the same size, seed and options: the same sets, the reference
// index, and the same selection as both the cold pool and the reference.
void ExpectBorrowedCutMatchesCold(const RrCollection& reader, uint64_t seed,
                                  const RrOptions& cold_options) {
  SCOPED_TRACE("cut at " + std::to_string(reader.size()));
  RrCollection cold(reader.graph(), seed, 4, cold_options);
  cold.GenerateUntil(reader.size());
  EXPECT_EQ(PoolHash(reader), PoolHash(cold));
  // A wrong cut would send selection past the pool: stop here.
  ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesReference(reader));
  const SeedSelection want = NodeSelection(cold, 20);
  const SeedSelection got = NodeSelection(reader, 20);
  EXPECT_EQ(got.seeds, want.seeds);
  EXPECT_EQ(got.coverage, want.coverage);
  EXPECT_EQ(got.seeds, ReferenceNodeSelection(reader, 20, {}).seeds);
}

TEST(RrStreamCacheTest, BorrowedStreamsSurviveGrowthByAnotherCollection) {
  // A warm collection reads its sets out of the cache entry's streams and
  // its index out of the entry's index. A second collection on the same
  // entry grows both far past the first one's size, which reallocates the
  // per-stream arrays and merges the first collection's delta into one
  // delta over [0, 20000); the first collection's later sizes then cut
  // that merged delta, each counted forward from the one before. It must
  // still see exactly the cold pool and index, also after a third
  // collection merges the entry's index again into one delta over
  // [0, 45000), so nothing may keep a raw pointer into a stream or a
  // delta across growth. Then come a cut at that delta's end, a cut past
  // the entry's index (which extends it by a delta over [45000, 50000)),
  // and a fresh borrow cut first inside the first delta and then inside
  // the second, which recounts the first from its offsets.
  Graph g = GoldenGraph();
  for (const bool lt : {false, true}) {
    SCOPED_TRACE(lt ? "lt" : "ic");
    RrStreamCache cache;
    RrOptions warm_opt;
    warm_opt.linear_threshold = lt;
    warm_opt.stream_cache = &cache;
    RrOptions cold_opt;
    cold_opt.linear_threshold = lt;
    RrCollection a(g, 77, 4, warm_opt);
    a.GenerateUntil(500);
    {
      RrCollection b(g, 77, 4, warm_opt);
      b.GenerateUntil(20000);
    }
    for (size_t size : {777ul, 1500ul}) {
      a.GenerateUntil(size);
      EXPECT_EQ(a.IndexDeltaCount(), 1u) << "size " << size;
      for (const size_t other : {0ul, 45000ul}) {
        if (other > 0) {
          RrCollection c(g, 77, 4, warm_opt);
          c.GenerateUntil(other);
        }
        ASSERT_NO_FATAL_FAILURE(ExpectBorrowedCutMatchesCold(a, 77, cold_opt));
      }
    }
    a.GenerateUntil(45000);
    EXPECT_EQ(a.IndexDeltaCount(), 1u);
    ASSERT_NO_FATAL_FAILURE(ExpectBorrowedCutMatchesCold(a, 77, cold_opt));
    a.GenerateUntil(50000);
    EXPECT_EQ(a.IndexDeltaCount(), 2u);
    ASSERT_NO_FATAL_FAILURE(ExpectBorrowedCutMatchesCold(a, 77, cold_opt));
    RrCollection fresh(g, 77, 4, warm_opt);
    for (size_t size : {3000ul, 47000ul}) {
      fresh.GenerateUntil(size);
      EXPECT_EQ(cache.stats().sampled_sets, 50000u);
      ASSERT_NO_FATAL_FAILURE(
          ExpectBorrowedCutMatchesCold(fresh, 77, cold_opt));
    }
  }
}

obs::Counter& IndexEntriesCounter() {
  UIC_METRIC_COUNTER(entries, "uic_rr_index_entries_total",
                     "Set ids written into new coverage-index deltas.");
  return entries;
}

TEST(RrStreamCacheTest, ReplayedSolveBorrowsTheIndexAndSamplesNothing) {
  // A repeated bundle-grd request on the same cache replays PRIMA's phase
  // and regeneration pools from the cached streams and reads both
  // entries' coverage indexes cut at its own sizes: it samples no set and
  // writes no index entry, and answers bit-identically.
  Graph g = GoldenGraph();
  for (const bool lt : {false, true}) {
    WelfareProblem problem;
    problem.graph = &g;
    problem.params = MakeTwoItemConfig12();
    problem.budgets = {6, 3};
    problem.model = lt ? DiffusionModel::kLinearThreshold
                       : DiffusionModel::kIndependentCascade;
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(lt ? "lt" : "ic") + " workers " +
                   std::to_string(workers));
      SolveSpec spec;
      spec.algorithm = "bundle-grd";
      spec.options.eps = 0.3;
      spec.options.seed = 12;
      spec.options.workers = workers;
      spec.eval_sims = 100;
      spec.eval_seed = 3;
      RrStreamCache cache;
      const uint64_t entries_before = IndexEntriesCounter().Value();
      Result<SolveOutcome> first = RunSolve(problem, spec, &cache);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      EXPECT_GT(IndexEntriesCounter().Value(), entries_before);
      EXPECT_GT(first.value().rr_sets_sampled, 0u);

      const uint64_t entries_between = IndexEntriesCounter().Value();
      Result<SolveOutcome> replay = RunSolve(problem, spec, &cache);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_EQ(IndexEntriesCounter().Value(), entries_between);
      EXPECT_EQ(replay.value().rr_sets_sampled, 0u);
      EXPECT_EQ(replay.value().rr_sets_served, first.value().rr_sets_served);

      const AllocationResult& want = first.value().result;
      const AllocationResult& got = replay.value().result;
      EXPECT_EQ(got.ranking, want.ranking);
      EXPECT_EQ(got.allocation.entries(), want.allocation.entries());
      EXPECT_EQ(got.num_rr_sets, want.num_rr_sets);
      ASSERT_TRUE(first.value().welfare.has_value());
      ASSERT_TRUE(replay.value().welfare.has_value());
      EXPECT_EQ(replay.value().welfare->welfare,
                first.value().welfare->welfare);
      EXPECT_EQ(replay.value().welfare->std_error,
                first.value().welfare->std_error);
    }
  }
}

TEST(RrStreamCacheTest, WarmCoinPoolsIndexPrivately) {
  // Coin entries share their streams but not an index: every warm coin
  // collection builds its own, and it equals the reference.
  Graph g = GoldenGraph();
  std::vector<float> coins(g.num_nodes(), 0.6f);
  RrStreamCache cache;
  RrOptions opt;
  opt.node_pass_prob = &coins;
  opt.stream_cache = &cache;
  RrCollection a(g, 3, 4, opt);
  a.GenerateUntil(300);
  a.GenerateUntil(800);
  ExpectIndexMatchesReference(a);

  const size_t sampled = cache.stats().sampled_sets;
  const uint64_t entries_before = IndexEntriesCounter().Value();
  RrCollection b(g, 3, 4, opt);
  b.GenerateUntil(500);
  EXPECT_EQ(cache.stats().sampled_sets, sampled);
  EXPECT_EQ(IndexEntriesCounter().Value() - entries_before, b.TotalNodes());
  ExpectIndexMatchesReference(b);
  ExpectIndexMatchesReference(a);

  RrOptions cold_opt;
  cold_opt.node_pass_prob = &coins;
  RrCollection cold(g, 3, 4, cold_opt);
  cold.GenerateUntil(500);
  EXPECT_EQ(PoolHash(b), PoolHash(cold));
}

// --- exact sampling totals --------------------------------------------
//
// TotalNodes() and TotalEdgesExamined() of three pools under both kernels,
// pinned exactly, and the edge total re-derived independently: by the EPT
// convention it is the sum of RrSampler::SampleAppend's return values over
// the same stream grid (set g = sample g / kRrStreams of stream
// g % kRrStreams, stream s drawn from Rng::Split(seed, s)).

struct PinnedPool {
  const char* name;
  uint64_t seed;
  size_t sets;
  bool linear_threshold;
  bool coins;  // node pass probability 0.6 everywhere
  SamplingKernel kernel;
  size_t total_nodes;
  size_t edges_examined;
};

const PinnedPool kPinnedPools[] = {
    {"ic", 42, 2000, false, false, SamplingKernel::kSkip, 19405, 118207},
    {"lt", 5, 1500, true, false, SamplingKernel::kSkip, 26431, 161344},
    {"coins", 3, 800, false, true, SamplingKernel::kSkip, 1175, 7095},
    {"ic", 42, 2000, false, false, SamplingKernel::kScan, 19171, 117047},
    {"lt", 5, 1500, true, false, SamplingKernel::kScan, 26162, 159766},
    {"coins", 3, 800, false, true, SamplingKernel::kScan, 1230, 7459},
};

struct GridTotals {
  size_t nodes = 0;
  size_t edges = 0;
  uint64_t hash = 0;
};

// Draws the pool's sets straight from the stream grid with one sampler,
// summing sizes and SampleAppend's returns and hashing like PoolHash.
GridTotals SampleGridDirectly(const Graph& g, uint64_t seed, size_t sets,
                              const RrOptions& options) {
  RrSampler sampler(g, options);
  std::vector<Rng> rngs;
  for (unsigned s = 0; s < kRrStreams; ++s) rngs.push_back(Rng::Split(seed, s));
  GridTotals t;
  t.hash = Fnv1a(0xcbf29ce484222325ULL, sets);
  std::vector<NodeId> set;
  for (size_t r = 0; r < sets; ++r) {
    set.clear();
    t.edges += sampler.SampleAppend(rngs[r % kRrStreams], &set);
    t.nodes += set.size();
    t.hash = Fnv1a(t.hash, set.size());
    for (NodeId v : set) t.hash = Fnv1a(t.hash, v);
  }
  return t;
}

TEST(RrEngineTotals, PinnedAndEqualToSamplerReturnsOverTheGrid) {
  Graph g = GoldenGraph();
  const std::vector<float> coins(g.num_nodes(), 0.6f);
  for (const PinnedPool& p : kPinnedPools) {
    const bool scan = p.kernel == SamplingKernel::kScan;
    RrOptions opt;
    opt.kernel = p.kernel;
    opt.linear_threshold = p.linear_threshold;
    if (p.coins) opt.node_pass_prob = &coins;
    RrCollection pool(g, p.seed, 4, opt);
    pool.GenerateUntil(p.sets / 3);
    pool.GenerateUntil(p.sets);
    EXPECT_EQ(pool.TotalNodes(), p.total_nodes) << p.name << " scan=" << scan;
    EXPECT_EQ(pool.TotalEdgesExamined(), p.edges_examined)
        << p.name << " scan=" << scan;

    const GridTotals direct = SampleGridDirectly(g, p.seed, p.sets, opt);
    EXPECT_EQ(direct.hash, PoolHash(pool)) << p.name << " scan=" << scan;
    EXPECT_EQ(direct.nodes, pool.TotalNodes()) << p.name << " scan=" << scan;
    EXPECT_EQ(direct.edges, pool.TotalEdgesExamined())
        << p.name << " scan=" << scan;
  }
}

// --- run-to-run determinism -------------------------------------------

TEST(RrEngineDeterminism, PoolIsByteIdenticalAcrossRuns) {
  Graph g = GoldenGraph();
  for (unsigned workers : {1u, 3u, 8u}) {
    RrCollection a(g, 21, workers);
    a.GenerateUntil(600);
    a.GenerateUntil(1500);
    RrCollection b(g, 21, workers);
    b.GenerateUntil(600);
    b.GenerateUntil(1500);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.TotalNodes(), b.TotalNodes());
    ASSERT_EQ(a.TotalEdgesExamined(), b.TotalEdgesExamined());
    for (size_t r = 0; r < a.size(); ++r) {
      auto sa = a.Set(r);
      auto sb = b.Set(r);
      ASSERT_EQ(sa.size(), sb.size()) << "set " << r;
      ASSERT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()))
          << "set " << r;
    }
  }
}

TEST(RrEngineDeterminism, PrimaSeedsIdenticalAcrossRuns) {
  Graph g = GenerateErdosRenyi(250, 1500, 9);
  g.ApplyWeightedCascade();
  const ImResult a = Prima(g, {8, 4}, 0.5, 1.0, 77, 4);
  const ImResult b = Prima(g, {8, 4}, 0.5, 1.0, 77, 4);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
}

TEST(RrEngineDeterminism, IndependentOfPhysicalThreadCount) {
  // The determinism contract is the seed alone: the same pool must come
  // out whether the work runs on 1 or 8 physical threads.
  Graph g = GoldenGraph();
  ThreadPool one(1);
  ThreadPool eight(8);
  RrCollection a(g, 33, 4, {}, &one);
  RrCollection b(g, 33, 4, {}, &eight);
  a.GenerateUntil(1200);
  b.GenerateUntil(1200);
  EXPECT_EQ(PoolHash(a), PoolHash(b));
}

TEST(RrEngineDeterminism, ResetEqualsFreshCollection) {
  Graph g = GoldenGraph();
  RrCollection reused(g, 1, 4);
  reused.GenerateUntil(900);  // unrelated prior life
  reused.Reset(123);
  reused.GenerateUntil(800);
  RrCollection fresh(g, 123, 4);
  fresh.GenerateUntil(800);
  EXPECT_EQ(PoolHash(reused), PoolHash(fresh));
  ExpectIndexMatchesReference(reused);
}

// --- incremental index maintenance ------------------------------------

TEST(RrEngineIndex, IncrementalEqualsFreshlyBuiltAfterInterleavedGrowth) {
  Graph g = GoldenGraph();
  RrCollection pool(g, 50, 4);
  pool.GenerateUntil(2000);
  ExpectIndexMatchesReference(pool);
  // A small second round extends the index instead of rebuilding it: the
  // new delta (≤ 5 sets of ≤ 200 nodes) is strictly smaller than the
  // first (≥ 2000 entries), so tiering keeps it as a separate delta.
  pool.GenerateUntil(2005);
  EXPECT_EQ(pool.IndexDeltaCount(), 2u);
  ExpectIndexMatchesReference(pool);
  pool.Reset(51);  // dropped only by Reset()
  EXPECT_EQ(pool.IndexDeltaCount(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(pool.IndexDegree(v), 0u);
  }
  pool.GenerateUntil(300);
  ExpectIndexMatchesReference(pool);
}

TEST(RrEngineIndex, TieredMergingBoundsDeltaCountAndPreservesContent) {
  Graph g = GoldenGraph();
  RrCollection pool(g, 70, 4);
  // Many growth rounds of varying size: tiering + the hard cap must keep
  // the delta count bounded while the index stays exact.
  size_t target = 50;
  for (size_t add : {100ul, 400ul, 30ul, 700ul, 10ul, 5ul, 900ul, 20ul,
                     3ul, 2ul, 1ul, 250ul}) {
    target += add;
    pool.GenerateUntil(target);
    ASSERT_LE(pool.IndexDeltaCount(), 8u) << "target " << target;
  }
  ExpectIndexMatchesReference(pool);
  const SeedSelection got = NodeSelection(pool, 20);
  const SeedSelection want = ReferenceNodeSelection(pool, 20, {});
  EXPECT_EQ(got.seeds, want.seeds);
}

TEST(RrEngineIndex, MaintainedUnderPassProbAndLt) {
  Graph g = GoldenGraph();
  std::vector<float> pass(g.num_nodes(), 0.6f);
  RrOptions with_coins;
  with_coins.node_pass_prob = &pass;
  RrCollection coins(g, 3, 4, with_coins);
  coins.GenerateUntil(800);  // empty sets (rejected roots) count, uncovered
  ExpectIndexMatchesReference(coins);

  RrOptions lt;
  lt.linear_threshold = true;
  RrCollection walk(g, 4, 4, lt);
  walk.GenerateUntil(500);
  walk.GenerateUntil(1100);
  ExpectIndexMatchesReference(walk);
}

TEST(RrEngineIndex, CountCoveredSetsMatchesScan) {
  Graph g = GoldenGraph();
  RrCollection pool(g, 60, 4);
  pool.GenerateUntil(1500);
  const std::vector<NodeId> seeds = {1, 17, 42, 99, 150};
  std::vector<uint8_t> is_seed(g.num_nodes(), 0);
  for (NodeId v : seeds) is_seed[v] = 1;
  size_t expected = 0;
  for (size_t r = 0; r < pool.size(); ++r) {
    for (NodeId v : pool.Set(r)) {
      if (is_seed[v]) {
        ++expected;
        break;
      }
    }
  }
  EXPECT_EQ(CountCoveredSets(pool, seeds), expected);
}

// --- selection equivalence on arbitrary instances ---------------------

obs::Counter& SelectIdsReadCounter() {
  UIC_METRIC_COUNTER(ids, "uic_rr_select_ids_read_total",
                     "Set ids read by NodeSelection's gain re-evaluations "
                     "and picks.");
  return ids;
}

obs::Counter& SelectHeapEntriesCounter() {
  UIC_METRIC_COUNTER(entries, "uic_rr_select_heap_entries_total",
                     "Entries pushed onto NodeSelection's lazy-greedy heap.");
  return entries;
}

// The `count` nodes of highest index degree in `pool`.
std::vector<NodeId> TopHubs(const RrCollection& pool, size_t count) {
  std::vector<NodeId> nodes(pool.graph().num_nodes());
  for (NodeId v = 0; v < nodes.size(); ++v) nodes[v] = v;
  std::partial_sort(nodes.begin(), nodes.begin() + count, nodes.end(),
                    [&](NodeId a, NodeId b) {
                      return pool.IndexDegree(a) > pool.IndexDegree(b);
                    });
  nodes.resize(count);
  return nodes;
}

TEST(RrEngineSelection, MatchesReferenceImplementation) {
  // NodeSelection admits candidates to its heap band by band (by the bit
  // width of their degree); the reference pushes them all up front. The
  // two must pop alike: same seeds, same coverage, and the same set ids
  // read. The inputs are ER pools; a weighted-cascade PA pool whose
  // degrees span many bit widths, with and without its top hubs
  // excluded; a pool too small to fill k (the padding path); a coin
  // pool; and an LT pool. Each runs at 1 and 4 workers.
  Graph pa = GeneratePreferentialAttachment(20000, 5, /*undirected=*/false, 17);
  pa.ApplyWeightedCascade();
  std::vector<Graph> er;
  for (uint64_t graph_seed : {101ull, 202ull, 303ull}) {
    er.push_back(GenerateErdosRenyi(120, 700, graph_seed));
    er.back().ApplyWeightedCascade();
  }
  const std::vector<float> coins(er[0].num_nodes(), 0.6f);
  struct Case {
    std::string name;
    const Graph* graph;
    uint64_t seed;
    std::vector<size_t> growth;
    size_t k;
    bool linear_threshold = false;
    bool coins = false;
    size_t hubs_excluded = 0;  // top-degree nodes added to `excluded`
  };
  std::vector<Case> cases;
  for (size_t i = 0; i < er.size(); ++i) {
    cases.push_back({"er" + std::to_string(i), &er[i], 0xabcdu + i,
                     {400, 1300}, 30});
  }
  cases.push_back({"pa", &pa, 5, {1500, 6000}, 60});
  cases.push_back({"pa-hubs", &pa, 5, {6000}, 60, false, false, 12});
  cases.push_back({"padding", &er[0], 9, {4}, 30});
  cases.push_back({"coins", &er[0], 3, {300, 800}, 30, false, true});
  cases.push_back({"lt", &pa, 8, {2000, 5000}, 40, true});
  for (const Case& c : cases) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(c.name + " workers " + std::to_string(workers));
      RrOptions opt;
      opt.linear_threshold = c.linear_threshold;
      if (c.coins) opt.node_pass_prob = &coins;
      RrCollection pool(*c.graph, c.seed, workers, opt);
      for (size_t size : c.growth) pool.GenerateUntil(size);
      std::vector<std::vector<NodeId>> exclusions = {{}, {0, 5, 7}};
      if (c.hubs_excluded > 0) exclusions = {TopHubs(pool, c.hubs_excluded)};
      for (const std::vector<NodeId>& excluded : exclusions) {
        const uint64_t ids_before = SelectIdsReadCounter().Value();
        const uint64_t pushes_before = SelectHeapEntriesCounter().Value();
        const SeedSelection got = NodeSelection(pool, c.k, excluded);
        const uint64_t pushes = SelectHeapEntriesCounter().Value() -
                                pushes_before;
        size_t want_ids = 0;
        const SeedSelection want =
            ReferenceNodeSelection(pool, c.k, excluded, &want_ids);
        EXPECT_EQ(got.seeds, want.seeds) << excluded.size() << " excluded";
        EXPECT_EQ(got.coverage, want.coverage);
        EXPECT_EQ(SelectIdsReadCounter().Value() - ids_before, want_ids);
        EXPECT_EQ(got.seeds.size(), c.k);
        if (c.name == "pa") {
          // Degrees span many bands, and most candidates never surface.
          const std::vector<NodeId> hub = TopHubs(pool, 1);
          EXPECT_GE(std::bit_width(pool.IndexDegree(hub[0])), 9);
          size_t candidates = 0;
          for (NodeId v = 0; v < pa.num_nodes(); ++v) {
            candidates += pool.IndexDegree(v) > 0;
          }
          EXPECT_LT(pushes * 4, candidates) << pushes << " pushes";
        }
        if (c.name == "padding") {
          EXPECT_EQ(got.coverage.back(), 1.0);  // gains ran out before k
        }
      }
    }
  }
}

}  // namespace
}  // namespace uic
