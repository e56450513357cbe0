// Random reverse-reachable (RR) set sampling and storage (§4.2.3).
//
// An RR set is sampled by picking a root uniformly at random and walking
// the graph *backwards*, keeping each in-edge live with its influence
// probability; the RR set is the set of nodes reaching the root in that
// partial edge world. The key identity is σ(S) = n · E[ S ∩ R ≠ ∅ ].
//
// `RrCollection` is the RR engine's state: a growing pool of RR sets plus
// the inverted node→RR-set coverage index NodeSelection consumes, both
// maintained *incrementally* — every `GenerateUntil` round extends the
// sample streams in parallel and extends the index with a CSR delta built
// in parallel, so nothing is recomputed when the pool only grows. All
// parallel work runs on a persistent `ThreadPool` (the process-wide
// shared pool by default); no threads are spawned per round.
//
// Generation is deterministic in the seed ALONE: the pool is a fixed grid
// of `kRrStreams` logical sample streams, and RR set g is always drawn as
// sample g / kRrStreams of stream g % kRrStreams. Pool content at any size
// is therefore a pure function of (graph, options, seed) — independent of
// the worker count, the physical thread count, and the sequence of
// `GenerateUntil` targets used to reach that size. Two consequences the
// rest of the system builds on:
//   * every solver above the engine is worker-count invariant, and
//   * any pool is a prefix of one deterministic infinite sequence, so a
//     sweep can serve it warm from an `RrStreamCache` (rr_stream_cache.h)
//     with bit-identical results.
//
// Storage has one format, `RrStream`: per stream, every sample's node ids
// back to back plus one 4-byte end offset per sample. A cold collection
// owns its 16 streams; a warm one borrows those of an `RrStreamCache`
// entry. Either way the collection keeps no per-set data — set g is
// sample g / kRrStreams of stream g % kRrStreams.
//
// The coverage index has one format too, `CoverageIndex`. A cold
// collection owns one. A warm collection on a coin-free cache entry
// borrows the entry's, which covers the entry's longest pool so far: the
// collection that first grows the entry past the index extends it, and
// every other one reads it cut at its own size. Each node's set ids
// ascend, so the cut is a per-node count — the collection's degree array
// — and a warm re-solve builds no index at all. Coin pools (a
// node-pass-probability vector) keep a private index even when warm: their
// entries rarely repeat (rr_stream_cache.h), so a resident index would
// cost memory that is never reused.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "graph/sampling_plan.h"

namespace uic {

class ThreadPool;
class RrStreamCache;

/// Number of logical RR sample streams — the RR engine's name for the
/// process-wide stream-grid width (one constant, common/random.h).
inline constexpr unsigned kRrStreams = kRngStreams;

/// \brief One logical sample stream's materialized prefix, in CSR form.
///
/// Sample i occupies `nodes[Begin(i) .. ends[i])`. A sample can be empty
/// (a coin-pool root that fails its coin): then ends[i] == ends[i − 1].
/// Owned by a cold RrCollection or by an RrStreamCache entry, and only
/// ever appended to, by RrCollection::GenerateUntil. Ends are uint32, so
/// a stream holds fewer than 2^32 node ids (checked on growth): 4 bytes
/// per set plus 4 per id.
///
/// Workers extend distinct streams concurrently and write the RNG state
/// and both vectors' ends on every draw, so each stream gets cache lines
/// of its own: packed (80-byte) streams share lines with their
/// neighbours, and growth slows whenever neighbours run at once.
struct alignas(64) RrStream {
  Rng rng;                     ///< positioned after ends.size() draws
  std::vector<NodeId> nodes;   ///< every sample's node ids, back to back
  std::vector<uint32_t> ends;  ///< end offset into `nodes`, one per sample

  size_t Begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
};

/// \brief The node→RR-set coverage index over a pool's first `size()`
/// sets: a list of CSR deltas, each over a contiguous range of set ids.
///
/// In delta d, `sets[off[v] .. off[v+1])` are the ids of its sets that
/// contain v, ascending; the deltas' ranges ascend too, so concatenating
/// node v's slices over the deltas lists every set containing v in id
/// order. Owned by a cold or coin-pool RrCollection, or by a coin-free
/// RrStreamCache entry, and extended only by RrCollection::GenerateUntil.
/// Set ids and offsets are uint32, so one index holds fewer than 2^32 sets
/// and 2^32 ids (checked): 4 bytes per id plus 4 · (n + 1) per delta.
struct CoverageIndex {
  struct Delta {
    size_t end = 0;              ///< one past the last set id covered
    std::vector<uint32_t> off;   ///< graph.num_nodes() + 1
    std::vector<uint32_t> sets;  ///< set ids, ascending per node
  };
  std::vector<Delta> deltas;  ///< ascending, contiguous id ranges from 0

  size_t size() const { return deltas.empty() ? 0 : deltas.back().end; }
};

/// \brief Options modifying RR sampling semantics.
struct RrOptions {
  /// Optional per-node pass probability (used by the Com-IC style samplers
  /// RR-SIM/RR-CIM): a visited node joins the RR set only if an independent
  /// coin with this probability succeeds; traversal continues only through
  /// passing nodes. The *root* failing its coin yields an empty RR set
  /// (which still counts toward the pool size).
  const std::vector<float>* node_pass_prob = nullptr;

  /// Sample under the Linear Threshold live-edge distribution instead of
  /// IC: each visited node selects at most ONE in-neighbor (u with
  /// probability w(u,v), none with 1 − Σ w), so an LT RR set is a reverse
  /// random walk. Requires Σ_u w(u,v) <= 1 per node.
  bool linear_threshold = false;

  /// Optional warm-start hook (the sweep engine's pool-reuse point): when
  /// set, `GenerateUntil` serves samples from the cache — extending it by
  /// sampling only past its high-water mark — instead of drawing them
  /// fresh, and on a coin-free entry borrows the entry's coverage index
  /// instead of building its own. Results are bit-identical to a cold
  /// collection; only the number of sets sampled from scratch changes.
  /// Does not affect sampling semantics, so it is ignored by the cache's
  /// own entry keying. The cache must outlive the collection.
  RrStreamCache* stream_cache = nullptr;

  /// Sampling kernel (graph/sampling_plan.h). kSkip, the default, draws
  /// geometric gaps over the graph's probability-stratified plan (falling
  /// back to per-edge scanning for nodes the plan classifies kGeneral);
  /// kScan is the legacy per-edge-trial kernel. The kernels draw DIFFERENT
  /// RNG sequences, so the kernel is part of the pool's identity: every
  /// determinism guarantee (pure function of (graph, options, seed),
  /// worker/schedule invariance, warm==cold) holds per kernel, and the
  /// kernel joins the stream cache's entry key.
  SamplingKernel kernel = SamplingKernel::kSkip;

  /// Optional reverse-direction sampling plan for the graph, borrowed and
  /// non-semantic like `stream_cache`: a plan is a pure function of the
  /// graph, so it never changes the sampled pool. nullptr = the graph's
  /// own plan (`Graph::Plan`), which is what every production path uses;
  /// benches set one they built to time sampling apart from the build.
  /// A cold collection and a standalone RrSampler use a plan set here;
  /// cache entries ignore it and borrow the graph's, because an entry
  /// outlives the caller's options. Generation also passes the plan to its
  /// per-stream samplers through this field, so they never look it up.
  const SamplingPlan* sampling_plan = nullptr;
};

/// The plan RR samplers run on under `options`: none under kScan, else
/// `options.sampling_plan`, or the graph's reverse plan for the options'
/// model when that is null (`Graph::Plan`, which takes the plan's lock).
const SamplingPlan* SamplerPlan(const Graph& graph, const RrOptions& options);

/// \brief A pool of RR sets with deterministic parallel growth and an
/// incrementally maintained node→RR-set coverage index.
class RrCollection {
 public:
  /// `workers` bounds how many streams are processed concurrently (0 =
  /// `DefaultWorkers()`); it does NOT affect pool content. `pool` is the
  /// thread pool parallel growth runs on; nullptr means the process-wide
  /// `ThreadPool::Shared()`. The pool must outlive the collection.
  RrCollection(const Graph& graph, uint64_t seed, unsigned workers = 0,
               RrOptions options = {}, ThreadPool* pool = nullptr);

  // Not copyable: a collection reads its sets and index through pointers
  // (to its own, or to a shared RrStreamCache entry's), which a copy
  // would alias.
  RrCollection(const RrCollection&) = delete;
  RrCollection& operator=(const RrCollection&) = delete;

  /// Grow the pool until it holds at least `target` RR sets, extending the
  /// coverage index with the new sets.
  void GenerateUntil(size_t target);

  size_t size() const { return size_; }

  /// Nodes of RR set `r`. The span points into stream storage that growth
  /// may reallocate: it is valid only until the next GenerateUntil of ANY
  /// collection reading the same streams (this one, or another collection
  /// on the same RrStreamCache entry), or this collection's Reset().
  std::span<const NodeId> Set(size_t r) const {
    const RrStream& stream = streams_[r % kRrStreams];
    const size_t i = r / kRrStreams;
    return {stream.nodes.data() + stream.Begin(i),
            stream.nodes.data() + stream.ends[i]};
  }

  /// Total Σ_r |R_r| (memory proxy; also the NodeSelection cost).
  size_t TotalNodes() const { return total_nodes_; }

  /// Total Σ_r w(R_r): edges examined while sampling (EPT cost model).
  /// The samplers charge w(R) = Σ_{v∈R} indeg(v) (§4.2.3), so this is
  /// computed from the stored sets when called — O(TotalNodes()).
  size_t TotalEdgesExamined() const;

  const Graph& graph() const { return graph_; }

  unsigned workers() const { return workers_; }

  /// Drop all sets and reseed the sample streams: the collection becomes
  /// indistinguishable from a freshly constructed `RrCollection(graph,
  /// seed, workers, options)` while keeping its thread pool and any
  /// attached stream cache. This is how one engine instance serves a
  /// whole solver invocation, including PRIMA's regeneration pass (the
  /// final NodeSelection must run on freshly sampled sets).
  void Reset(uint64_t seed);

  // --- Coverage index ---------------------------------------------------
  // Maintained by GenerateUntil (extended per growth round, in parallel,
  // or borrowed from the cache entry and cut at size()) and dropped only
  // by Reset(). For every node v it lists the ids of the RR sets
  // containing v, in ascending id order. A borrowed index is read through
  // the entry on every call, so another collection's growth of the entry
  // (which may reallocate and merge its deltas) never invalidates it.

  /// Number of RR sets containing `v`.
  uint32_t IndexDegree(NodeId v) const { return degree_[v]; }

  /// Invoke `fn(set_id)` for every RR set containing `v`, in ascending
  /// set-id order. Ids ascend across the deltas, so the first
  /// IndexDegree(v) of node v's entries are exactly the sets below the
  /// cut: deltas past it are never read, and no id needs a check.
  template <typename Fn>
  void ForEachSetContaining(NodeId v, Fn&& fn) const {
    uint32_t left = degree_[v];
    for (size_t d = 0; left > 0; ++d) {
      const CoverageIndex::Delta& delta = index_->deltas[d];
      const uint32_t* ids = delta.sets.data() + delta.off[v];
      const uint32_t take = std::min(left, delta.off[v + 1] - delta.off[v]);
      for (uint32_t i = 0; i < take; ++i) fn(ids[i]);
      left -= take;
    }
  }

  /// Number of CSR deltas this collection reads (those that begin below
  /// size(); exposed for tests and instrumentation).
  size_t IndexDeltaCount() const;

 private:
  /// Point `streams_` at the streams this collection reads — its own, or
  /// the attached cache's entry for (seed, options) — `sampling_` at the
  /// options their samplers run with, and `index_` at the index it
  /// extends or borrows. Done on the first growth after construction or
  /// Reset().
  void BindStreams();

  /// The node ids of the sets [first, last) that live in stream `s`: one
  /// contiguous slice of the stream, for scans that need no set order.
  std::span<const NodeId> StreamSlice(unsigned s, size_t first,
                                      size_t last) const;

  /// Invoke `fn(set_id, nodes)` for the sets [first, last) in id order.
  /// Carries one running begin offset per stream rather than reading the
  /// previous sample's end for every set.
  template <typename Fn>
  void ForEachSet(size_t first, size_t last, Fn&& fn) const;

  /// Build the CSR delta for the sets [index_->size(), size()) in
  /// parallel, add its per-node counts to `degree_`, append it to the
  /// index and merge deltas per the tiering policy. Returns the number of
  /// set ids written into the delta.
  size_t ExtendIndex();

  /// Set `degree_` to each node's count of sets below size() in the
  /// index — the cut of a borrowed index — from the previous cut `from`.
  /// The sets of the delta that straddles the cut are counted forward
  /// from the streams: from `from` when it lies inside that delta (then
  /// `degree_` must count the sets [0, from)), else from the delta's
  /// start after recounting the deltas below it from their offsets.
  void CountDegrees(size_t from);

  /// Merge deltas [first, end) into one, preserving per-node ascending
  /// set-id order. Called with binary-counter tiering (merge while the
  /// newest delta is at least as large as its predecessor), which keeps
  /// delta sizes geometrically decreasing — O(log) deltas and amortized
  /// O(E log E) maintenance over E index entries for *any* growth
  /// schedule, O(E) for geometric ones like PRIMA's.
  void MergeIndexTail(size_t first);

  const Graph& graph_;
  RrOptions options_;
  unsigned workers_;
  ThreadPool* pool_;
  uint64_t seed_;
  RrStreamCache* cache_;  ///< nullptr = cold

  std::array<RrStream, kRrStreams> own_;  ///< a cold collection's streams
  RrStream* streams_ = nullptr;           ///< own_ or a cache entry's
  const RrOptions* sampling_ = nullptr;   ///< sampler options for streams_
  CoverageIndex own_index_;               ///< a cold or coin pool's index
  CoverageIndex* index_ = nullptr;        ///< own_index_ or a cache entry's
  size_t size_ = 0;
  size_t total_nodes_ = 0;

  /// Per node, the number of sets below size_ containing it: the whole
  /// index when this collection built it, a cut of a borrowed one.
  std::vector<uint32_t> degree_;
};

/// \brief Single-threaded RR sampler (exposed for tests and custom loops).
///
/// Under kSkip the sampler runs on `RrOptions::sampling_plan`, or on the
/// graph's own plan for the options' model when that is null (one lookup
/// per sampler, under the graph's plan lock). Per-stream loops pass the
/// plan in the options so that no sampler takes the lock.
class RrSampler {
 public:
  explicit RrSampler(const Graph& graph, RrOptions options = {});

  /// Sample one RR set rooted at a uniformly random node into `out`
  /// (cleared first). Returns the number of in-edges examined — which, by
  /// the EPT cost-model convention, counts edges the skip kernel jumped
  /// over as examined too (always Σ deg over visited nodes, kernel
  /// independent).
  size_t SampleInto(Rng& rng, std::vector<NodeId>* out);

  /// Sample one RR set with the given root (into a cleared `out`).
  size_t SampleRootedInto(NodeId root, Rng& rng, std::vector<NodeId>* out);

  /// Arena mode: as SampleInto/SampleRootedInto, but APPENDS the set's
  /// nodes to `arena` without clearing it — the sampled set is the
  /// appended suffix. This is how generation writes nodes straight into
  /// their final per-stream buffer. Draw sequence identical to the
  /// clearing variants.
  size_t SampleAppend(Rng& rng, std::vector<NodeId>* arena);
  size_t SampleRootedAppend(NodeId root, Rng& rng, std::vector<NodeId>* arena);

 private:
  /// Skip-kernel IC expansion of one dequeued node's in-adjacency.
  void ExpandSkip(NodeId w, Rng& rng, std::vector<NodeId>* arena);
  /// Scan-kernel (and kGeneral fallback) expansion.
  void ExpandScan(NodeId w, Rng& rng, std::vector<NodeId>* arena);
  /// Visited/pass-prob bookkeeping shared by both kernels; returns true
  /// if `u` joined the set (and the BFS queue).
  bool TryVisit(NodeId u, Rng& rng, std::vector<NodeId>* arena);

  size_t LtWalkScan(NodeId root, Rng& rng, std::vector<NodeId>* arena);
  size_t LtWalkAlias(NodeId root, Rng& rng, std::vector<NodeId>* arena);

  const Graph& graph_;
  RrOptions options_;
  const SamplingPlan* plan_ = nullptr;  ///< set iff the kernel is kSkip
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> queue_;
};

}  // namespace uic
