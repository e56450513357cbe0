// Warm RR-sample reuse across solver invocations (the sweep engine's pool
// cache).
//
// RR generation is organized as `kRrStreams` logical sample streams, and a
// stream's sample sequence is a pure function of (graph, sampling options,
// seed, stream index) — see rr_collection.h. An `RrStreamCache` memoizes
// those sequences: when an `RrCollection` is constructed with
// `RrOptions::stream_cache` set, it reads its sets straight out of the
// cache entry's `RrStream`s instead of owning streams of its own, and its
// `GenerateUntil` extends those shared streams (sampling only past their
// high-water marks). Because the shared streams hold byte-for-byte what a
// cold collection would have drawn, every consumer — PRIMA's phase loop,
// its regeneration pass, IMM, the Com-IC coin samplers — produces
// bit-identical results warm or cold; the only difference is how many RR
// sets are sampled from scratch.
//
// A coin-free entry also owns the coverage index over its longest pool so
// far, and its collections borrow it cut at their own sizes
// (rr_collection.h), so a repeated solve builds no index either. That
// index stays resident with the entry: 4 bytes per set id plus 4 · (n + 1)
// per CSR delta (at most 8). Coin entries (a node-pass-probability vector)
// keep no index: their contents usually change with the budget point, so
// their collections index privately.
//
// This is what makes budget sweeps cheap: consecutive PRIMA invocations at
// growing budgets use the same master seed, so their phase pools (and,
// separately, their regeneration pools) are nested prefixes of the same
// cached streams — a 4-point sweep samples roughly the largest point's
// pool once instead of four pools from scratch.
//
// Entries are keyed by (seed, sampling semantics): the linear-threshold
// flag and the *contents* of any node-pass-probability vector. The cache
// is bound to one graph (checked) and is NOT thread-safe across concurrent
// solver invocations; a SweepRunner drives solves sequentially. It is
// therefore deliberately mutex-free and carries no thread-safety
// capabilities (common/annotations.h): the only intra-solve concurrency
// is one collection extending *distinct* streams of an entry, or building
// one index delta, under the ParallelFor barrier, and the counters are
// updated after that barrier.
//
// Growth of any collection on an entry may reallocate the entry's stream
// arrays and merge its index deltas, so a `RrCollection::Set()` span from
// a collection on the same entry is valid only until that growth
// (rr_collection.h); collections read the entry's index afresh on every
// call.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"

namespace uic {

/// \brief Memoized per-stream RR sample sequences, shared across the
/// solver invocations of a sweep.
class RrStreamCache {
 public:
  RrStreamCache() = default;

  // Not copyable: collections borrow the entries' streams by pointer.
  RrStreamCache(const RrStreamCache&) = delete;
  RrStreamCache& operator=(const RrStreamCache&) = delete;

  /// Aggregate reuse accounting. The sampled/served counters are monotone
  /// over the cache's lifetime (they survive Clear/Trim, so per-solve
  /// deltas stay meaningful); `entries` reflects the current contents.
  struct Stats {
    size_t sampled_sets = 0;  ///< RR sets drawn from scratch into the cache
    size_t served_sets = 0;   ///< RR sets handed to collections (incl. repeats)
    size_t entries = 0;       ///< distinct (seed, semantics) stream groups
  };
  Stats stats() const;

  /// Drop every entry (collections serving from this cache must be
  /// discarded first — they borrow the entries' streams and indexes).
  void Clear();

  /// Drop all but the `keep` most recently created node-pass-probability
  /// entries (coin pools). Coin contents usually change with the budget
  /// point (they derive from the i2 seed set), so old coin entries are
  /// dead weight a long Com-IC sweep would otherwise accumulate linearly;
  /// keeping the newest few preserves reuse for specs that pin the coin
  /// budget. Plain entries (no coins) are always kept. Like Clear(), only
  /// safe while no collection is serving from the cache — SweepRunner
  /// calls it between cells.
  void TrimPassProbEntries(size_t keep);

 private:
  friend class RrCollection;

  /// Streams for one (seed, sampling semantics) group. The kernel is part
  /// of the key: the kernels draw different RNG sequences, so kScan and
  /// kSkip streams for the same seed are distinct sample sequences.
  struct Entry {
    uint64_t seed = 0;
    std::vector<float> pass_prob;  ///< copied contents, exact-match keyed
    /// What the entry's samplers run with: the linear-threshold flag, the
    /// kernel, `pass_prob` (borrowed from this entry) and, under kSkip,
    /// the bound graph's own plan (`Graph::Plan`), looked up once in
    /// GetEntry — serially, before growth fans out — whatever plan the
    /// caller's options carry. Also the entry's key, with `seed`.
    RrOptions sampling;
    std::array<RrStream, kRrStreams> streams;
    /// The coverage index over the streams' longest pool so far, shared by
    /// the entry's collections; unused (empty) on a coin entry.
    CoverageIndex index;
  };

  /// Bind to (or verify against) `graph`; the cache serves one graph.
  void BindGraph(const Graph& graph);

  /// Find-or-create the entry for (seed, options-semantics). Entries are
  /// heap-allocated, so the pointer, its streams and its index stay put
  /// until the entry is dropped by Clear() or TrimPassProbEntries().
  Entry* GetEntry(uint64_t seed, const RrOptions& options);

  const Graph* graph_ = nullptr;
  std::vector<std::unique_ptr<Entry>> entries_;
  // Monotone lifetime counters, advanced by RrCollection::GenerateUntil
  // after its parallel stream extension.
  size_t sampled_sets_ = 0;
  size_t served_sets_ = 0;
};

}  // namespace uic
