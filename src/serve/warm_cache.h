// The serve layer's warm state: RrStreamCache instances shared across
// requests, checked out exclusively per (graph generation, seed, LT).
//
// An `RrStreamCache` (rrset/rr_stream_cache.h) memoizes per-stream RR
// sample sequences so a repeat solve extends cached streams instead of
// resampling — but it is deliberately mutex-free and NOT safe across
// concurrent solver invocations. `WarmPool` turns it into a serving-grade
// resource: entries are keyed by (graph generation, master seed,
// LT-sampling flag) — the coordinates RR stream content is a pure
// function of — and `Acquire` hands out an *exclusive lease*; a second
// request on the same key blocks until the first releases. Requests on
// different keys run fully concurrently (they share no mutable state).
//
// Because cached streams replay exactly what a cold collection would have
// drawn, a warm-served response is bit-identical to a cold one; the only
// observable difference is the `rr_sets_sampled` accounting the server
// reports per response. The pool enforces an LRU entry cap (idle entries
// evict; leased entries never do) so long-running daemons hold a bounded
// number of sample pools.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "graph/graph.h"
#include "rrset/rr_stream_cache.h"
#include "serve/json.h"

namespace uic {
namespace serve {

/// \brief Identity of one warm sample pool: the coordinates RR stream
/// content is a pure function of (graph via generation; seed; sampling
/// semantics via the LT flag — per-request pass-prob vectors are keyed
/// inside the RrStreamCache itself).
struct WarmKey {
  uint64_t generation = 0;
  uint64_t seed = 0;
  bool linear_threshold = false;

  bool operator==(const WarmKey& o) const {
    return generation == o.generation && seed == o.seed &&
           linear_threshold == o.linear_threshold;
  }
};

class WarmPool;
struct WarmEntry;

/// \brief Exclusive RAII lease on one warm cache entry. The lease shares
/// ownership of the entry with the pool, so an entry dropped while leased
/// stays usable until the lease lets go of it.
class WarmLease {
 public:
  WarmLease() = default;
  WarmLease(WarmLease&& o) noexcept = default;
  ~WarmLease() { Release(); }

  /// The leased cache; nullptr on a default-constructed or released lease.
  RrStreamCache* cache() const;
  /// True when the entry existed before this Acquire (a warm hit).
  bool hit() const { return hit_; }

  /// Give the entry back (idempotent; the destructor calls it).
  void Release();

 private:
  friend class WarmPool;
  WarmLease(WarmPool* pool, std::shared_ptr<WarmEntry> entry, bool hit)
      : pool_(pool), entry_(std::move(entry)), hit_(hit) {}

  WarmPool* pool_ = nullptr;
  std::shared_ptr<WarmEntry> entry_;
  bool hit_ = false;
};

/// \brief Bounded pool of exclusively-leased RrStreamCache entries.
class WarmPool {
 public:
  explicit WarmPool(size_t max_entries = 16) : max_entries_(max_entries) {}

  /// Check out the entry for `key`, creating it on first use (`graph`
  /// pins the graph for the entry's lifetime). Blocks while another
  /// lease holds the same key. Creating past the cap first evicts the
  /// least-recently-used idle entry. Traced as `serve.warm_acquire`;
  /// hits, misses and evictions are counted on the registry
  /// (serve/instruments.h).
  WarmLease Acquire(const WarmKey& key,
                    std::shared_ptr<const Graph> graph);

  /// Drop every entry of `generation` (an unloaded graph), leased or
  /// not: the next Acquire of its keys misses, and a leased entry lives
  /// on in its lease until released.
  void DropGeneration(uint64_t generation);

  /// Entry state for the `stats` verb: entries, and how many are leased.
  Json Describe() const;

 private:
  friend class WarmLease;

  void Release(WarmEntry& entry);

  const size_t max_entries_;

  mutable Mutex mu_;
  CondVar released_;
  std::vector<std::shared_ptr<WarmEntry>> entries_ UIC_GUARDED_BY(mu_);
  uint64_t tick_ UIC_GUARDED_BY(mu_) = 0;
};

}  // namespace serve
}  // namespace uic
