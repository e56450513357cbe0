#include "serve/warm_cache.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "obs/trace.h"
#include "serve/instruments.h"

namespace uic {
namespace serve {

/// One warm sample pool, owned by the pool while listed and by its lease
/// while leased. `leased` and `last_used` are guarded by the pool's mu_.
struct WarmEntry {
  WarmKey key;
  std::shared_ptr<const Graph> graph;
  RrStreamCache cache;
  bool leased = false;
  uint64_t last_used = 0;  ///< LRU tick
};

RrStreamCache* WarmLease::cache() const {
  return entry_ != nullptr ? &entry_->cache : nullptr;
}

void WarmLease::Release() {
  if (entry_ == nullptr) return;
  pool_->Release(*entry_);
  // A dropped entry's last owner: its cache and graph pin go here, outside
  // the pool's lock.
  entry_.reset();
}

WarmLease WarmPool::Acquire(const WarmKey& key,
                            std::shared_ptr<const Graph> graph) {
  obs::TraceSpan span("serve.warm_acquire");
  // delay_ms(n) widens the window between two same-key acquirers (and
  // between acquire and a concurrent unload's DropGeneration) so the
  // lease serialization is actually contended under TSan. Before the
  // lock: an injected delay must never be charged to mu_ holders.
  failpoint::SleepFor(UIC_FAILPOINT("serve.warm.acquire"));
  ServeInstruments& metrics = Instruments();
  MutexLock lock(mu_);
  while (true) {
    const auto found =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const auto& entry) { return entry->key == key; });
    if (found == entries_.end()) break;
    if (!(*found)->leased) {
      (*found)->leased = true;
      (*found)->last_used = ++tick_;
      metrics.warm_hits.Add();
      span.SetAttr("hit", 1);
      return WarmLease(this, *found, /*hit=*/true);
    }
    // Same-key contention: the cache is single-solver; wait for release.
    // (The entry may be evicted or dropped while we sleep, so the loop
    // re-scans from scratch.)
    released_.Wait(mu_);
  }

  // Miss: evict the least-recently-used idle entry if at capacity. Leased
  // entries are unevictable, so the pool can transiently exceed the cap
  // by the number of concurrent executors — bounded either way.
  if (entries_.size() >= max_entries_) {
    size_t victim = entries_.size();
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i]->leased) continue;
      if (victim == entries_.size() ||
          entries_[i]->last_used < entries_[victim]->last_used) {
        victim = i;
      }
    }
    if (victim < entries_.size()) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
      metrics.warm_evictions.Add();
    }
  }

  auto entry = std::make_shared<WarmEntry>();
  entry->key = key;
  entry->graph = std::move(graph);
  entry->leased = true;
  entry->last_used = ++tick_;
  entries_.push_back(entry);
  metrics.warm_misses.Add();
  span.SetAttr("hit", 0);
  return WarmLease(this, std::move(entry), /*hit=*/false);
}

void WarmPool::Release(WarmEntry& entry) {
  MutexLock lock(mu_);
  entry.leased = false;
  // Com-IC coin pools (pass-prob entries) derive from the solved budget
  // point and rarely repeat; cap them so a long-lived entry's memory
  // tracks reuse, not request count. Safe here: no collection is serving
  // from the cache once its solve released the lease.
  entry.cache.TrimPassProbEntries(4);
  released_.NotifyAll();
}

void WarmPool::DropGeneration(uint64_t generation) {
  MutexLock lock(mu_);
  std::erase_if(entries_, [&](const auto& entry) {
    return entry->key.generation == generation;
  });
  // Same-key waiters re-scan: their key now misses instead of waiting.
  released_.NotifyAll();
}

Json WarmPool::Describe() const {
  MutexLock lock(mu_);
  const auto leased =
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& entry) { return entry->leased; });
  Json out = Json::Object();
  out.Set("entries", Json::Int(static_cast<long long>(entries_.size())));
  out.Set("leased", Json::Int(static_cast<long long>(leased)));
  return out;
}

}  // namespace serve
}  // namespace uic
