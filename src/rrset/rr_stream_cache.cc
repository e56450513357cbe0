#include "rrset/rr_stream_cache.h"

#include "common/check.h"

namespace uic {

RrStreamCache::Stats RrStreamCache::stats() const {
  Stats s;
  s.sampled_sets = sampled_sets_;
  s.served_sets = served_sets_;
  s.entries = entries_.size();
  return s;
}

void RrStreamCache::Clear() {
  entries_.clear();
  graph_ = nullptr;
  // The sampled/served counters deliberately persist: they are monotone
  // over the cache's lifetime, so per-point deltas stay meaningful across
  // Clears (the cold-sweep mode clears between points) and Trims.
}

void RrStreamCache::TrimPassProbEntries(size_t keep) {
  size_t with_coins = 0;
  for (const auto& e : entries_) {
    with_coins += e->sampling.node_pass_prob != nullptr;
  }
  if (with_coins <= keep) return;
  size_t drop = with_coins - keep;
  // entries_ is in creation order; drop the oldest coin entries first.
  std::vector<std::unique_ptr<Entry>> kept;
  kept.reserve(entries_.size() - drop);
  for (auto& e : entries_) {
    if (e->sampling.node_pass_prob != nullptr && drop > 0) {
      --drop;
      continue;
    }
    kept.push_back(std::move(e));
  }
  entries_ = std::move(kept);
}

void RrStreamCache::BindGraph(const Graph& graph) {
  if (graph_ == nullptr) {
    graph_ = &graph;
    return;
  }
  UIC_CHECK_MSG(graph_ == &graph,
                "RrStreamCache is bound to a different graph; one cache "
                "serves one network (Clear() it to rebind)");
}

RrStreamCache::Entry* RrStreamCache::GetEntry(uint64_t seed,
                                              const RrOptions& options) {
  const bool has_pp = options.node_pass_prob != nullptr;
  for (const auto& e : entries_) {
    const RrOptions& key = e->sampling;
    if (e->seed != seed || key.linear_threshold != options.linear_threshold ||
        (key.node_pass_prob != nullptr) != has_pp ||
        key.kernel != options.kernel) {
      continue;
    }
    // Pass probabilities are keyed by *contents* (callers typically rebuild
    // the vector per invocation), so equal coins reuse the entry and
    // different coins — e.g. a different i2 seed set — get their own.
    if (has_pp && e->pass_prob != *options.node_pass_prob) continue;
    return e.get();
  }
  auto e = std::make_unique<Entry>();
  e->seed = seed;
  e->sampling.linear_threshold = options.linear_threshold;
  e->sampling.kernel = options.kernel;
  if (has_pp) {
    e->pass_prob = *options.node_pass_prob;
    e->sampling.node_pass_prob = &e->pass_prob;
  }
  // The graph's plan, not the caller's: the entry outlives the options.
  e->sampling.sampling_plan = SamplerPlan(*graph_, e->sampling);
  for (unsigned s = 0; s < kRrStreams; ++s) {
    // Must match RrCollection's own seeding so cached draws replay exactly
    // the cold RNG sequences.
    e->streams[s].rng = Rng::Split(seed, s);
  }
  entries_.push_back(std::move(e));
  return entries_.back().get();
}

}  // namespace uic
