#include "rrset/rr_collection.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "rrset/rr_stream_cache.h"

namespace uic {

namespace {

/// Number of global set indices g < g0 with g % kRrStreams == s — i.e. the
/// position stream `s` has reached once the pool holds g0 sets.
inline size_t QuotBegin(size_t g0, unsigned s) {
  return (g0 + kRrStreams - 1 - s) / kRrStreams;
}

}  // namespace

RrSampler::RrSampler(const Graph& graph, RrOptions options)
    : graph_(graph),
      options_(options),
      visited_epoch_(graph.num_nodes(), 0) {
  if (ResolveSamplingKernel(options_.kernel) == SamplingKernel::kSkip) {
    const uint32_t features = options_.linear_threshold
                                  ? SamplingPlan::kLtAlias
                                  : SamplingPlan::kIcBuckets;
    if (options_.sampling_plan == nullptr) {
      owned_plan_ = SamplingPlan::Build(
          graph, SamplingPlan::Direction::kReverse, features);
      options_.sampling_plan = owned_plan_.get();
    }
    plan_ = options_.sampling_plan;
    UIC_CHECK(plan_->direction() == SamplingPlan::Direction::kReverse);
    UIC_CHECK(options_.linear_threshold ? plan_->has_lt_alias()
                                        : plan_->has_ic_buckets());
  }
}

size_t RrSampler::SampleInto(Rng& rng, std::vector<NodeId>* out) {
  out->clear();
  return SampleAppend(rng, out);
}

size_t RrSampler::SampleRootedInto(NodeId root, Rng& rng,
                                   std::vector<NodeId>* out) {
  out->clear();
  return SampleRootedAppend(root, rng, out);
}

size_t RrSampler::SampleAppend(Rng& rng, std::vector<NodeId>* arena) {
  const NodeId root = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
  return SampleRootedAppend(root, rng, arena);
}

bool RrSampler::TryVisit(NodeId u, Rng& rng, std::vector<NodeId>* arena) {
  if (visited_epoch_[u] == epoch_) return false;
  if (options_.node_pass_prob != nullptr &&
      !rng.NextBernoulli((*options_.node_pass_prob)[u])) {
    // Node rejected: mark visited so it is not retried through another
    // edge (its adoption coin is flipped once), and do not traverse.
    visited_epoch_[u] = epoch_;
    return false;
  }
  visited_epoch_[u] = epoch_;
  arena->push_back(u);
  return true;
}

void RrSampler::ExpandScan(NodeId w, Rng& rng, std::vector<NodeId>* arena) {
  auto srcs = graph_.InNeighbors(w);
  auto probs = graph_.InProbs(w);
  for (size_t k = 0; k < srcs.size(); ++k) {
    const NodeId u = srcs[k];
    if (visited_epoch_[u] == epoch_) continue;
    if (!rng.NextBernoulli(probs[k])) continue;
    if (TryVisit(u, rng, arena)) queue_.push_back(u);
  }
}

void RrSampler::ExpandSkip(NodeId w, Rng& rng, std::vector<NodeId>* arena) {
  // Geometric skip: within a bucket every edge shares probability p, so
  // the index gap to the next live edge is geometric — one draw per live
  // edge (plus at most one closing draw per bucket; none is spent once
  // the last edge has been reached, which keeps size-1 buckets on the
  // exact Bernoulli draw sequence). Unlike the scan kernel this also
  // "flips" coins for edges into already-visited nodes; those coins never
  // affect the sampled set, so the set distribution is identical (only
  // the draw sequence differs).
  for (const SamplingPlan::Bucket& b : plan_->Buckets(w)) {
    size_t i = rng.NextGeometric(b.log1p_neg_p);
    while (i < b.size) {
      if (TryVisit(b.nodes[i], rng, arena)) queue_.push_back(b.nodes[i]);
      if (i + 1 >= b.size) break;  // no edges left: skip the closing draw
      i += 1 + rng.NextGeometric(b.log1p_neg_p);
    }
  }
}

size_t RrSampler::LtWalkScan(NodeId root, Rng& rng,
                             std::vector<NodeId>* arena) {
  // LT live-edge: reverse random walk — each node contributes at most
  // one in-edge, selected with probability proportional to its weight.
  size_t edges = 0;
  NodeId w = root;
  while (true) {
    auto srcs = graph_.InNeighbors(w);
    auto probs = graph_.InProbs(w);
    edges += srcs.size();
    NodeId src = ~NodeId{0};
    double r = rng.NextDouble();
    for (size_t k = 0; k < srcs.size(); ++k) {
      if (r < probs[k]) {
        src = srcs[k];
        break;
      }
      r -= probs[k];
    }
    if (src == ~NodeId{0} || visited_epoch_[src] == epoch_) break;
    if (options_.node_pass_prob != nullptr &&
        !rng.NextBernoulli((*options_.node_pass_prob)[src])) {
      break;
    }
    visited_epoch_[src] = epoch_;
    arena->push_back(src);
    w = src;
  }
  return edges;
}

size_t RrSampler::LtWalkAlias(NodeId root, Rng& rng,
                              std::vector<NodeId>* arena) {
  // Same walk, O(1) per step via the plan's alias tables.
  size_t edges = 0;
  NodeId w = root;
  while (true) {
    edges += graph_.InDegree(w);
    const NodeId src = plan_->SampleLtSource(w, rng);
    if (src == SamplingPlan::kNoSource || visited_epoch_[src] == epoch_) break;
    if (options_.node_pass_prob != nullptr &&
        !rng.NextBernoulli((*options_.node_pass_prob)[src])) {
      break;
    }
    visited_epoch_[src] = epoch_;
    arena->push_back(src);
    w = src;
  }
  return edges;
}

size_t RrSampler::SampleRootedAppend(NodeId root, Rng& rng,
                                     std::vector<NodeId>* arena) {
  ++epoch_;
  if (options_.node_pass_prob != nullptr) {
    if (!rng.NextBernoulli((*options_.node_pass_prob)[root])) {
      return 0;  // root rejected: empty RR set
    }
  }
  visited_epoch_[root] = epoch_;
  arena->push_back(root);
  if (options_.linear_threshold) {
    return plan_ != nullptr ? LtWalkAlias(root, rng, arena)
                            : LtWalkScan(root, rng, arena);
  }
  queue_.clear();
  queue_.push_back(root);
  size_t head = 0;
  size_t edges = 0;
  while (head < queue_.size()) {
    const NodeId w = queue_[head++];
    // EPT accounting counts every in-edge of a visited node as examined,
    // including edges the skip kernel jumps over (rr_collection.h).
    edges += graph_.InDegree(w);
    if (plan_ != nullptr && !plan_->IsGeneral(w)) {
      ExpandSkip(w, rng, arena);
    } else {
      ExpandScan(w, rng, arena);
    }
  }
  return edges;
}

RrCollection::RrCollection(const Graph& graph, uint64_t seed,
                           unsigned workers, RrOptions options,
                           ThreadPool* pool)
    : graph_(graph),
      options_(options),
      workers_(workers),
      pool_(pool),
      seed_(seed),
      cache_(options.stream_cache) {
  if (workers_ == 0) workers_ = DefaultWorkers();
  if (pool_ == nullptr) pool_ = &ThreadPool::Shared();
  for (unsigned s = 0; s < kRrStreams; ++s) own_[s].rng = Rng::Split(seed, s);
  index_degree_.assign(graph_.num_nodes(), 0);
}

void RrCollection::Clear() {
  // Stream positions persist, so growth after Clear continues every
  // stream where this collection left it: a warm collection moves its
  // base past the samples it held; a cold one drops them while its RNGs
  // keep their positions.
  for (unsigned s = 0; s < kRrStreams; ++s) {
    if (cache_ != nullptr) {
      base_[s] += QuotBegin(size_, s);
    } else {
      own_[s].nodes.clear();
      own_[s].ends.clear();
    }
  }
  size_ = 0;
  total_nodes_ = 0;
  index_.clear();
  index_degree_.assign(graph_.num_nodes(), 0);
}

void RrCollection::Reset(uint64_t seed) {
  Clear();
  seed_ = seed;
  for (unsigned s = 0; s < kRrStreams; ++s) own_[s].rng = Rng::Split(seed, s);
  base_.fill(0);
  streams_ = nullptr;  // re-bound (to the new seed's entry) on next growth
}

void RrCollection::BindStreams() {
  if (cache_ != nullptr) {
    cache_->BindGraph(graph_);
    RrStreamCache::Entry* entry = cache_->GetEntry(seed_, options_);
    streams_ = entry->streams.data();
    sampling_ = &entry->sampling;
    return;
  }
  // The per-stream samplers share one plan — the caller's, or one built
  // here once and kept for the collection's lifetime — before generation
  // fans out, instead of each building their own.
  if (ResolveSamplingKernel(options_.kernel) == SamplingKernel::kSkip &&
      options_.sampling_plan == nullptr) {
    plan_ = SamplingPlan::Build(graph_, SamplingPlan::Direction::kReverse,
                                options_.linear_threshold
                                    ? SamplingPlan::kLtAlias
                                    : SamplingPlan::kIcBuckets);
    options_.sampling_plan = plan_.get();
  }
  streams_ = own_.data();
  sampling_ = &options_;
}

void RrCollection::GenerateUntil(size_t target) {
  if (target <= size_) return;
  const size_t first = size_;
  if (streams_ == nullptr) BindStreams();

  // Each logical stream must hold this collection's slice of [0, target):
  // the global indices g with g % kRrStreams == s, i.e. QuotBegin(target,
  // s) samples from its base. Streams already long enough (a warm cache
  // past its high-water mark) cost nothing; the rest draw the missing
  // samples from their own RNG, in parallel. `workers_` only bounds how
  // many streams run concurrently; the pool content depends on the seed
  // alone, and a cache replays byte-for-byte what a cold stream draws.
  std::array<size_t, kRrStreams> drawn{};     // sets sampled per stream
  std::array<size_t, kRrStreams> examined{};  // their edges examined
  pool_->ParallelFor(
      kRrStreams, workers_, [&](unsigned, size_t sb, size_t se) {
        for (size_t s = sb; s < se; ++s) {
          RrStream& stream = streams_[s];
          const size_t need =
              base_[s] + QuotBegin(target, static_cast<unsigned>(s));
          const size_t have = stream.ends.size();
          if (need <= have) continue;
          if (stream.ends.capacity() < need) {
            // Exact for one big round (a final pool), geometric for many
            // small ones.
            stream.ends.reserve(
                std::max(need, stream.ends.capacity() * 3 / 2));
          }
          RrSampler sampler(graph_, *sampling_);
          size_t edges = 0;
          for (size_t i = have; i < need; ++i) {
            edges += sampler.SampleAppend(stream.rng, &stream.nodes);
            stream.ends.push_back(stream.nodes.size());
          }
          drawn[s] = need - have;
          examined[s] = edges;
        }
      });

  size_t sampled = 0;
  size_t edges = 0;
  for (unsigned s = 0; s < kRrStreams; ++s) {
    UIC_CHECK_GE(streams_[s].ends.size(), base_[s] + QuotBegin(target, s));
    total_nodes_ += StreamSlice(s, first, target).size();
    sampled += drawn[s];
    edges += examined[s];
  }
  size_ = target;
  // One batched add per growth round (not per set) keeps the instrument
  // cost off the sampling hot path.
  if (sampled > 0) {
    UIC_METRIC_COUNTER(rr_sets, "uic_rr_sets_sampled_total",
                       "RR sets freshly sampled (cold path + cache fills).");
    rr_sets.Add(sampled);
    UIC_METRIC_COUNTER(rr_edges, "uic_rr_edges_examined_total",
                       "Edges examined by the RR sampling kernels.");
    rr_edges.Add(edges);
  }
  if (cache_ != nullptr) {
    cache_->sampled_sets_ += sampled;
    cache_->served_sets_ += target - first;
    UIC_METRIC_COUNTER(rr_served, "uic_rr_cache_sets_served_total",
                       "RR sets served by warm-cache stream replay.");
    rr_served.Add(target - first);
  }
  ExtendIndex(first);
}

std::span<const NodeId> RrCollection::StreamSlice(unsigned s, size_t first,
                                                  size_t last) const {
  if (first >= last) return {};
  const RrStream& stream = streams_[s];
  const NodeId* nodes = stream.nodes.data();
  return {nodes + stream.Begin(base_[s] + QuotBegin(first, s)),
          nodes + stream.Begin(base_[s] + QuotBegin(last, s))};
}

template <typename Fn>
void RrCollection::ForEachSet(size_t first, size_t last, Fn&& fn) const {
  if (first >= last) return;
  std::array<const NodeId*, kRrStreams> nodes;
  std::array<const uint64_t*, kRrStreams> ends;  // from this collection's base
  std::array<uint64_t, kRrStreams> begin;
  for (unsigned s = 0; s < kRrStreams; ++s) {
    const RrStream& stream = streams_[s];
    nodes[s] = stream.nodes.data();
    ends[s] = stream.ends.data() + base_[s];
    begin[s] = stream.Begin(base_[s] + QuotBegin(first, s));
  }
  size_t q = first / kRrStreams;
  unsigned s = static_cast<unsigned>(first % kRrStreams);
  for (size_t r = first; r < last; ++r) {
    const uint64_t end = ends[s][q];
    fn(r, std::span<const NodeId>(nodes[s] + begin[s], nodes[s] + end));
    begin[s] = end;
    if (++s == kRrStreams) {
      s = 0;
      ++q;
    }
  }
}

size_t RrCollection::TotalEdgesExamined() const {
  size_t edges = 0;
  for (unsigned s = 0; s < kRrStreams; ++s) {
    for (NodeId v : StreamSlice(s, 0, size_)) edges += graph_.InDegree(v);
  }
  return edges;
}

void RrCollection::ExtendIndex(size_t first_new) {
  const size_t num_new = size_ - first_new;
  if (num_new == 0) return;
  UIC_CHECK_LT(size_, size_t{UINT32_MAX});  // ids are uint32
  const size_t n = graph_.num_nodes();

  // Logical workers for this delta build; ParallelFor clamps identically,
  // so `w` in the lambdas is always < iw. Small rounds use fewer workers:
  // the counting scratch (and its zeroing) is iw × n, which must not cost
  // Θ(workers·n) for a round that adds a handful of sets.
  const size_t by_work = (num_new + 1023) / 1024;
  unsigned iw = workers_;
  if (iw > by_work) iw = static_cast<unsigned>(by_work);
  if (iw < 1) iw = 1;

  // Pass 1 (parallel): per-(worker, node) occurrence counts over each
  // worker's slice of the new sets — 16 contiguous stream slices.
  std::vector<uint32_t> scratch(static_cast<size_t>(iw) * n, 0);
  uint32_t* counts = scratch.data();
  pool_->ParallelFor(num_new, iw, [&](unsigned w, size_t begin, size_t end) {
    uint32_t* cnt = counts + static_cast<size_t>(w) * n;
    for (unsigned s = 0; s < kRrStreams; ++s) {
      for (NodeId v : StreamSlice(s, first_new + begin, first_new + end)) {
        ++cnt[v];
      }
    }
  });

  // Prefix sums (serial): delta offsets per node, and in place of each
  // count the start cursor for that (worker, node) region, stored
  // *relative to off[v]* so it fits uint32 (per-node degree < 2^32) even
  // when the delta itself holds more than 2^32 entries. Worker order per
  // node matches set-id order, keeping ids ascending within a node.
  IndexDelta delta;
  delta.off.assign(n + 1, 0);
  size_t run = 0;
  for (size_t v = 0; v < n; ++v) {
    delta.off[v] = run;
    uint32_t rel = 0;
    for (unsigned w = 0; w < iw; ++w) {
      uint32_t& slot = counts[static_cast<size_t>(w) * n + v];
      const uint32_t c = slot;
      slot = rel;
      rel += c;
    }
    index_degree_[v] += rel;
    run += rel;
  }
  delta.off[n] = run;

  // Pass 2 (parallel): scatter set ids into the delta via the per-worker
  // cursors; every (worker, node) writes a disjoint region.
  delta.sets.resize(run);
  uint32_t* slots = delta.sets.data();
  const size_t* off = delta.off.data();
  pool_->ParallelFor(num_new, iw, [&](unsigned w, size_t begin, size_t end) {
    uint32_t* cur = counts + static_cast<size_t>(w) * n;
    ForEachSet(first_new + begin, first_new + end,
               [&](size_t r, std::span<const NodeId> set) {
                 const uint32_t id = static_cast<uint32_t>(r);
                 for (NodeId v : set) slots[off[v] + cur[v]++] = id;
               });
  });
  index_.push_back(std::move(delta));

  // Tiered merging (binary-counter style): fold the newest delta into its
  // predecessor while it is at least as large, so delta sizes stay
  // geometrically decreasing and the merge work stays amortized
  // near-linear for any growth schedule. The hard cap then bounds the
  // retained (n+1)-entry offset arrays and per-lookup delta walks even
  // for schedules of many strictly shrinking rounds.
  while (index_.size() >= 2 &&
         index_.back().sets.size() >=
             index_[index_.size() - 2].sets.size()) {
    MergeIndexTail(index_.size() - 2);
  }
  constexpr size_t kMaxIndexDeltas = 8;
  if (index_.size() > kMaxIndexDeltas) MergeIndexTail(0);
}

void RrCollection::MergeIndexTail(size_t first) {
  if (index_.size() - first <= 1) return;
  UIC_METRIC_COUNTER(rr_merges, "uic_rr_index_merges_total",
                     "Coverage-index delta merges (tiered merging).");
  rr_merges.Add();
  const size_t n = graph_.num_nodes();
  const size_t num_deltas = index_.size();
  IndexDelta merged;
  merged.off.assign(n + 1, 0);
  size_t run = 0;
  for (size_t v = 0; v < n; ++v) {
    merged.off[v] = run;
    for (size_t d = first; d < num_deltas; ++d) {
      run += index_[d].off[v + 1] - index_[d].off[v];
    }
  }
  merged.off[n] = run;
  merged.sets.resize(run);
  uint32_t* slots = merged.sets.data();
  const IndexDelta* deltas = index_.data();
  // Parallel over node ranges: each node's merged slice is filled by
  // walking the tail deltas in order, preserving ascending set-id order;
  // regions are disjoint per node.
  pool_->ParallelFor(n, workers_, [&](unsigned, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      uint32_t* out = slots + merged.off[v];
      for (size_t d = first; d < num_deltas; ++d) {
        const IndexDelta& dd = deltas[d];
        const size_t d_end = dd.off[v + 1];
        for (size_t i = dd.off[v]; i < d_end; ++i) *out++ = dd.sets[i];
      }
    }
  });
  index_.resize(first);
  index_.push_back(std::move(merged));
}

}  // namespace uic
