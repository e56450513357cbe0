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

const SamplingPlan* SamplerPlan(const Graph& graph, const RrOptions& options) {
  if (options.kernel != SamplingKernel::kSkip) return nullptr;
  if (options.sampling_plan != nullptr) return options.sampling_plan;
  return &graph.Plan(options.linear_threshold ? Graph::PlanKind::kReverseLt
                                              : Graph::PlanKind::kReverseIc);
}

RrSampler::RrSampler(const Graph& graph, RrOptions options)
    : graph_(graph),
      options_(options),
      plan_(SamplerPlan(graph, options)),
      visited_epoch_(graph.num_nodes(), 0) {
  if (plan_ != nullptr) {
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
  degree_.assign(graph_.num_nodes(), 0);
}

void RrCollection::Reset(uint64_t seed) {
  seed_ = seed;
  for (unsigned s = 0; s < kRrStreams; ++s) {
    own_[s].nodes.clear();
    own_[s].ends.clear();
    own_[s].rng = Rng::Split(seed, s);
  }
  own_index_.deltas.clear();
  degree_.assign(graph_.num_nodes(), 0);
  size_ = 0;
  total_nodes_ = 0;
  // Re-bound (to the new seed's entry, if warm) on the next growth.
  streams_ = nullptr;
  index_ = nullptr;
}

void RrCollection::BindStreams() {
  index_ = &own_index_;
  if (cache_ != nullptr) {
    cache_->BindGraph(graph_);
    RrStreamCache::Entry* entry = cache_->GetEntry(seed_, options_);
    streams_ = entry->streams.data();
    sampling_ = &entry->sampling;
    // Coin pools keep their private index (rr_stream_cache.h).
    if (entry->sampling.node_pass_prob == nullptr) index_ = &entry->index;
    return;
  }
  // The per-stream samplers share one plan — the caller's, or the
  // graph's, looked up here once before generation fans out.
  options_.sampling_plan = SamplerPlan(graph_, options_);
  streams_ = own_.data();
  sampling_ = &options_;
}

void RrCollection::GenerateUntil(size_t target) {
  if (target <= size_) return;
  UIC_CHECK_LT(target, size_t{UINT32_MAX});  // set ids are uint32
  const size_t first = size_;
  if (streams_ == nullptr) BindStreams();

  // Each logical stream must hold this collection's slice of [0, target):
  // the global indices g with g % kRrStreams == s, i.e. QuotBegin(target,
  // s) samples. Streams already long enough (a warm cache past its
  // high-water mark) cost nothing; the rest draw the missing samples from
  // their own RNG, in parallel. `workers_` only bounds how many streams
  // run concurrently; the pool content depends on the seed alone, and a
  // cache replays byte-for-byte what a cold stream draws.
  std::array<size_t, kRrStreams> drawn{};     // sets sampled per stream
  std::array<size_t, kRrStreams> examined{};  // their edges examined
  pool_->ParallelFor(
      kRrStreams, workers_, [&](unsigned, size_t sb, size_t se) {
        for (size_t s = sb; s < se; ++s) {
          RrStream& stream = streams_[s];
          const size_t need = QuotBegin(target, static_cast<unsigned>(s));
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
            stream.ends.push_back(static_cast<uint32_t>(stream.nodes.size()));
          }
          drawn[s] = need - have;
          examined[s] = edges;
        }
      });

  size_t sampled = 0;
  size_t edges = 0;
  for (unsigned s = 0; s < kRrStreams; ++s) {
    UIC_CHECK_GE(streams_[s].ends.size(), QuotBegin(target, s));
    // The ends just stored are uint32: a stream past 2^32 ids wrapped them.
    UIC_CHECK_LE(streams_[s].nodes.size(), size_t{UINT32_MAX});
    total_nodes_ += StreamSlice(s, first, target).size();
    sampled += drawn[s];
    edges += examined[s];
  }
  size_ = target;

  // This collection's degrees count the sets [0, first). When the index
  // held exactly those, the new delta's counts extend them; when it held
  // more (a borrowed entry index), count the new cut from the index.
  const size_t indexed = index_->size();
  const size_t index_entries = indexed < size_ ? ExtendIndex() : 0;
  if (indexed != first) CountDegrees(first);

  // One batched add per growth round (not per set or per id) keeps the
  // instrument cost off the sampling hot path.
  if (sampled > 0) {
    UIC_METRIC_COUNTER(rr_sets, "uic_rr_sets_sampled_total",
                       "RR sets freshly sampled (cold path + cache fills).");
    rr_sets.Add(sampled);
    UIC_METRIC_COUNTER(rr_edges, "uic_rr_edges_examined_total",
                       "Edges examined by the RR sampling kernels.");
    rr_edges.Add(edges);
  }
  if (index_entries > 0) {
    UIC_METRIC_COUNTER(rr_index_entries, "uic_rr_index_entries_total",
                       "Set ids written into new coverage-index deltas.");
    rr_index_entries.Add(index_entries);
  }
  if (cache_ != nullptr) {
    cache_->sampled_sets_ += sampled;
    cache_->served_sets_ += target - first;
    UIC_METRIC_COUNTER(rr_served, "uic_rr_cache_sets_served_total",
                       "RR sets served by warm-cache stream replay.");
    rr_served.Add(target - first);
  }
}

std::span<const NodeId> RrCollection::StreamSlice(unsigned s, size_t first,
                                                  size_t last) const {
  if (first >= last) return {};
  const RrStream& stream = streams_[s];
  const NodeId* nodes = stream.nodes.data();
  return {nodes + stream.Begin(QuotBegin(first, s)),
          nodes + stream.Begin(QuotBegin(last, s))};
}

template <typename Fn>
void RrCollection::ForEachSet(size_t first, size_t last, Fn&& fn) const {
  if (first >= last) return;
  std::array<const NodeId*, kRrStreams> nodes;
  std::array<const uint32_t*, kRrStreams> ends;
  std::array<size_t, kRrStreams> begin;
  for (unsigned s = 0; s < kRrStreams; ++s) {
    const RrStream& stream = streams_[s];
    nodes[s] = stream.nodes.data();
    ends[s] = stream.ends.data();
    begin[s] = stream.Begin(QuotBegin(first, s));
  }
  size_t q = first / kRrStreams;
  unsigned s = static_cast<unsigned>(first % kRrStreams);
  for (size_t r = first; r < last; ++r) {
    const size_t end = ends[s][q];
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

size_t RrCollection::IndexDeltaCount() const {
  if (index_ == nullptr) return 0;
  size_t count = 0;
  for (const CoverageIndex::Delta& d : index_->deltas) {
    ++count;
    if (d.end >= size_) break;
  }
  return count;
}

size_t RrCollection::ExtendIndex() {
  const size_t first_new = index_->size();
  const size_t num_new = size_ - first_new;
  // The index now covers exactly this collection's sets, and its ids and
  // offsets are uint32.
  UIC_CHECK_LE(total_nodes_, size_t{UINT32_MAX});
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
  // count the start cursor for that (worker, node) region, relative to
  // off[v]. Worker order per node matches set-id order, keeping ids
  // ascending within a node.
  CoverageIndex::Delta delta;
  delta.end = size_;
  delta.off.assign(n + 1, 0);
  uint32_t run = 0;
  for (size_t v = 0; v < n; ++v) {
    delta.off[v] = run;
    uint32_t rel = 0;
    for (unsigned w = 0; w < iw; ++w) {
      uint32_t& slot = counts[static_cast<size_t>(w) * n + v];
      const uint32_t c = slot;
      slot = rel;
      rel += c;
    }
    degree_[v] += rel;
    run += rel;
  }
  delta.off[n] = run;

  // Pass 2 (parallel): scatter set ids into the delta via the per-worker
  // cursors; every (worker, node) writes a disjoint region.
  delta.sets.resize(run);
  uint32_t* slots = delta.sets.data();
  const uint32_t* off = delta.off.data();
  pool_->ParallelFor(num_new, iw, [&](unsigned w, size_t begin, size_t end) {
    uint32_t* cur = counts + static_cast<size_t>(w) * n;
    ForEachSet(first_new + begin, first_new + end,
               [&](size_t r, std::span<const NodeId> set) {
                 const uint32_t id = static_cast<uint32_t>(r);
                 for (NodeId v : set) slots[off[v] + cur[v]++] = id;
               });
  });
  std::vector<CoverageIndex::Delta>& deltas = index_->deltas;
  deltas.push_back(std::move(delta));

  // Tiered merging (binary-counter style): fold the newest delta into its
  // predecessor while it is at least as large, so delta sizes stay
  // geometrically decreasing and the merge work stays amortized
  // near-linear for any growth schedule. The hard cap then bounds the
  // retained (n+1)-entry offset arrays and per-lookup delta walks even
  // for schedules of many strictly shrinking rounds.
  while (deltas.size() >= 2 &&
         deltas.back().sets.size() >= deltas[deltas.size() - 2].sets.size()) {
    MergeIndexTail(deltas.size() - 2);
  }
  constexpr size_t kMaxIndexDeltas = 8;
  if (deltas.size() > kMaxIndexDeltas) MergeIndexTail(0);
  return run;
}

void RrCollection::CountDegrees(size_t from) {
  // Deltas wholly below the cut end at or before `below`; the next one,
  // if any, straddles it and holds the sets [below, size_).
  const std::vector<CoverageIndex::Delta>& deltas = index_->deltas;
  size_t below = 0;
  size_t whole = 0;
  while (whole < deltas.size() && deltas[whole].end <= size_) {
    below = deltas[whole++].end;
  }
  if (from < below) {
    // The previous cut lies in an earlier delta: recount from the whole
    // deltas' offsets, then count the straddling part from its start.
    const size_t n = graph_.num_nodes();
    uint32_t* degree = degree_.data();
    pool_->ParallelFor(n, workers_, [&](unsigned, size_t vb, size_t ve) {
      std::fill(degree + vb, degree + ve, 0u);
      for (size_t d = 0; d < whole; ++d) {
        const uint32_t* off = deltas[d].off.data();
        for (size_t v = vb; v < ve; ++v) degree[v] += off[v + 1] - off[v];
      }
    });
    from = below;
  }
  // The sets [from, size_) are read from the streams, where they are
  // contiguous: their ids, not the n nodes, set the cost.
  for (unsigned s = 0; s < kRrStreams; ++s) {
    for (NodeId v : StreamSlice(s, from, size_)) ++degree_[v];
  }
}

void RrCollection::MergeIndexTail(size_t first) {
  std::vector<CoverageIndex::Delta>& deltas = index_->deltas;
  if (deltas.size() - first <= 1) return;
  UIC_METRIC_COUNTER(rr_merges, "uic_rr_index_merges_total",
                     "Coverage-index delta merges (tiered merging).");
  rr_merges.Add();
  const size_t n = graph_.num_nodes();
  const size_t num_deltas = deltas.size();
  CoverageIndex::Delta merged;
  merged.end = deltas.back().end;
  merged.off.assign(n + 1, 0);
  uint32_t run = 0;
  for (size_t v = 0; v < n; ++v) {
    merged.off[v] = run;
    for (size_t d = first; d < num_deltas; ++d) {
      run += deltas[d].off[v + 1] - deltas[d].off[v];
    }
  }
  merged.off[n] = run;
  merged.sets.resize(run);
  uint32_t* slots = merged.sets.data();
  const CoverageIndex::Delta* tail = deltas.data();
  // Parallel over node ranges: each node's merged slice is filled by
  // walking the tail deltas in order, preserving ascending set-id order;
  // regions are disjoint per node.
  pool_->ParallelFor(n, workers_, [&](unsigned, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      uint32_t* out = slots + merged.off[v];
      for (size_t d = first; d < num_deltas; ++d) {
        const CoverageIndex::Delta& dd = tail[d];
        out = std::copy(dd.sets.data() + dd.off[v],
                        dd.sets.data() + dd.off[v + 1], out);
      }
    }
  });
  deltas.resize(first);
  deltas.push_back(std::move(merged));
}

}  // namespace uic
