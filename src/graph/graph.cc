#include "graph/graph.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/check.h"
#include "common/mutex.h"
#include "common/random.h"
#include "graph/sampling_plan.h"

namespace uic {

/// One lazily built plan per PlanKind, each behind its own lock so a
/// build of one kind never waits on another.
struct Graph::PlanSlots {
  struct Slot {
    Mutex mu;
    std::unique_ptr<const SamplingPlan> plan UIC_GUARDED_BY(mu);
  };
  std::array<Slot, 3> slots;
};

Graph::Graph() : plans_(std::make_unique<PlanSlots>()) {}
Graph::~Graph() = default;
Graph::Graph(Graph&& other) noexcept = default;
Graph& Graph::operator=(Graph&& other) noexcept = default;

Graph::Graph(const Graph& other)
    : num_nodes_(other.num_nodes_),
      out_offsets_(other.out_offsets_),
      out_targets_(other.out_targets_),
      out_probs_(other.out_probs_),
      in_offsets_(other.in_offsets_),
      in_sources_(other.in_sources_),
      in_probs_(other.in_probs_),
      plans_(std::make_unique<PlanSlots>()) {}

Graph& Graph::operator=(const Graph& other) {
  return *this = Graph(other);
}

const SamplingPlan& Graph::Plan(PlanKind kind) const {
  UIC_CHECK_MSG(plans_ != nullptr, "a moved-from graph has no plans");
  PlanSlots::Slot& slot = plans_->slots[static_cast<size_t>(kind)];
  MutexLock lock(slot.mu);
  if (slot.plan == nullptr) {
    slot.plan = SamplingPlan::Build(
        *this,
        kind == PlanKind::kForwardIc ? SamplingPlan::Direction::kForward
                                     : SamplingPlan::Direction::kReverse,
        kind == PlanKind::kReverseLt ? SamplingPlan::kLtAlias
                                     : SamplingPlan::kIcBuckets);
  }
  return *slot.plan;
}

void Graph::ApplyWeightedCascade() {
  // Every mutator drops the plans: they are a function of the
  // probabilities.
  plans_ = std::make_unique<PlanSlots>();
  // p(u,v) = 1 / din(v): write via the reverse adjacency (contiguous per
  // target), then mirror into the forward arrays.
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const uint32_t din = InDegree(v);
    if (din == 0) continue;
    const float p = 1.0f / static_cast<float>(din);
    for (uint32_t k = in_offsets_[v]; k < in_offsets_[v + 1]; ++k) {
      in_probs_[k] = p;
    }
  }
  // Mirror: forward prob of (u,v) equals 1/din(v).
  std::vector<float> inv_din(num_nodes_, 0.0f);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const uint32_t din = InDegree(v);
    inv_din[v] = din == 0 ? 0.0f : 1.0f / static_cast<float>(din);
  }
  for (size_t e = 0; e < out_targets_.size(); ++e) {
    out_probs_[e] = inv_din[out_targets_[e]];
  }
}

void Graph::ApplyConstantProbability(double p) {
  plans_ = std::make_unique<PlanSlots>();
  std::fill(out_probs_.begin(), out_probs_.end(), static_cast<float>(p));
  std::fill(in_probs_.begin(), in_probs_.end(), static_cast<float>(p));
}

void Graph::ApplyTrivalency(const std::vector<double>& choices, uint64_t seed) {
  UIC_CHECK(!choices.empty());
  plans_ = std::make_unique<PlanSlots>();
  // Assign per-(u,v) deterministically from a hash of the edge so that the
  // forward and reverse arrays agree.
  auto edge_prob = [&](NodeId u, NodeId v) {
    SplitMix64 sm((static_cast<uint64_t>(u) << 32 | v) ^ seed);
    return static_cast<float>(choices[sm.Next() % choices.size()]);
  };
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (uint32_t k = out_offsets_[u]; k < out_offsets_[u + 1]; ++k) {
      out_probs_[k] = edge_prob(u, out_targets_[k]);
    }
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    for (uint32_t k = in_offsets_[v]; k < in_offsets_[v + 1]; ++k) {
      in_probs_[k] = edge_prob(in_sources_[k], v);
    }
  }
}

std::string Graph::Summary() const {
  std::ostringstream os;
  os << "Graph(n=" << num_nodes_ << ", m=" << num_edges()
     << ", avg_deg=" << AverageDegree() << ")";
  return os.str();
}

Result<Graph> GraphBuilder::Build() {
  for (const Edge& e : edges_) {
    if (e.from >= num_nodes_ || e.to >= num_nodes_) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
  }
  // Deduplicate (from, to), keeping the max probability.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.prob > b.prob;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.from == b.from && a.to == b.to;
                           }),
               edges_.end());

  // The CSR offsets are uint32_t, indexed up to num_nodes + 1.
  if (num_nodes_ == UINT32_MAX || edges_.size() > UINT32_MAX) {
    return Status::InvalidArgument(
        "graph does not fit 32-bit CSR offsets: it needs fewer than "
        "2^32 - 1 nodes and 2^32 edges");
  }

  Graph g;
  g.num_nodes_ = num_nodes_;
  const size_t m = edges_.size();

  g.out_offsets_.assign(num_nodes_ + 1, 0);
  g.in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++g.out_offsets_[e.from + 1];
    ++g.in_offsets_[e.to + 1];
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  g.out_targets_.resize(m);
  g.out_probs_.resize(m);
  g.in_sources_.resize(m);
  g.in_probs_.resize(m);

  // Edges are sorted by (from, to), so forward CSR fills sequentially.
  {
    std::vector<uint32_t> cursor(g.out_offsets_.begin(),
                                 g.out_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      const uint32_t idx = cursor[e.from]++;
      g.out_targets_[idx] = e.to;
      g.out_probs_[idx] = static_cast<float>(e.prob);
    }
  }
  {
    std::vector<uint32_t> cursor(g.in_offsets_.begin(),
                                 g.in_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      const uint32_t idx = cursor[e.to]++;
      g.in_sources_[idx] = e.from;
      g.in_probs_[idx] = static_cast<float>(e.prob);
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();
  return g;
}

}  // namespace uic
