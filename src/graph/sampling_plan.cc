#include "graph/sampling_plan.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace uic {

const char* SamplingKernelName(SamplingKernel k) {
  return k == SamplingKernel::kScan ? "scan" : "skip";
}

bool ParseSamplingKernel(const std::string& name, SamplingKernel* out) {
  if (name == "scan") {
    *out = SamplingKernel::kScan;
  } else if (name == "skip") {
    *out = SamplingKernel::kSkip;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<const SamplingPlan> SamplingPlan::Build(const Graph& graph,
                                                        Direction direction,
                                                        uint32_t features) {
  UIC_CHECK(features != 0);
  UIC_METRIC_COUNTER(builds, "uic_sampling_plan_builds_total",
                     "Sampling plans built (SamplingPlan::Build calls).");
  builds.Add();
  std::unique_ptr<SamplingPlan> plan(new SamplingPlan());
  plan->direction_ = direction;
  plan->features_ = features;
  plan->general_.assign(graph.num_nodes(), 0);
  if ((features & kIcBuckets) != 0) plan->BuildBuckets(graph);
  if ((features & kLtAlias) != 0) {
    UIC_CHECK_MSG(direction == Direction::kReverse,
                  "LT alias tables stratify in-adjacency (reverse walks)");
    plan->BuildLtAlias(graph);
  }
  return plan;
}

void SamplingPlan::BuildBuckets(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  bucket_off_.assign(static_cast<size_t>(n) + 1, 0);

  // Pass 1: classify every node and size the bucket/permutation storage
  // exactly, so the Bucket::nodes pointers laid down in pass 2 are final.
  std::vector<uint8_t> uniform(n, 0);
  size_t total_buckets = 0;
  size_t total_permuted = 0;
  std::vector<float> distinct;
  std::vector<uint32_t> counts;
  for (NodeId v = 0; v < n; ++v) {
    auto probs = Probs(graph, v);
    distinct.clear();
    counts.clear();
    bool general = false;
    uint32_t positive = 0;
    for (float p : probs) {
      if (!(p > 0.0f)) continue;  // dead edge: never fires, drop from plan
      ++positive;
      size_t j = 0;
      while (j < distinct.size() && distinct[j] != p) ++j;
      if (j < distinct.size()) {
        ++counts[j];
      } else if (distinct.size() == kMaxDistinct) {
        general = true;
        break;
      } else {
        distinct.push_back(p);
        counts.push_back(1);
      }
    }
    if (general) {
      general_[v] = 1;
      ++num_general_;
      continue;
    }
    if (distinct.empty()) continue;  // isolated or all-dead: no buckets
    total_buckets += distinct.size();
    if (distinct.size() == 1 && counts[0] == probs.size()) {
      uniform[v] = 1;  // whole CSR slice is one bucket: alias it, no copy
      ++num_uniform_;
    } else {
      ++num_bucketed_;
      total_permuted += positive;
    }
  }

  buckets_.reserve(total_buckets);
  permuted_.resize(total_permuted);

  // Pass 2: lay the buckets down, descending in probability, CSR order
  // within a bucket.
  size_t perm = 0;
  std::vector<std::pair<float, uint32_t>> order;
  for (NodeId v = 0; v < n; ++v) {
    bucket_off_[v] = static_cast<uint32_t>(buckets_.size());
    if (general_[v]) continue;
    auto srcs = Slice(graph, v);
    auto probs = Probs(graph, v);
    if (uniform[v]) {
      const double p = static_cast<double>(probs[0]);
      buckets_.push_back(Bucket{srcs.data(), static_cast<uint32_t>(srcs.size()),
                                probs[0], std::log1p(-p)});
      continue;
    }
    order.clear();
    for (float p : probs) {
      if (!(p > 0.0f)) continue;
      bool seen = false;
      for (auto& [q, c] : order) {
        if (q == p) {
          ++c;
          seen = true;
          break;
        }
      }
      if (!seen) order.emplace_back(p, 1);
    }
    if (order.empty()) continue;
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [p, count] : order) {
      NodeId* dst = permuted_.data() + perm;
      uint32_t w = 0;
      for (size_t k = 0; k < probs.size(); ++k) {
        if (probs[k] == p) dst[w++] = srcs[k];
      }
      buckets_.push_back(
          Bucket{dst, count, p, std::log1p(-static_cast<double>(p))});
      perm += count;
    }
  }
  bucket_off_[n] = static_cast<uint32_t>(buckets_.size());
}

void SamplingPlan::BuildLtAlias(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  alias_off_.assign(static_cast<size_t>(n) + 1, 0);
  size_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    alias_off_[v] = total;
    const uint32_t deg = graph.InDegree(v);
    // deg + 1 outcomes: each in-neighbor, plus "none fires". Nodes with
    // no in-edges get no slots; SampleLtSource short-circuits them.
    if (deg > 0) total += static_cast<size_t>(deg) + 1;
  }
  alias_off_[n] = total;
  alias_prob_.resize(total);
  alias_first_.resize(total);
  alias_second_.resize(total);

  std::vector<double> scaled;
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  for (NodeId v = 0; v < n; ++v) {
    auto srcs = graph.InNeighbors(v);
    auto probs = graph.InProbs(v);
    const size_t deg = srcs.size();
    if (deg == 0) continue;
    const size_t slots = deg + 1;
    double sum = 0.0;
    for (float p : probs) sum += p > 0.0f ? static_cast<double>(p) : 0.0;
    // The LT contract is Σ w <= 1 (rr_collection.h); normalizing by
    // max(sum, 1) keeps the per-outcome probabilities exactly w_k for
    // conforming inputs and stays well-defined otherwise.
    const double none = sum < 1.0 ? 1.0 - sum : 0.0;
    const double denom = sum + none;
    scaled.assign(slots, 0.0);
    const double mul = static_cast<double>(slots) / denom;
    for (size_t k = 0; k < deg; ++k) {
      scaled[k] = (probs[k] > 0.0f ? static_cast<double>(probs[k]) : 0.0) * mul;
    }
    scaled[deg] = none * mul;

    // Vose's algorithm: pair each under-full slot with an over-full donor.
    small.clear();
    large.clear();
    for (size_t j = 0; j < slots; ++j) {
      (scaled[j] < 1.0 ? small : large).push_back(static_cast<uint32_t>(j));
    }
    const size_t base = alias_off_[v];
    auto outcome = [&](uint32_t j) {
      return j < deg ? srcs[j] : kNoSource;
    };
    while (!small.empty() && !large.empty()) {
      const uint32_t s = small.back();
      small.pop_back();
      const uint32_t l = large.back();
      large.pop_back();
      alias_prob_[base + s] = scaled[s];
      alias_first_[base + s] = outcome(s);
      alias_second_[base + s] = outcome(l);
      scaled[l] -= 1.0 - scaled[s];
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (const auto* rest : {&small, &large}) {
      for (uint32_t j : *rest) {
        alias_prob_[base + j] = 1.0;
        alias_first_[base + j] = outcome(j);
        alias_second_[base + j] = outcome(j);
      }
    }
  }
}

}  // namespace uic
