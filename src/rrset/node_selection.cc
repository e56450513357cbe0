#include "rrset/node_selection.h"

#include <algorithm>
#include <array>
#include <bit>
#include <queue>

#include "common/check.h"
#include "obs/metrics.h"

namespace uic {

SeedSelection NodeSelection(const RrCollection& collection, size_t k,
                            const std::vector<NodeId>& excluded) {
  const Graph& graph = collection.graph();
  const NodeId n = graph.num_nodes();
  const size_t num_sets = collection.size();
  SeedSelection result;
  if (num_sets == 0 || k == 0) return result;

  // The node→RR-set inverted index is maintained by the collection itself
  // (extended on every growth round), so selection starts immediately —
  // no per-call index build.
  std::vector<uint8_t> banned(n, 0);
  for (NodeId v : excluded) banned[v] = 1;

  // Candidates in bands by the bit width w of their degree: band w holds
  // the degrees in [2^(w-1), 2^w), ids ascending. A counting pass sorts
  // them; the heap admits a band only once its top key falls below the
  // band's bound 2^w (or it runs empty), so every node still outside has
  // a key strictly below the top and the pops are those of a heap holding
  // every candidate. Most nodes never enter it.
  constexpr int kBands = 32;
  std::array<uint32_t, kBands + 2> band_off{};
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t d = collection.IndexDegree(v);
    if (d > 0 && !banned[v]) ++band_off[std::bit_width(d) + 1];
  }
  for (int w = 1; w <= kBands + 1; ++w) band_off[w] += band_off[w - 1];
  std::vector<NodeId> band_nodes(band_off[kBands + 1]);
  {
    std::array<uint32_t, kBands + 2> cursor = band_off;
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t d = collection.IndexDegree(v);
      if (d > 0 && !banned[v]) band_nodes[cursor[std::bit_width(d)]++] = v;
    }
  }

  // Lazy greedy: heap of (stale gain, node); on pop, recompute the exact
  // gain (uncovered sets containing the node); if still the max, select.
  std::vector<uint8_t> covered(num_sets, 0);
  std::vector<uint8_t> selected(n, 0);
  using Entry = std::pair<uint32_t, NodeId>;  // (gain, node)
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;  // prefer smaller node id on ties
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  size_t heap_entries = 0;  // pushes, for the work counters
  int band = kBands;        // widest band not yet admitted
  auto admit = [&] {
    while (band > 0 &&
           (heap.empty() || heap.top().first < (uint64_t{1} << band))) {
      for (uint32_t i = band_off[band]; i < band_off[band + 1]; ++i) {
        heap.push({collection.IndexDegree(band_nodes[i]), band_nodes[i]});
      }
      heap_entries += band_off[band + 1] - band_off[band];
      --band;
    }
  };
  admit();

  size_t covered_count = 0;
  size_t ids_read = 0;
  std::vector<uint32_t> stamp(n, 0);  // round at which gain was refreshed
  uint32_t round = 0;

  while (result.seeds.size() < k && !heap.empty()) {
    const NodeId v = heap.top().second;
    heap.pop();
    admit();  // before the re-push rule reads the top
    if (selected[v]) continue;
    if (stamp[v] != round) {
      // Recompute the exact marginal gain.
      uint32_t g = 0;
      collection.ForEachSetContaining(
          v, [&](uint32_t r) { g += covered[r] == 0; });
      ids_read += collection.IndexDegree(v);
      stamp[v] = round;
      if (!heap.empty() && g < heap.top().first) {
        if (g > 0) {
          heap.push({g, v});
          ++heap_entries;
        }
        continue;
      }
    }
    // Select v. (Once all remaining gains hit zero, the heap tie-break
    // keeps selecting by ascending node id, so the loop still fills k.)
    selected[v] = 1;
    collection.ForEachSetContaining(v, [&](uint32_t r) {
      if (!covered[r]) {
        covered[r] = 1;
        ++covered_count;
      }
    });
    ids_read += collection.IndexDegree(v);
    ++round;
    result.seeds.push_back(v);
    result.coverage.push_back(static_cast<double>(covered_count) /
                              static_cast<double>(num_sets));
  }
  // If the graph ran out of positive-gain nodes, pad with unselected,
  // non-excluded nodes (lowest id first) so callers always get k seeds
  // when k <= n - |excluded|.
  for (NodeId v = 0; v < n && result.seeds.size() < k; ++v) {
    if (!selected[v] && !banned[v]) {
      selected[v] = 1;
      result.seeds.push_back(v);
      result.coverage.push_back(static_cast<double>(covered_count) /
                                static_cast<double>(num_sets));
    }
  }

  // One batched add per call keeps the instruments off the greedy loop.
  UIC_METRIC_COUNTER(select_ids, "uic_rr_select_ids_read_total",
                     "Set ids read by NodeSelection's gain re-evaluations "
                     "and picks.");
  select_ids.Add(ids_read);
  UIC_METRIC_COUNTER(select_heap, "uic_rr_select_heap_entries_total",
                     "Entries pushed onto NodeSelection's lazy-greedy heap.");
  select_heap.Add(heap_entries);
  return result;
}

size_t CountCoveredSets(const RrCollection& collection,
                        const std::vector<NodeId>& seeds) {
  std::vector<uint8_t> covered(collection.size(), 0);
  size_t count = 0;
  for (NodeId v : seeds) {
    collection.ForEachSetContaining(v, [&](uint32_t r) {
      if (!covered[r]) {
        covered[r] = 1;
        ++count;
      }
    });
  }
  return count;
}

}  // namespace uic
