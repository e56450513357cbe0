#include "exp/specs.h"

#include <cmath>
#include <cstdio>

#include "core/serialization.h"
#include "exp/configs.h"
#include "exp/networks.h"
#include "graph/generators.h"
#include "items/itemset.h"
#include "items/utility_table.h"

namespace uic {

namespace {

Result<Graph> Generate(const NetworkSpec& spec) {
  // 2^32 - 1 nodes would overflow the graph's 32-bit CSR offsets.
  if (spec.nodes < 1 || spec.nodes >= UINT32_MAX) {
    return Status::InvalidArgument("nodes must be in [1, 2^32 - 1), got " +
                                   std::to_string(spec.nodes));
  }
  const long long edges = spec.edges.value_or(6 * spec.nodes);
  if (edges < 0) {
    return Status::InvalidArgument("edges must be non-negative, got " +
                                   std::to_string(edges));
  }
  if (!(std::isfinite(spec.scale) && spec.scale > 0.0)) {
    return Status::InvalidArgument("scale must be positive and finite");
  }
  const NodeId nodes = static_cast<NodeId>(spec.nodes);

  // The generators' own preconditions are checked here, so a degenerate
  // spec is an error rather than a failed CHECK.
  Graph graph;
  if (spec.network == "er") {
    if (nodes < 2) {
      return Status::InvalidArgument("network 'er' needs at least 2 nodes");
    }
    graph = GenerateErdosRenyi(nodes, static_cast<size_t>(edges), spec.seed);
    graph.ApplyWeightedCascade();
  } else if (spec.network == "pa") {
    if (nodes < 6) {
      return Status::InvalidArgument(
          "network 'pa' needs at least 6 nodes (5 out-edges per node)");
    }
    graph = GeneratePreferentialAttachment(nodes, /*out_per_node=*/5,
                                           /*undirected=*/false, spec.seed);
    graph.ApplyWeightedCascade();
  } else {
    for (const StandIn& stand_in : StandIns()) {
      if (spec.network != stand_in.name) continue;
      // The stand-in's node count, like `nodes`, must be below 2^32 - 1.
      const double scaled =
          static_cast<double>(stand_in.base_nodes) * spec.scale;
      if (!(scaled < static_cast<double>(UINT32_MAX))) {
        char message[128];
        std::snprintf(message, sizeof(message),
                      "scale %g gives network '%s' %g nodes; the limit is "
                      "2^32 - 2",
                      spec.scale, stand_in.name, scaled);
        return Status::InvalidArgument(message);
      }
      return stand_in.make(spec.seed, spec.scale);
    }
    return Status::InvalidArgument("unknown network '" + spec.network + "'");
  }
  return graph;
}

}  // namespace

Result<Graph> BuildNetwork(const NetworkSpec& spec) {
  if (!(spec.p >= 0.0 && spec.p <= 1.0)) {
    return Status::InvalidArgument("p must be a probability in [0, 1]");
  }
  Result<Graph> graph =
      spec.path.empty() ? Generate(spec) : LoadGraph(spec.path);
  if (graph.ok() && spec.p > 0.0) {
    graph.value().ApplyConstantProbability(spec.p);
  }
  return graph;
}

Status CheckItemCount(long long items) {
  if (items < 1 || items > kMaxItems) {
    return Status::InvalidArgument("items must be in [1, " +
                                   std::to_string(kMaxItems) + "], got " +
                                   std::to_string(items));
  }
  return Status::OK();
}

Result<ItemParams> BuildConfig(const ConfigSpec& spec) {
  if (!spec.path.empty()) return LoadItemParams(spec.path);
  const Status st = CheckItemCount(spec.items);
  if (!st.ok()) return st;
  // The cone configurations tabulate 2^items values when built, and
  // levelwise generation costs items · 3^(items − 1).
  const bool cone = spec.config == "cone-max" || spec.config == "cone-min";
  const long long limit = cone                       ? kMaxTabulatedItems
                          : spec.config == "levelwise" ? kMaxLevelwiseItems
                                                       : kMaxItems;
  if (spec.items > limit) {
    return Status::InvalidArgument("config '" + spec.config +
                                   "' allows at most " + std::to_string(limit) +
                                   " items, got " + std::to_string(spec.items));
  }
  const ItemId items = static_cast<ItemId>(spec.items);
  if (spec.config == "config12") return MakeTwoItemConfig12();
  if (spec.config == "config34") return MakeTwoItemConfig34();
  if (spec.config == "additive") return MakeAdditiveConfig5(items);
  if (spec.config == "cone-max") return MakeConeConfig67(items, 0);
  if (spec.config == "cone-min") return MakeConeConfig67(items, items - 1);
  if (spec.config == "levelwise") {
    return MakeLevelwiseConfig8(items, spec.seed);
  }
  if (spec.config == "real") return MakeRealPlaystationParams();
  return Status::InvalidArgument("unknown config '" + spec.config + "'");
}

}  // namespace uic
