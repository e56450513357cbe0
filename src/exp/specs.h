// Validated construction of the named networks and utility configurations.
//
// uic_run and the uic_served daemon describe a problem instance the same
// way: a network (a saved graph, a generator, or one of the Table 2
// stand-ins of networks.h) and a utility configuration (a saved
// ItemParams file or one of the Table 3–5 configurations of configs.h).
// Each front end fills a NetworkSpec / ConfigSpec through the field tables
// of exp/fields.h and calls BuildNetwork / BuildConfig here, which own the
// rosters, the defaults and the limits. Every limit is checked before
// anything is generated: a spec outside them is an InvalidArgument, never
// a failed CHECK or an allocation failure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "graph/graph.h"
#include "items/params.h"

namespace uic {

/// \brief What BuildNetwork builds.
struct NetworkSpec {
  /// A SaveGraph file; when set, everything but `p` is ignored.
  std::string path;
  /// er | pa | flixster | douban-book | douban-movie | twitter | orkut.
  std::string network = "douban-movie";
  /// er/pa node count, in [1, 2^32 - 1); er needs 2 and pa 6.
  long long nodes = 2000;
  /// er edge count, at least 0 (default 6 * nodes). A count above
  /// n(n − 1) yields the complete graph.
  std::optional<long long> edges;
  /// Generator seed.
  uint64_t seed = 20190630;
  /// Stand-in size multiplier: positive, finite, and small enough that
  /// the stand-in's node count (exp/networks.h) is below 2^32 - 1.
  double scale = 0.3;
  /// Re-weight every edge to this constant probability, in [0, 1];
  /// 0 keeps the weighted-cascade probabilities.
  double p = 0.0;
};

/// Most items for the levelwise configuration, whose generation costs
/// k · 3^(k−1) (about 1.2 s at 16 items).
inline constexpr long long kMaxLevelwiseItems = 16;

/// \brief What BuildConfig builds.
struct ConfigSpec {
  /// A SaveItemParams file; when set, the other fields are ignored.
  std::string path;
  /// config12 | config34 | additive | cone-max | cone-min | levelwise |
  /// real.
  std::string config = "config12";
  /// Item count for additive, cone-max, cone-min and levelwise, in
  /// [1, kMaxItems]; at most kMaxTabulatedItems (items/utility_table.h)
  /// for cone-max and cone-min, which tabulate 2^items values, and at most
  /// kMaxLevelwiseItems for levelwise.
  long long items = 2;
  /// Levelwise generation seed.
  uint64_t seed = 8;
};

/// Load or generate the network `spec` names. InvalidArgument for an
/// unknown network or a field outside its limits; a load failure's own
/// Status for `path`.
[[nodiscard]] Result<Graph> BuildNetwork(const NetworkSpec& spec);

/// Load or build the configuration `spec` names. InvalidArgument for an
/// unknown configuration or an item count outside its limits.
[[nodiscard]] Result<ItemParams> BuildConfig(const ConfigSpec& spec);

/// The item-count limit: InvalidArgument unless `items` is in
/// [1, kMaxItems].
[[nodiscard]] Status CheckItemCount(long long items);

}  // namespace uic
