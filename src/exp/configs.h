// The paper's utility configurations (Tables 3–5).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "items/params.h"

namespace uic {

/// \brief Two-item configurations of Table 3.
///
/// Configurations 1/2 share the same Param (both items individually
/// break-even, positive synergy); 3/4 share a Param where i2 alone has
/// negative deterministic utility. The uniform/non-uniform distinction is
/// a *budget* choice handled by the benches.
ItemParams MakeTwoItemConfig12();
ItemParams MakeTwoItemConfig34();

/// \brief Multi-item configurations of Table 4.
///
/// Config 5 — additive: every item has deterministic utility 1, no
/// synergy. Config 6/7 — "cone": a single core item is necessary for
/// positive utility (6: core has the max budget; 7: the min; the caller
/// passes which item index is the core). Config 8 — level-wise random
/// supermodular utility lattice (Eq. 13).
ItemParams MakeAdditiveConfig5(ItemId num_items);
ItemParams MakeConeConfig67(ItemId num_items, ItemId core_item);
ItemParams MakeLevelwiseConfig8(ItemId num_items, uint64_t seed);

/// \brief The real (eBay-learned) PlayStation configuration of Table 5.
///
/// Items: 0 = PlayStation 4 console (ps), 1 = controller (c),
/// 2..4 = games (g1..g3). Prices from Craigslist/Facebook (C$260, 20,
/// 5, 5, 5); values are the paper's published learned values with the
/// unpublished masks completed monotonically (see configs.cc); per-item
/// noise variances are least-squares fitted to the published per-itemset
/// variances (per-item additive noise cannot reproduce them exactly).
ItemParams MakeRealPlaystationParams();

/// Human-readable names of the real PlayStation items.
const std::vector<std::string>& RealPlaystationItemNames();

}  // namespace uic
