// Materialized utility table for one noise world.
//
// Once the noise terms are sampled, the utility U_w(I) of every itemset is
// deterministic (§4.1.1). This table materializes all 2^k utilities so the
// diffusion simulator's adoption decisions (argmax over supersets of the
// current adoption inside the desire set) are a submask scan.
#pragma once

#include <vector>

#include "items/params.h"

namespace uic {

/// Most items a front end lets a configuration or a solve tabulate. A
/// table holds 2^k doubles (8 MiB at 20 items); the cone configurations
/// build one when loaded, and a welfare estimate builds two per stream
/// and rebuilds them every simulation (exp/specs.h, exp/solve.h).
inline constexpr ItemId kMaxTabulatedItems = 20;

/// \brief 2^k utilities under one fixed noise world.
class UtilityTable {
 public:
  /// Build from params and a sampled per-item noise vector.
  UtilityTable(const ItemParams& params, const std::vector<double>& noise);

  /// Build the deterministic (zero-noise) table.
  explicit UtilityTable(const ItemParams& params)
      : UtilityTable(params, std::vector<double>(params.num_items(), 0.0)) {}

  /// Recompute the table in place for a new noise world — identical
  /// values to constructing `UtilityTable(params, noise)` afresh, but the
  /// 2^k buffers are reused, so Monte-Carlo estimators can rebuild per
  /// simulation without allocating. `params` must have the same number of
  /// items the table was built with.
  void Rebuild(const ItemParams& params, const std::vector<double>& noise);

  ItemId num_items() const { return num_items_; }

  double Utility(ItemSet set) const { return util_[set]; }

  /// \brief The UIC adoption rule (§3.2.3, Fig. 1 step 3).
  ///
  /// Returns argmax{ U(T) : adopted ⊆ T ⊆ desire } with ties broken in
  /// favor of larger cardinality; among equal-cardinality ties returns
  /// their union (well-defined for supermodular U by Lemma 1 — tied local
  /// maxima union into another maximizer).
  ItemSet BestAdoption(ItemSet adopted, ItemSet desire) const;

  /// \brief I^*: the utility-maximizing itemset over the whole universe
  /// (largest-cardinality tie-break). Items outside I^* can never be
  /// adopted in this noise world (§4.2.2).
  ItemSet GlobalOptimum() const { return BestAdoption(0, FullItemSet(num_items_)); }

  /// True iff `set` is a local maximum: U(set) = max_{S ⊆ set} U(S).
  bool IsLocalMaximum(ItemSet set, double tol = 1e-12) const;

 private:
  ItemId num_items_;
  std::vector<double> util_;
  std::vector<double> noise_scratch_;  ///< subset-DP buffer reused by Rebuild
};

}  // namespace uic
