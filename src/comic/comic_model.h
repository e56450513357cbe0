// The two-item Com-IC model of Lu et al. (VLDB'15), reimplemented as the
// substrate for the RR-SIM+ / RR-CIM baselines (§4.3.1.2).
//
// Com-IC attaches a node-level automaton (NLA) to every user: upon being
// informed of item A, the user adopts it with probability q_{A|∅} if it has
// not adopted B, and q_{A|B} if it has (and symmetrically for B). A user
// that declined A under q_{A|∅} *reconsiders* when it later adopts B,
// upgrading its decision with probability (q_{A|B} − q_{A|∅})/(1 − q_{A|∅})
// so the end-to-end adoption probability equals q_{A|B}. In the mutually
// complementary setting q_{X|Y} >= q_{X|∅}.
//
// This reimplementation makes two standard simplifications: information
// propagates through adopters, and edges are tested once per diffusion
// (shared by both items).
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "items/gap.h"

namespace uic {

/// \brief Outcome of one Com-IC diffusion.
struct ComIcOutcome {
  size_t adopted_a = 0;
  size_t adopted_b = 0;
};

/// \brief Reusable forward Com-IC simulator for two items.
class ComIcSimulator {
 public:
  ComIcSimulator(const Graph& graph, const TwoItemGap& gap);

  /// Run one diffusion; optionally count per-node B adoptions into
  /// `b_adoption_counts` (sized num_nodes, incremented by 1 per adoption —
  /// used by RR-CIM to estimate B-adoption marginals).
  ComIcOutcome Run(const std::vector<NodeId>& seeds_a,
                   const std::vector<NodeId>& seeds_b, Rng& rng,
                   std::vector<uint32_t>* b_adoption_counts = nullptr);

 private:
  // Per-node state bits.
  static constexpr uint8_t kAInformed = 1;
  static constexpr uint8_t kAAdopted = 2;
  static constexpr uint8_t kBInformed = 4;
  static constexpr uint8_t kBAdopted = 8;

  const Graph& graph_;
  TwoItemGap gap_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> node_epoch_;
  std::vector<uint8_t> state_;
  std::vector<uint32_t> edge_epoch_;
  std::vector<uint8_t> edge_live_;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::vector<NodeId> touched_;  ///< nodes reached this diffusion
};

}  // namespace uic
