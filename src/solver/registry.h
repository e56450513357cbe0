// String-keyed solver lookup: the runtime algorithm-selection point.
//
// The seven allocation algorithms of §6 are one constant, name-sorted
// table in registry.cc, under the names
//   bdhs, bundle-disj, bundle-grd, item-disj, mc-greedy, rr-cim, rr-sim+
// (see PAPER.md for the roster↔name table). The table never changes at
// run time, so lookups take no lock. Adding an algorithm means adding one
// row there; uic_run, the bench binaries, the sweep engine and the daemon
// all solve through exp/solve.h, which calls Create().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "solver/solver.h"

namespace uic {

class SolverRegistry {
 public:
  /// Construct the solver named `name` (matched case-insensitively).
  /// Returns nullptr for an unknown name — exp/solve.h's CheckSolve turns
  /// that into a NotFound listing the table.
  static std::unique_ptr<Solver> Create(const std::string& name,
                                        const SolverOptions& options = {});

  /// The table's names, sorted. Every name constructs via Create.
  static std::vector<std::string> ListSolvers();

  SolverRegistry() = delete;
};

}  // namespace uic
