// Solver: one of the seven allocation algorithms of §6, bound to its
// options.
//
//   auto solver = SolverRegistry::Create("bundle-grd", options);
//   Result<AllocationResult> r = solver->Solve(problem);
//
// A Solver is a row of the closed solver table (solver/registry.cc) plus
// the SolverOptions it was created with. Solve validates the problem
// against the row's declared requirements (utility params needed? two
// items only? LT supported?) and returns a Status instead of crashing on
// malformed input, then calls the row's function.
#pragma once

#include <string>
#include <utility>

#include "common/status.h"
#include "solver/problem.h"

namespace uic {

/// \brief An allocation algorithm from the solver table plus its options.
///
/// Cheap to construct (no per-instance state beyond options) and
/// stateless across Solve calls: the same (problem, options) always
/// yields the same allocation. Only SolverRegistry creates Solvers.
class Solver {
 public:
  /// Static requirements a table row declares; `Solve` checks the
  /// problem against them before calling the row's function.
  struct Traits {
    /// Rejects problems without `params` (FailedPrecondition).
    bool needs_params = false;
    /// Supports exactly two items (the Com-IC baselines; extending Com-IC
    /// beyond two items needs exponentially many NLA parameters).
    bool two_items_only = false;
    /// Accepts DiffusionModel::kLinearThreshold.
    bool supports_linear_threshold = false;
    /// Evaluates utilities over all 2^k itemsets, so rejects more than
    /// kMaxTabulatedItems items (items/utility_table.h).
    bool tabulates_utilities = false;
  };

  /// One row of the solver table: the registry name, the traits Solve
  /// checks, and the algorithm, called only on a validated problem.
  struct Row {
    const char* name;
    Traits traits;
    AllocationResult (*run)(const WelfareProblem&, const SolverOptions&);
  };

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Registry name of this solver (e.g. "bundle-grd").
  const std::string& name() const { return name_; }

  Traits traits() const { return row_.traits; }

  /// Check `problem` and the options against this solver: InvalidArgument
  /// / FailedPrecondition / OutOfRange with a message naming the offending
  /// field. The options' limits hold whatever the solver: eps in [1e-6, 1],
  /// ell in [1e-6, 16], mc-greedy and rr-cim simulations in
  /// [1, kMaxEvalSims], BDHS uniform_p in (0, 1] and kappa in [0, 1].
  [[nodiscard]] Status Validate(const WelfareProblem& problem) const;

  /// Validate `problem`, then run the algorithm. Never crashes on
  /// malformed input.
  [[nodiscard]] Result<AllocationResult> Solve(const WelfareProblem& problem);

  const SolverOptions& options() const { return options_; }

 private:
  friend class SolverRegistry;

  Solver(const Row& row, SolverOptions options)
      : row_(row), name_(row.name), options_(std::move(options)) {}

  const Row& row_;
  std::string name_;
  SolverOptions options_;
};

}  // namespace uic
