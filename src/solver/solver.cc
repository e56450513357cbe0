#include "solver/solver.h"

#include <string>

#include "items/itemset.h"
#include "items/utility_table.h"

namespace uic {

namespace {

std::string Describe(size_t v) { return std::to_string(v); }

}  // namespace

Status Solver::Validate(const WelfareProblem& problem) const {
  if (problem.graph == nullptr) {
    return Status::InvalidArgument("problem.graph is null");
  }
  if (problem.graph->num_nodes() == 0) {
    return Status::InvalidArgument("problem.graph is empty");
  }
  if (problem.budgets.empty()) {
    return Status::InvalidArgument("problem.budgets is empty");
  }
  if (problem.budgets.size() > kMaxItems) {
    return Status::InvalidArgument(
        "problem has " + Describe(problem.budgets.size()) +
        " items; the itemset representation supports at most " +
        Describe(kMaxItems));
  }
  for (size_t i = 0; i < problem.budgets.size(); ++i) {
    if (problem.budgets[i] > problem.graph->num_nodes()) {
      return Status::OutOfRange(
          "budgets[" + Describe(i) + "] = " + Describe(problem.budgets[i]) +
          " exceeds the number of nodes (" +
          Describe(problem.graph->num_nodes()) + ")");
    }
  }
  if (problem.params.has_value() &&
      problem.params->num_items() != problem.budgets.size()) {
    return Status::InvalidArgument(
        "problem.params has " + Describe(problem.params->num_items()) +
        " items but problem.budgets has " + Describe(problem.budgets.size()));
  }
  // Negated so NaN fails too.
  if (!(options_.eps >= 1e-6 && options_.eps <= 1.0)) {
    return Status::InvalidArgument("options.eps must be in [1e-6, 1]");
  }
  if (!(options_.ell >= 1e-6 && options_.ell <= 16.0)) {
    return Status::InvalidArgument("options.ell must be in [1e-6, 16]");
  }
  // Every tuning field is checked whatever the solver, so a bad value is
  // an error even where it would be unused.
  const auto sims_in_range = [](size_t sims) {
    return sims >= 1 && sims <= static_cast<size_t>(kMaxEvalSims);
  };
  const std::string sims_range = "[1, " + Describe(kMaxEvalSims) + "]";
  if (!sims_in_range(options_.mc_greedy.simulations_per_eval)) {
    return Status::InvalidArgument(
        "options.mc_greedy.simulations_per_eval must be in " + sims_range);
  }
  if (!sims_in_range(options_.comic.cim_forward_simulations)) {
    return Status::InvalidArgument(
        "options.comic.cim_forward_simulations must be in " + sims_range);
  }
  if (!(options_.bdhs.uniform_p > 0.0 && options_.bdhs.uniform_p <= 1.0)) {
    return Status::InvalidArgument("options.bdhs.uniform_p must be in (0, 1]");
  }
  if (!(options_.bdhs.kappa >= 0.0 && options_.bdhs.kappa <= 1.0)) {
    return Status::InvalidArgument("options.bdhs.kappa must be in [0, 1]");
  }

  const Traits t = traits();
  if (t.needs_params && !problem.params.has_value()) {
    return Status::FailedPrecondition(
        "solver '" + name() +
        "' requires the utility configuration (problem.params)");
  }
  if (t.two_items_only && problem.budgets.size() != 2) {
    return Status::InvalidArgument(
        "solver '" + name() + "' supports exactly two items, got " +
        Describe(problem.budgets.size()));
  }
  if (!t.supports_linear_threshold &&
      problem.model == DiffusionModel::kLinearThreshold) {
    return Status::InvalidArgument(
        "solver '" + name() + "' does not support the linear-threshold model");
  }
  if (t.tabulates_utilities && problem.budgets.size() > kMaxTabulatedItems) {
    return Status::InvalidArgument(
        "solver '" + name() + "' evaluates all 2^items itemsets: at most " +
        Describe(kMaxTabulatedItems) + " items, got " +
        Describe(problem.budgets.size()));
  }
  return Status::OK();
}

Result<AllocationResult> Solver::Solve(const WelfareProblem& problem) {
  Status st = Validate(problem);
  if (!st.ok()) return st;
  return row_.run(problem, options_);
}

}  // namespace uic
