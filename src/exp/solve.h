// The one solve path of uic_run, the sweep engine (exp/sweep.h) and the
// daemon's solve verb (serve/server.h). Each front end fills a SolveSpec
// through the field table of exp/fields.h and renders the SolveOutcome;
// RunSolve owns the limits, the RR accounting, and scoring the allocation
// with the estimator of the diffusion model it was chosen for (§3.3; §5
// for LT).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/status.h"
#include "diffusion/uic_model.h"
#include "rrset/rr_stream_cache.h"
#include "solver/problem.h"

namespace uic {

struct SolveSpec {
  std::string algorithm;  ///< solver-table name, case-insensitive
  /// `rr_options.stream_cache` is ignored: RunSolve picks the cache.
  SolverOptions options;
  /// In [0, kMaxEvalSims]; 0, or a problem without params, skips the
  /// estimate.
  long long eval_sims = 0;
  uint64_t eval_seed = 0;
};

struct SolveOutcome {
  std::string algorithm;  ///< the solver's table name
  AllocationResult result;
  std::optional<WelfareEstimate> welfare;  ///< under `problem.model`
  size_t rr_sets_sampled = 0;  ///< RR sets this solve drew from scratch
  size_t rr_sets_served = 0;   ///< RR sets the cache handed to this solve
};

/// NotFound (listing the solver table) for an unknown algorithm, whatever
/// Solver::Validate rejects, and InvalidArgument for eval_sims outside
/// [0, kMaxEvalSims] or for an estimate over more than kMaxTabulatedItems
/// items (items/utility_table.h).
[[nodiscard]] Status CheckSolve(const WelfareProblem& problem,
                                const SolveSpec& spec);

/// CheckSolve, then solve on `cache` (a private one when null, so the RR
/// counts are exact either way), then `after_solve` once the solver is
/// done with the cache (a non-OK status from it ends the call), then
/// estimate the welfare under `problem.model`.
[[nodiscard]] Result<SolveOutcome> RunSolve(
    const WelfareProblem& problem, const SolveSpec& spec,
    RrStreamCache* cache = nullptr,
    const std::function<Status(const SolveOutcome&)>& after_solve = {});

/// RunSolve without an estimate, on `options.rr_options.stream_cache`,
/// that aborts with the status message on any failure — the bench
/// binaries prefer a loud crash over a silently skipped series.
AllocationResult MustSolve(const std::string& algorithm,
                           const WelfareProblem& problem,
                           const SolverOptions& options = {});

}  // namespace uic
