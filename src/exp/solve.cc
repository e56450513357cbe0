#include "exp/solve.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "diffusion/lt_model.h"
#include "items/utility_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/registry.h"

namespace uic {

Status CheckSolve(const WelfareProblem& problem, const SolveSpec& spec) {
  const std::unique_ptr<Solver> solver =
      SolverRegistry::Create(spec.algorithm, spec.options);
  if (solver == nullptr) {
    std::string known;
    for (const std::string& name : SolverRegistry::ListSolvers()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    return Status::NotFound("no solver named '" + spec.algorithm +
                            "' (registered: " + known + ")");
  }
  UIC_RETURN_NOT_OK(solver->Validate(problem));
  if (spec.eval_sims < 0 || spec.eval_sims > kMaxEvalSims) {
    return Status::InvalidArgument(
        "eval_sims must be in [0, " + std::to_string(kMaxEvalSims) +
        "], got " + std::to_string(spec.eval_sims));
  }
  if (spec.eval_sims > 0 && problem.params.has_value() &&
      problem.params->num_items() > kMaxTabulatedItems) {
    return Status::InvalidArgument(
        "a welfare estimate tabulates all 2^items utilities: at most " +
        std::to_string(kMaxTabulatedItems) + " items, got " +
        std::to_string(problem.params->num_items()));
  }
  return Status::OK();
}

Result<SolveOutcome> RunSolve(
    const WelfareProblem& problem, const SolveSpec& spec,
    RrStreamCache* cache,
    const std::function<Status(const SolveOutcome&)>& after_solve) {
  UIC_RETURN_NOT_OK(CheckSolve(problem, spec));
  RrStreamCache private_cache;
  if (cache == nullptr) cache = &private_cache;
  SolverOptions options = spec.options;
  options.rr_options.stream_cache = cache;
  const std::unique_ptr<Solver> solver =
      SolverRegistry::Create(spec.algorithm, options);

  const RrStreamCache::Stats before = cache->stats();
  Result<AllocationResult> solved = [&] {
    obs::TraceSpan solver_span("solver.solve");
    return solver->Solve(problem);
  }();
  if (!solved.ok()) return solved.status();
  const RrStreamCache::Stats after = cache->stats();
  SolveOutcome outcome;
  outcome.algorithm = solver->name();
  outcome.result = solved.MoveValue();
  outcome.rr_sets_sampled = after.sampled_sets - before.sampled_sets;
  outcome.rr_sets_served = after.served_sets - before.served_sets;
  if (after_solve) UIC_RETURN_NOT_OK(after_solve(outcome));

  if (problem.params.has_value() && spec.eval_sims > 0) {
    obs::TraceSpan estimate_span("solve.estimate");
    UIC_METRIC_TIMING_COUNTER(
        estimate_us, "uic_solver_phase_us_total", "phase=\"estimate\"",
        "Wall time per solve phase, microseconds.");
    WallTimer timer;
    const auto estimate = problem.model == DiffusionModel::kLinearThreshold
                              ? EstimateWelfareLt
                              : EstimateWelfare;
    outcome.welfare = estimate(*problem.graph, outcome.result.allocation,
                               *problem.params,
                               static_cast<size_t>(spec.eval_sims),
                               spec.eval_seed, spec.options.workers);
    estimate_us.Add(static_cast<uint64_t>(timer.ElapsedMillis() * 1000.0));
  }
  return outcome;
}

AllocationResult MustSolve(const std::string& algorithm,
                           const WelfareProblem& problem,
                           const SolverOptions& options) {
  Result<SolveOutcome> outcome =
      RunSolve(problem, {algorithm, options}, options.rr_options.stream_cache);
  UIC_CHECK_MSG(outcome.ok(), "solver '%s' failed: %s", algorithm.c_str(),
                outcome.status().ToString().c_str());
  return std::move(outcome.value().result);
}

}  // namespace uic
