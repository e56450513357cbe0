// The sweep engine: one (network, utility configuration) pair evaluated
// over an ordered list of budget points and a list of algorithms, with the
// RR pools grown warm across points (§6's budget-sweep methodology —
// Figs. 4–9 and Tables 2–6 all have this shape).
//
// A `SweepRunner` executes a `SweepSpec` by solving every (algorithm,
// budget point) cell through RunSolve (exp/solve.h). It hands every cell
// one persistent `RrStreamCache`, so consecutive budget points of the
// RR-based solvers extend shared sample streams instead of regenerating
// their pools from scratch.
//
// Determinism contract: a warm-swept cell is bit-identical (allocation,
// ranking, objective, pool sizes) to running the same solver cold on that
// budget point with the same SolverOptions. This holds because RR pool
// content is a pure function of (graph, sampling options, seed) — see
// rr_collection.h — and the cache merely replays those streams. The report
// therefore separates `num_rr_sets` (pool sets the solver consumed, the
// paper's memory proxy) from `rr_sets_sampled` (sets actually drawn from
// scratch for that cell — the sweep's savings are visible as the gap
// between the two).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rrset/rr_stream_cache.h"
#include "solver/problem.h"

namespace uic {

/// \brief Declarative description of a sweep.
struct SweepSpec {
  /// The network. Not owned; must outlive the runner.
  const Graph* graph = nullptr;

  /// Utility configuration; unset skips welfare evaluation (and restricts
  /// `algorithms` to the utility-oblivious solvers).
  std::optional<ItemParams> params;

  DiffusionModel model = DiffusionModel::kIndependentCascade;

  /// Registry names, e.g. {"bundle-grd", "item-disj"}.
  std::vector<std::string> algorithms;

  /// Ordered budget points; each entry is a full per-item budget vector.
  /// Monotonically growing points maximize warm reuse, but any order is
  /// valid (reuse degrades gracefully; results never change).
  std::vector<std::vector<uint32_t>> budget_points;

  /// Base solver options applied to every cell. The sweep fixes one
  /// (seed, eps, ell) across all points — that is what makes the points
  /// share sample streams. `options.rr_options.stream_cache` is
  /// overwritten by the runner.
  SolverOptions options;

  /// Welfare simulations per cell under `model`, at most kMaxEvalSims
  /// (solver/problem.h); 0, or an unset `params`, skips the estimate.
  size_t eval_simulations = 400;
  uint64_t eval_seed = 999;

  /// When false, the runner clears the cache before every cell, so each
  /// cell samples cold — useful to measure the warm/cold gap with
  /// identical instrumentation (results are identical either way).
  bool warm = true;

  /// Optional cooperative-cancel flag (typically set from a SIGINT/SIGTERM
  /// handler). Checked between cells: once true, the runner stops before
  /// starting the next cell and returns the partial report with
  /// `SweepReport::interrupted` set — completed rows are untouched, so a
  /// driver can still flush them. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;
};

/// \brief One (algorithm, budget point) measurement.
struct SweepRow {
  std::string algorithm;
  std::vector<uint32_t> budgets;
  std::string setting;  ///< "b=10,10" style label

  double welfare = 0.0;
  double welfare_std_error = 0.0;
  size_t rr_sets_sampled = 0;  ///< sets drawn from scratch for this cell

  /// Full solver output (the allocation the bit-identity contract is
  /// stated over); the CSV/JSON serializations flatten the fields below.
  AllocationResult result;

  /// Solver wall-clock (excludes evaluation).
  double seconds() const { return result.seconds; }
  /// Pool sets the solver consumed (the paper's memory proxy).
  size_t num_rr_sets() const { return result.num_rr_sets; }
  /// Solver-reported objective (BDHS), else 0.
  double objective() const { return result.objective; }
};

/// \brief All rows of a sweep plus aggregate reuse accounting.
struct SweepReport {
  std::vector<SweepRow> rows;
  size_t total_rr_sets = 0;      ///< Σ num_rr_sets over rows
  size_t total_rr_sampled = 0;   ///< distinct sets sampled over the sweep
  bool warm = true;
  /// True when `SweepSpec::cancel` fired: `rows` covers only the cells
  /// completed before the interrupt.
  bool interrupted = false;

  /// One line per row: algorithm,budgets,welfare,std_error,seconds,
  /// num_rr_sets,rr_sets_sampled,objective. `include_timing=false`
  /// replaces the seconds column with "-" (deterministic output for
  /// golden tests).
  std::string ToCsv(bool include_timing = true) const;
  std::string ToJson(bool include_timing = true) const;
};

/// \brief Executes a SweepSpec over one shared warm RR pool.
class SweepRunner {
 public:
  explicit SweepRunner(const SweepSpec& spec) : spec_(spec) {}

  /// Run every (algorithm, budget point) cell, algorithms outer, budget
  /// points inner, all sharing this runner's stream cache. Fails fast on
  /// an invalid spec or the first failing cell.
  [[nodiscard]] Result<SweepReport> Run();

 private:
  SweepSpec spec_;
  RrStreamCache cache_;
};

/// "b=10,10": SweepRow::setting, and the setting column of uic_run.
std::string BudgetLabel(const std::vector<uint32_t>& budgets);

/// \brief Parse a comma-separated list of non-negative uint32 budgets
/// (e.g. "20,40"); rejects empty entries, non-digits, and overflow with
/// InvalidArgument. Shared by the sweep grammar and the uic_run
/// `--budgets` flag.
[[nodiscard]] Result<std::vector<uint32_t>> ParseBudgetList(const std::string& list);

/// \brief Parse the CLI budget-sweep syntax into budget points.
///
///   "10,30,50"      — uniform points: every item gets k, for each k listed
///   "10:50:20"      — uniform range lo:hi:step (inclusive of hi)
///   "70,30;70,110"  — explicit per-item vectors, ';'-separated
///
/// `num_items` sizes the uniform forms (explicit vectors must all have the
/// same length, which overrides `num_items`).
[[nodiscard]] Result<std::vector<std::vector<uint32_t>>> ParseSweepPoints(
    const std::string& spec, size_t num_items);

}  // namespace uic
