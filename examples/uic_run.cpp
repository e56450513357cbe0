// uic_run: the unified CLI driver over the solver registry.
//
// Loads or generates a network, builds a utility configuration, then runs
// any registered allocation algorithm by name through RunSolve
// (exp/solve.h) and prints a report: welfare ± std error under --model,
// wall-clock, RR sets. Every solver the registry knows is reachable:
//
//   uic_run --list
//   uic_run --algorithm bundle-grd --network douban-movie --budget 30
//   uic_run --algorithm rr-cim --config config34 --budgets 20,40 --mc 500
//   uic_run --algorithm bundle-grd --network er --nodes 500 --edges 3000
//   uic_run --algorithm bdhs --bdhs-variant concave --network orkut
//
// Sweep mode (--sweep) runs every named algorithm over a list of budget
// points with warm RR-pool reuse across points (see exp/sweep.h):
//
//   uic_run --sweep 10:50:10 --algorithms bundle-grd,item-disj
//   uic_run --sweep "70,30;70,70;70,110" --algorithms bundle-grd
//           --report-csv sweep.csv
//
// Exit codes: 0 success, 1 solver/problem error (message on stderr),
// 2 usage error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"
#include "core/serialization.h"
#include "exp/fields.h"
#include "exp/flags.h"
#include "exp/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/registry.h"

namespace uic {
namespace {

constexpr const char* kUsage =
    "usage: uic_run --algorithm NAME [options]\n"
    "       uic_run --sweep POINTS --algorithms A,B,.. [options]\n"
    "       uic_run --list            (print registered solver names)\n"
    "\n"
    "sweep (budget sweep with warm RR-pool reuse across points):\n"
    "  --sweep POINTS     \"10,30,50\" uniform | \"10:50:20\" range lo:hi:step |\n"
    "                     \"70,30;70,110\" explicit per-item vectors\n"
    "  --algorithms A,B   algorithms to sweep (default: --algorithm)\n"
    "  --cold             disable warm reuse (results identical, slower)\n"
    "  --report-csv PATH  write the sweep report as CSV\n"
    "  --report-json PATH write the sweep report as JSON\n"
    "  --no-timing        print '-' for seconds (deterministic reports)\n"
    "  (SIGINT/SIGTERM finish the in-flight cell, flush partial reports,\n"
    "   and exit 130)\n"
    "\n"
    "network (generated stand-ins unless --graph is given):\n"
    "  --graph PATH       load a graph saved with SaveGraph\n"
    "  --network NAME     er | pa | flixster | douban-book | douban-movie |\n"
    "                     twitter | orkut          (default douban-movie)\n"
    "  --scale X          stand-in size multiplier  (default 0.3)\n"
    "  --nodes N          er/pa node count          (default 2000)\n"
    "  --edges M          er edge count             (default 6*nodes)\n"
    "  --net-seed S       generator seed            (default 20190630)\n"
    "  --p X              re-weight all edges to constant probability X\n"
    "\n"
    "items (utility configuration, Tables 3-5):\n"
    "  --params PATH      load params saved with SaveItemParams\n"
    "  --config NAME      config12 | config34 | additive | cone-max |\n"
    "                     cone-min | levelwise | real | none\n"
    "                     (default config12; 'none' skips welfare eval)\n"
    "  --items S          item count for additive/cone/levelwise (default 2):\n"
    "                     at most 30; 20 for cone-* and for solves that\n"
    "                     evaluate utilities (--mc > 0, mc-greedy, bdhs);\n"
    "                     16 for levelwise\n"
    "  --param-seed S     levelwise generation seed (default 8)\n"
    "  --budget K         uniform per-item budget   (default 10)\n"
    "  --budgets A,B,..   explicit per-item budgets (overrides --budget)\n"
    "\n"
    "solver:\n"
    "  --eps X --ell X    sampling bounds           (default 0.5, 1.0)\n"
    "  --seed S           solver RNG seed           (default 1)\n"
    "  --workers N        threads, 0 = hardware, at most 1024 (default 0)\n"
    "  --model M          ic | lt                   (default ic)\n"
    "  --sampling-kernel K  skip | scan RR sampling kernel\n"
    "                     (default skip = geometric skip-sampling;\n"
    "                      kernels are statistically equivalent but draw\n"
    "                      different RNG sequences)\n"
    "  --greedy-sims N    mc-greedy simulations/evaluation (default 200)\n"
    "  --cim-sims N       rr-cim forward simulations       (default 200)\n"
    "                     (each in [1, 1e6])\n"
    "  --bdhs-variant V   step | concave            (default step)\n"
    "  --kappa X          bdhs step isolation discount     (default 0)\n"
    "                     in [0, 1]\n"
    "  --uniform-p X      bdhs concave edge probability    (default 0.01)\n"
    "                     in (0, 1]\n"
    "\n"
    "report:\n"
    "  --mc N             welfare simulations under --model (default 400)\n"
    "  --eval-seed S      welfare-evaluation seed          (default 999)\n"
    "  --save-allocation PATH   persist the allocation (SaveAllocation)\n"
    "\n"
    "observability (docs/observability.md):\n"
    "  --metrics-out FILE write the metric exposition at exit (timing\n"
    "                     series omitted under --no-timing)\n"
    "  --trace-out FILE   record JSONL span trees to FILE\n";

/// Set by the SIGINT/SIGTERM handler; SweepRunner checks it between cells.
std::atomic<bool> g_interrupted{false};

extern "C" void OnSweepSignal(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

/// Install cooperative-cancel handlers for sweep mode. No SA_RESTART: an
/// interrupted blocking call should fail fast, not resume.
void InstallSweepSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSweepSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

/// uic_run's own flags; the others are the rows of the field tables.
constexpr std::string_view kOwnFlags[] = {
    "algorithms", "sweep", "cold", "report-csv", "report-json", "no-timing",
    "budget", "budgets", "workers", "save-allocation", "metrics-out",
    "trace-out", "list", "help"};

/// BuildConfig, or no params for `--config none`: uic_run's own setting,
/// which skips the welfare estimate. --items then only sizes the budget
/// vector, under the same limit.
Result<std::optional<ItemParams>> BuildParams(const ConfigSpec& spec) {
  if (spec.path.empty() && spec.config == "none") {
    UIC_RETURN_NOT_OK(CheckItemCount(spec.items));
    return std::optional<ItemParams>();
  }
  Result<ItemParams> built = BuildConfig(spec);
  if (!built.ok()) return built.status();
  return std::optional<ItemParams>(built.MoveValue());
}

/// Comma-separated algorithm list for sweep mode; falls back to
/// --algorithm so a one-algorithm sweep needs no extra flag.
std::vector<std::string> SweepAlgorithms(const Flags& flags,
                                         const std::string& algorithm) {
  std::string list = flags.GetString("algorithms");
  if (list.empty()) list = algorithm;
  std::vector<std::string> names;
  std::string token;
  for (size_t i = 0; i <= list.size(); ++i) {
    if (i == list.size() || list[i] == ',') {
      if (!token.empty()) names.push_back(token);
      token.clear();
    } else {
      token += list[i];
    }
  }
  return names;
}

int RunSweep(const Flags& flags, const WelfareProblem& problem,
             const SolveSpec& solve) {
  const bool timing = !flags.GetBool("no-timing");

  SweepSpec spec;
  spec.graph = problem.graph;
  spec.params = problem.params;
  spec.model = problem.model;
  spec.algorithms = SweepAlgorithms(flags, solve.algorithm);
  spec.options = solve.options;
  spec.warm = !flags.GetBool("cold");
  spec.eval_simulations =
      problem.params.has_value() ? static_cast<size_t>(solve.eval_sims) : 0;
  spec.eval_seed = solve.eval_seed;
  InstallSweepSignalHandlers();
  spec.cancel = &g_interrupted;

  const size_t num_items = problem.params.has_value()
                               ? problem.params->num_items()
                               : problem.budgets.size();
  Result<std::vector<std::vector<uint32_t>>> points =
      ParseSweepPoints(flags.GetString("sweep"), num_items);
  if (!points.ok()) {
    std::fprintf(stderr, "uic_run: %s\n", points.status().ToString().c_str());
    return 2;
  }
  spec.budget_points = points.MoveValue();

  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "uic_run: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const bool interrupted = report.value().interrupted;
  if (interrupted) {
    std::fprintf(stderr,
                 "uic_run: sweep interrupted after %zu completed cell(s); "
                 "flushing partial report\n",
                 report.value().rows.size());
  }

  TablePrinter table({"algorithm", "setting", "welfare", "std error",
                      "seconds", "rr sets", "rr sampled"});
  for (const SweepRow& row : report.value().rows) {
    table.AddRow({row.algorithm, row.setting,
                  spec.eval_simulations > 0 ? TablePrinter::Num(row.welfare, 2)
                                            : std::string("(no eval)"),
                  spec.eval_simulations > 0
                      ? TablePrinter::Num(row.welfare_std_error, 2)
                      : std::string("-"),
                  timing ? TablePrinter::Num(row.seconds(), 3)
                         : std::string("-"),
                  TablePrinter::Int(static_cast<long long>(row.num_rr_sets())),
                  TablePrinter::Int(
                      static_cast<long long>(row.rr_sets_sampled))});
  }
  table.Print();
  std::printf("total rr sets consumed: %zu, sampled from scratch: %zu (%s)\n",
              report.value().total_rr_sets, report.value().total_rr_sampled,
              spec.warm ? "warm" : "cold");

  auto write_report = [](const std::string& path, const std::string& body) {
    std::ofstream out(path);
    out << body;
    out.flush();  // surface late (buffered) write failures before checking
    if (!out) {
      std::fprintf(stderr, "uic_run: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("sweep report saved to %s\n", path.c_str());
    return true;
  };
  const std::string csv_path = flags.GetString("report-csv");
  if (!csv_path.empty() &&
      !write_report(csv_path, report.value().ToCsv(timing))) {
    return 1;
  }
  const std::string json_path = flags.GetString("report-json");
  if (!json_path.empty() &&
      !write_report(json_path, report.value().ToJson(timing))) {
    return 1;
  }
  // 128 + SIGINT: partial reports are on disk, but the sweep is incomplete
  // and scripts must not mistake it for a full run.
  return interrupted ? 130 : 0;
}

/// Flushes --metrics-out / --trace-out on every exit path.
struct ObsFlusher {
  std::string metrics_path;
  bool include_timing = true;
  ~ObsFlusher() {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      out << obs::MetricsRegistry::Global().ExpositionText(include_timing);
      if (!out) {
        std::fprintf(stderr, "uic_run: cannot write %s\n",
                     metrics_path.c_str());
      }
    }
    obs::TraceRecorder::Global().Disable();
  }
};

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  flags.RejectUnknown(kOwnFlags, NetworkFields(), ConfigFields(),
                      SolveFields());

  ObsFlusher obs_flusher;
  obs_flusher.metrics_path = flags.GetString("metrics-out");
  obs_flusher.include_timing = !flags.GetBool("no-timing");
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty() &&
      !obs::TraceRecorder::Global().EnableFile(trace_out)) {
    std::fprintf(stderr, "uic_run: cannot open --trace-out %s\n",
                 trace_out.c_str());
    return 2;
  }

  if (flags.GetBool("list")) {
    for (const std::string& name : SolverRegistry::ListSolvers()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  // The field tables read the rows (exp/fields.h) over uic_run's defaults
  // where they differ from the daemon's (docs/serving.md).
  NetworkSpec network;
  ConfigSpec config;
  SolveRequest request;
  request.spec.eval_sims = 400;
  request.spec.eval_seed = 999;
  for (const Status& st : {flags.Apply(NetworkFields(), &network),
                           flags.Apply(ConfigFields(), &config),
                           flags.Apply(SolveFields(), &request)}) {
    if (st.ok()) continue;
    std::fprintf(stderr, "uic_run: %s\n", st.message().c_str());
    return st.code() == Status::Code::kOutOfRange ? 1 : 2;
  }
  const std::string& algorithm = request.spec.algorithm;
  const bool sweep_mode = !flags.GetString("sweep").empty();
  const bool has_algorithms =
      !algorithm.empty() ||
      (sweep_mode && !SweepAlgorithms(flags, algorithm).empty());
  if (!has_algorithms || flags.GetBool("help")) {
    std::fputs(kUsage, stderr);
    std::fputs("\nregistered solvers:", stderr);
    for (const std::string& name : SolverRegistry::ListSolvers()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fputs("\n", stderr);
    return !has_algorithms && !flags.GetBool("help") ? 2 : 0;
  }

  // --- network ----------------------------------------------------------
  Result<Graph> graph = BuildNetwork(network);
  if (!graph.ok()) {
    std::fprintf(stderr, "uic_run: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("network: %s\n", graph.value().Summary().c_str());

  // --- items and budgets ------------------------------------------------
  const std::string budget_list = flags.GetString("budgets");
  std::vector<uint32_t> budgets;
  if (!budget_list.empty()) {
    Result<std::vector<uint32_t>> parsed = ParseBudgetList(budget_list);
    if (!parsed.ok()) {
      std::fprintf(stderr, "uic_run: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    budgets = parsed.MoveValue();
    config.items = static_cast<long long>(budgets.size());
  }

  Result<std::optional<ItemParams>> params = BuildParams(config);
  if (!params.ok()) {
    std::fprintf(stderr, "uic_run: %s\n", params.status().ToString().c_str());
    return 1;
  }
  if (budgets.empty()) {
    // Uniform budgets sized to the configuration (or --items for 'none').
    const size_t n = params.value().has_value()
                         ? params.value()->num_items()
                         : static_cast<size_t>(config.items);
    budgets.assign(n, static_cast<uint32_t>(flags.GetInt("budget", 10)));
  }

  // --- solver options ---------------------------------------------------
  const long workers = flags.GetInt("workers", 0);
  if (workers < 0 || workers > static_cast<long>(kMaxPoolThreads)) {
    std::fprintf(stderr, "uic_run: --workers must be in [0, %u]\n",
                 kMaxPoolThreads);
    return 2;
  }
  SolverOptions& options = request.spec.options;
  options.workers = static_cast<unsigned>(workers);
  // Also size the process-wide shared pool (a no-op if something already
  // instantiated it): solvers route ParallelFor through ThreadPool::Shared,
  // and results are worker-count invariant by the determinism contract.
  if (options.workers > 0) ThreadPool::ConfigureShared(options.workers);

  WelfareProblem problem;
  problem.graph = &graph.value();
  problem.budgets = budgets;
  problem.params = params.MoveValue();
  problem.model = request.model;

  // --- sweep mode ---------------------------------------------------------
  if (sweep_mode) return RunSweep(flags, problem, request.spec);

  // --- solve ------------------------------------------------------------
  Result<SolveOutcome> solved = RunSolve(problem, request.spec);
  if (!solved.ok()) {
    std::fprintf(stderr, "uic_run: %s\n", solved.status().ToString().c_str());
    return 1;
  }
  const AllocationResult& result = solved.value().result;

  // --- report -----------------------------------------------------------
  // --no-timing pins the report for golden end-to-end tests (wall-clock is
  // the only nondeterministic column).
  const bool timing = !flags.GetBool("no-timing");
  // --mc 0 reports a zero estimate, as the estimator itself does.
  const WelfareEstimate welfare =
      solved.value().welfare.value_or(WelfareEstimate{});
  TablePrinter table({"algorithm", "setting", "welfare", "std error",
                      "seconds", "rr sets", "seed nodes"});
  table.AddRow(
      {algorithm, BudgetLabel(budgets),
       problem.params ? TablePrinter::Num(welfare.welfare, 2) : "(no params)",
       problem.params ? TablePrinter::Num(welfare.std_error, 2) : "-",
       timing ? TablePrinter::Num(result.seconds, 3) : std::string("-"),
       TablePrinter::Int(static_cast<long long>(result.num_rr_sets)),
       TablePrinter::Int(
           static_cast<long long>(result.allocation.num_seed_nodes()))});
  table.Print();
  if (result.objective != 0.0) {
    std::printf("solver-reported objective: %.2f\n", result.objective);
  }

  const std::string save_path = flags.GetString("save-allocation");
  if (!save_path.empty()) {
    const Status st = SaveAllocation(result.allocation, save_path);
    if (!st.ok()) {
      std::fprintf(stderr, "uic_run: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("allocation saved to %s\n", save_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace uic

int main(int argc, char** argv) { return uic::Run(argc, argv); }
