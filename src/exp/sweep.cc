#include "exp/sweep.h"

#include <cstdio>
#include <cstdlib>

#include "exp/solve.h"
#include "obs/trace.h"

namespace uic {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Result<uint32_t> ParseBudgetToken(const std::string& token) {
  if (token.empty()) {
    return Status::InvalidArgument("sweep: empty budget entry");
  }
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("sweep: '" + token +
                                     "' is not a non-negative integer");
    }
  }
  const unsigned long long parsed = std::strtoull(token.c_str(), nullptr, 10);
  if (parsed > UINT32_MAX) {
    return Status::InvalidArgument("sweep: '" + token +
                                   "' is out of budget range");
  }
  return static_cast<uint32_t>(parsed);
}

}  // namespace

std::string BudgetLabel(const std::vector<uint32_t>& budgets) {
  std::string label = "b=";
  for (size_t i = 0; i < budgets.size(); ++i) {
    if (i) label += ',';
    label += std::to_string(budgets[i]);
  }
  return label;
}

Result<std::vector<uint32_t>> ParseBudgetList(const std::string& list) {
  std::vector<uint32_t> budgets;
  std::string token;
  for (size_t i = 0; i <= list.size(); ++i) {
    if (i == list.size() || list[i] == ',') {
      Result<uint32_t> b = ParseBudgetToken(token);
      if (!b.ok()) return b.status();
      budgets.push_back(b.value());
      token.clear();
    } else {
      token += list[i];
    }
  }
  return budgets;
}

Result<std::vector<std::vector<uint32_t>>> ParseSweepPoints(
    const std::string& spec, size_t num_items) {
  if (spec.empty()) {
    return Status::InvalidArgument("sweep: empty budget spec");
  }
  if (num_items == 0) {
    return Status::InvalidArgument("sweep: num_items must be positive");
  }
  std::vector<std::vector<uint32_t>> points;

  if (spec.find(';') != std::string::npos) {
    // Explicit per-item vectors.
    std::string part;
    for (size_t i = 0; i <= spec.size(); ++i) {
      if (i == spec.size() || spec[i] == ';') {
        if (part.empty()) {  // tolerate a trailing ';'
          part.clear();
          continue;
        }
        Result<std::vector<uint32_t>> v = ParseBudgetList(part);
        if (!v.ok()) return v.status();
        if (!points.empty() && v.value().size() != points.front().size()) {
          return Status::InvalidArgument(
              "sweep: budget vectors have inconsistent lengths in '" + spec +
              "'");
        }
        points.push_back(v.MoveValue());
        part.clear();
      } else {
        part += spec[i];
      }
    }
    if (points.empty()) {
      return Status::InvalidArgument("sweep: no budget points in '" + spec +
                                     "'");
    }
    return points;
  }

  if (spec.find(':') != std::string::npos) {
    // lo:hi:step range of uniform points.
    std::vector<std::string> parts(1);
    for (char c : spec) {
      if (c == ':') {
        parts.emplace_back();
      } else {
        parts.back() += c;
      }
    }
    if (parts.size() != 3) {
      return Status::InvalidArgument("sweep: range must be lo:hi:step, got '" +
                                     spec + "'");
    }
    Result<uint32_t> lo = ParseBudgetToken(parts[0]);
    Result<uint32_t> hi = ParseBudgetToken(parts[1]);
    Result<uint32_t> step = ParseBudgetToken(parts[2]);
    if (!lo.ok()) return lo.status();
    if (!hi.ok()) return hi.status();
    if (!step.ok()) return step.status();
    if (step.value() == 0) {
      return Status::InvalidArgument("sweep: range step must be positive");
    }
    if (lo.value() > hi.value()) {
      return Status::InvalidArgument("sweep: range lo exceeds hi in '" + spec +
                                     "'");
    }
    // A typo like 0:4000000000:1 must be a clean error, not an OOM while
    // materializing billions of points before any solver validation runs.
    constexpr uint64_t kMaxRangePoints = 100000;
    const uint64_t count =
        (static_cast<uint64_t>(hi.value()) - lo.value()) / step.value() + 1;
    if (count > kMaxRangePoints) {
      return Status::InvalidArgument(
          "sweep: range '" + spec + "' expands to " + std::to_string(count) +
          " points (limit " + std::to_string(kMaxRangePoints) + ")");
    }
    for (uint64_t k = lo.value(); k <= hi.value(); k += step.value()) {
      points.emplace_back(num_items, static_cast<uint32_t>(k));
    }
    return points;
  }

  // Comma list of uniform points.
  Result<std::vector<uint32_t>> ks = ParseBudgetList(spec);
  if (!ks.ok()) return ks.status();
  for (uint32_t k : ks.value()) {
    points.emplace_back(num_items, k);
  }
  return points;
}

Result<SweepReport> SweepRunner::Run() {
  if (spec_.algorithms.empty()) {
    return Status::InvalidArgument("sweep: no algorithms");
  }
  if (spec_.budget_points.empty()) {
    return Status::InvalidArgument("sweep: no budget points");
  }

  SweepReport report;
  report.warm = spec_.warm;

  WelfareProblem problem;
  problem.graph = spec_.graph;
  problem.params = spec_.params;
  problem.model = spec_.model;

  SolveSpec solve;
  solve.options = spec_.options;
  solve.eval_sims = static_cast<long long>(spec_.eval_simulations);
  solve.eval_seed = spec_.eval_seed;

  for (const std::string& algorithm : spec_.algorithms) {
    solve.algorithm = algorithm;
    for (const std::vector<uint32_t>& budgets : spec_.budget_points) {
      if (spec_.cancel != nullptr &&
          spec_.cancel->load(std::memory_order_relaxed)) {
        report.interrupted = true;
        return report;  // partial: completed rows only
      }
      if (!spec_.warm) cache_.Clear();  // cold mode: every cell resamples
      // Com-IC coin pools rarely repeat across points (coins derive from
      // the point's i2 seeds); keep only the newest few so a long sweep's
      // memory doesn't grow linearly in dead coin entries. Safe here: no
      // collection is alive between cells.
      cache_.TrimPassProbEntries(4);
      problem.budgets = budgets;

      obs::TraceSpan cell_span("sweep.cell");
      cell_span.SetAttr("budget", budgets.empty() ? 0 : budgets[0]);
      Result<SolveOutcome> solved = RunSolve(problem, solve, &cache_);
      if (!solved.ok()) {
        return Status(solved.status().code(),
                      "sweep cell (" + algorithm + ", " +
                          BudgetLabel(budgets) + "): " +
                          solved.status().message());
      }
      SolveOutcome& outcome = solved.value();

      SweepRow row;
      row.algorithm = algorithm;
      row.budgets = budgets;
      row.setting = BudgetLabel(budgets);
      row.result = std::move(outcome.result);
      row.rr_sets_sampled = outcome.rr_sets_sampled;
      if (outcome.welfare.has_value()) {
        row.welfare = outcome.welfare->welfare;
        row.welfare_std_error = outcome.welfare->std_error;
      }

      report.total_rr_sets += row.num_rr_sets();
      report.total_rr_sampled += row.rr_sets_sampled;
      report.rows.push_back(std::move(row));
    }
  }
  return report;
}

std::string SweepReport::ToCsv(bool include_timing) const {
  std::string csv =
      "algorithm,budgets,welfare,welfare_std_error,seconds,num_rr_sets,"
      "rr_sets_sampled,objective\n";
  for (const SweepRow& row : rows) {
    std::string budgets;
    for (size_t i = 0; i < row.budgets.size(); ++i) {
      if (i) budgets += '|';
      budgets += std::to_string(row.budgets[i]);
    }
    csv += row.algorithm + "," + budgets + "," + FormatDouble(row.welfare) +
           "," + FormatDouble(row.welfare_std_error) + "," +
           (include_timing ? FormatDouble(row.seconds()) : std::string("-")) +
           "," + std::to_string(row.num_rr_sets()) + "," +
           std::to_string(row.rr_sets_sampled) + "," +
           FormatDouble(row.objective()) + "\n";
  }
  return csv;
}

std::string SweepReport::ToJson(bool include_timing) const {
  std::string json = "{\n  \"warm\": ";
  json += warm ? "true" : "false";
  json += ",\n  \"total_rr_sets\": " + std::to_string(total_rr_sets);
  json += ",\n  \"total_rr_sampled\": " + std::to_string(total_rr_sampled);
  json += ",\n  \"rows\": [\n";
  for (size_t r = 0; r < rows.size(); ++r) {
    const SweepRow& row = rows[r];
    json += "    {\"algorithm\": \"" + row.algorithm + "\", \"budgets\": [";
    for (size_t i = 0; i < row.budgets.size(); ++i) {
      if (i) json += ',';
      json += std::to_string(row.budgets[i]);
    }
    json += "], \"welfare\": " + FormatDouble(row.welfare);
    json += ", \"welfare_std_error\": " + FormatDouble(row.welfare_std_error);
    json += ", \"seconds\": ";
    json += include_timing ? FormatDouble(row.seconds()) : std::string("null");
    json += ", \"num_rr_sets\": " + std::to_string(row.num_rr_sets());
    json += ", \"rr_sets_sampled\": " + std::to_string(row.rr_sets_sampled);
    json += ", \"objective\": " + FormatDouble(row.objective()) + "}";
    json += r + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace uic
