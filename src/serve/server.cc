#include "serve/server.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exp/solve.h"
#include "items/itemset.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uic {
namespace serve {

namespace {

/// The request-accounting instruments the stats verb reads. Bundled so the
/// Server constructor can snapshot all four baselines from one place.
struct RequestInstruments {
  obs::Counter& ok;
  obs::Counter& errors;
  obs::Counter& solves;
  obs::Histogram& solve_latency_ms;
};

RequestInstruments& RequestAccounting() {
  UIC_METRIC_COUNTER_LABELED(
      ok, "uic_serve_requests_total", "status=\"ok\"",
      "Requests answered, by final response status.");
  UIC_METRIC_COUNTER_LABELED(
      errors, "uic_serve_requests_total", "status=\"error\"",
      "Requests answered, by final response status.");
  UIC_METRIC_COUNTER(
      solves, "uic_serve_solves_total",
      "Solve requests answered ok (deadline-exceeded solves are errors).");
  UIC_METRIC_HISTOGRAM_MS(
      solve_latency_ms, "uic_serve_solve_latency_ms", "",
      "Solver wall time per ok solve response, milliseconds.");
  static RequestInstruments instruments{ok, errors, solves,
                                        solve_latency_ms};
  return instruments;
}

/// Per-verb completion counter. The roster is closed (unknown verbs fall
/// into one bucket), so every series exists from first use with a literal
/// label — the exposition schema never depends on client input.
void AccountVerb(const std::string& verb) {
  UIC_METRIC_COUNTER_LABELED(c_ping, "uic_serve_verb_requests_total",
                             "verb=\"ping\"", "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_stats, "uic_serve_verb_requests_total",
                             "verb=\"stats\"", "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_metrics, "uic_serve_verb_requests_total",
                             "verb=\"metrics\"",
                             "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_shutdown, "uic_serve_verb_requests_total",
                             "verb=\"shutdown\"",
                             "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_set_failpoints,
                             "uic_serve_verb_requests_total",
                             "verb=\"set_failpoints\"",
                             "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_unload, "uic_serve_verb_requests_total",
                             "verb=\"unload\"",
                             "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_load_graph, "uic_serve_verb_requests_total",
                             "verb=\"load_graph\"",
                             "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_load_params, "uic_serve_verb_requests_total",
                             "verb=\"load_params\"",
                             "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_solve, "uic_serve_verb_requests_total",
                             "verb=\"solve\"", "Requests answered, by verb.");
  UIC_METRIC_COUNTER_LABELED(c_other, "uic_serve_verb_requests_total",
                             "verb=\"other\"", "Requests answered, by verb.");
  if (verb == "solve") {
    c_solve.Add();
  } else if (verb == "ping") {
    c_ping.Add();
  } else if (verb == "stats") {
    c_stats.Add();
  } else if (verb == "metrics") {
    c_metrics.Add();
  } else if (verb == "load_graph") {
    c_load_graph.Add();
  } else if (verb == "load_params") {
    c_load_params.Add();
  } else if (verb == "unload") {
    c_unload.Add();
  } else if (verb == "shutdown") {
    c_shutdown.Add();
  } else if (verb == "set_failpoints") {
    c_set_failpoints.Add();
  } else {
    c_other.Add();
  }
}

/// One accounting path for every answered request (including lines that
/// fail to parse, recorded under verb "other"). The ok/error tally is
/// recorded before the solve tally at its call site, so `solves <= ok`
/// holds whenever the instance is quiesced.
void AccountRequest(const std::string& verb, bool ok) {
  RequestInstruments& m = RequestAccounting();
  (ok ? m.ok : m.errors).Add();
  AccountVerb(verb);
}

Json AllocationToJson(const Allocation& allocation) {
  Json out = Json::Array();
  for (const auto& [node, items] : allocation.entries()) {
    Json entry = Json::Object();
    entry.Set("node", Json::Int(node));
    Json item_list = Json::Array();
    ForEachItem(items,
                [&](ItemId i) { item_list.Append(Json::Int(i)); });
    entry.Set("items", std::move(item_list));
    out.Append(std::move(entry));
  }
  return out;
}

/// RAII admission-slot return.
struct SlotGuard {
  AdmissionController* admission;
  ~SlotGuard() { admission->Release(); }
};

}  // namespace

Server::Server(ServerOptions options, std::atomic<bool>* stop)
    : options_(options),
      stop_(stop != nullptr ? stop : &own_stop_),
      sessions_(options.max_graphs, options.max_params),
      warm_(options.warm_entries),
      admission_({options.concurrency, options.queue_capacity}) {
  // Snapshot the process-global tallies: Stats() reports this instance's
  // deltas, so a fresh Server starts from zero like the old per-instance
  // RequestCounters did.
  const RequestInstruments& m = RequestAccounting();
  base_solves_ = m.solves.Value();
  base_ok_ = m.ok.Value();
  base_errors_ = m.errors.Value();
  base_solve_ms_ = m.solve_latency_ms.Sum();
}

void Server::BeginDrain() {
  stop_->store(true, std::memory_order_relaxed);
  admission_.BeginDrain();
}

Json Server::Stats() const {
  Json out = Json::Object();
  out.Set("sessions", sessions_.Describe());
  out.Set("warm_cache", warm_.Describe());
  out.Set("admission", admission_.Describe());

  // The registry totals minus this instance's construction-time baseline,
  // in the exact JSON shape the golden transcripts pin. Solves are read
  // before ok so a concurrent solve's paired increments (ok first, solve
  // second at the same site) can only be seen as ok-without-solve.
  const RequestInstruments& m = RequestAccounting();
  const uint64_t solves = m.solves.Value() - base_solves_;
  const uint64_t ok = m.ok.Value() - base_ok_;
  const uint64_t errors = m.errors.Value() - base_errors_;
  Json requests = Json::Object();
  requests.Set("requests", Json::Int(static_cast<long long>(ok + errors)));
  requests.Set("ok", Json::Int(static_cast<long long>(ok)));
  requests.Set("errors", Json::Int(static_cast<long long>(errors)));
  requests.Set("solves", Json::Int(static_cast<long long>(solves)));
  if (options_.include_timing) {
    requests.Set("solve_ms_total",
                 Json::Number(m.solve_latency_ms.Sum() - base_solve_ms_));
  }
  out.Set("requests", std::move(requests));
  return out;
}

std::string Server::MetricsText() const {
  return obs::MetricsRegistry::Global().ExpositionText(
      options_.include_timing);
}

std::string Server::HandleLine(const std::string& line) {
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    AccountRequest("", false);
    return ErrorResponse(Json::Null(), ErrorCode::kBadRequest,
                         parsed.status().message());
  }
  return HandleRequest(parsed.value());
}

std::string Server::HandleRequest(const Request& request) {
  // Started at arrival so deadline_ms bounds the whole request — queueing
  // AND solving — not just the wait for admission.
  WallTimer request_timer;
  const Json& id = request.id;
  const std::string& verb = request.verb;

  if (verb == "ping") {
    AccountRequest(verb, true);
    Json result = Json::Object();
    result.Set("pong", Json::Bool(true));
    return OkResponse(id, result, Json::Null());
  }
  if (verb == "stats") {
    AccountRequest(verb, true);
    return OkResponse(id, Stats(), Json::Null());
  }
  if (verb == "metrics") {
    AccountRequest(verb, true);
    Json result = Json::Object();
    result.Set("format", Json::Str("prometheus-text"));
    result.Set("text", Json::Str(MetricsText()));
    return OkResponse(id, result, Json::Null());
  }
  if (verb == "shutdown") {
    BeginDrain();
    AccountRequest(verb, true);
    Json result = Json::Object();
    result.Set("draining", Json::Bool(true));
    return OkResponse(id, result, Json::Null());
  }
  if (verb == "set_failpoints") {
    if (!options_.testing) {
      AccountRequest(verb, false);
      return ErrorResponse(id, ErrorCode::kFailedPrecondition,
                           "set_failpoints requires a --testing daemon");
    }
    Result<Json> result = DoSetFailpoints(request.body);
    AccountRequest(verb, result.ok());
    if (!result.ok()) {
      return ErrorResponse(id, CodeFromStatus(result.status()),
                           result.status().message());
    }
    return OkResponse(id, result.value(), Json::Null());
  }
  if (verb == "unload") {
    Result<Json> result = DoUnload(request.body);
    AccountRequest(verb, result.ok());
    if (!result.ok()) {
      return ErrorResponse(id, CodeFromStatus(result.status()),
                           result.status().message());
    }
    return OkResponse(id, result.value(), Json::Null());
  }

  if (verb == "load_graph" || verb == "load_params" || verb == "solve") {
    double queued_ms = 0.0;
    AdmissionController::Decision decision;
    {
      obs::TraceSpan wait_span("serve.admission_wait");
      decision = admission_.Admit(request.deadline_ms, &queued_ms);
    }
    switch (decision) {
      case AdmissionController::Decision::kShed:
        AccountRequest(verb, false);
        return ErrorResponse(id, ErrorCode::kOverloaded,
                             "admission queue full; retry later");
      case AdmissionController::Decision::kDeadlineExceeded:
        AccountRequest(verb, false);
        return ErrorResponse(id, ErrorCode::kDeadlineExceeded,
                             "request exceeded its deadline_ms while queued");
      case AdmissionController::Decision::kDraining:
        AccountRequest(verb, false);
        return ErrorResponse(id, ErrorCode::kUnavailable,
                             "server is draining for shutdown");
      case AdmissionController::Decision::kAdmitted:
        break;
    }
    SlotGuard slot{&admission_};

    if (verb == "solve") {
      obs::TraceSpan solve_span("serve.solve");
      // Post-admission site: error(...) exercises the typed internal
      // error path; delay_ms(n) pins a solve in flight (the SIGTERM-drain
      // and mid-solve-deadline tests) without touching solver code.
      const failpoint::Hit fp = UIC_FAILPOINT("serve.solve.admitted");
      if (fp.action == failpoint::Action::kError) {
        AccountRequest(verb, false);
        return ErrorResponse(id, ErrorCode::kInternal,
                             "injected fault at serve.solve.admitted");
      }
      failpoint::SleepFor(fp);
      Json serve_info;
      Json partial;
      double solve_ms = 0.0;
      Result<Json> result =
          DoSolve(request.body, queued_ms, request.deadline_ms,
                  request_timer, &serve_info, &partial, &solve_ms);
      // Single accounting site for the solve invariant: ok is recorded
      // first, then the solve tally — and only for an ok response, so a
      // deadline-exceeded solve counts as an error, never a solve.
      AccountRequest(verb, result.ok());
      solve_span.SetAttr("ok", result.ok() ? 1 : 0);
      if (!result.ok()) {
        return ErrorResponse(id, CodeFromStatus(result.status()),
                             result.status().message(), partial);
      }
      RequestInstruments& m = RequestAccounting();
      m.solves.Add();
      m.solve_latency_ms.Observe(solve_ms);
      return OkResponse(id, result.value(), serve_info);
    }
    Result<Json> result = verb == "load_graph" ? DoLoadGraph(request.body)
                                               : DoLoadParams(request.body);
    AccountRequest(verb, result.ok());
    if (!result.ok()) {
      // The registry caps are admission control: a full registry sheds
      // the load (kOverloaded) rather than reporting a client mistake.
      const ErrorCode code =
          result.status().code() == Status::Code::kFailedPrecondition
              ? ErrorCode::kOverloaded
              : CodeFromStatus(result.status());
      return ErrorResponse(id, code, result.status().message());
    }
    return OkResponse(id, result.value(), Json::Null());
  }

  AccountRequest(verb, false);
  return ErrorResponse(id, ErrorCode::kBadRequest,
                       "unknown verb '" + verb + "'");
}

Result<Json> Server::DoLoadGraph(const Json& body) {
  const std::string name = GetStringField(body, "name");
  if (name.empty()) {
    return Status::InvalidArgument("load_graph needs a 'name'");
  }
  Result<Graph> graph = BuildGraphFromSpec(body);
  if (!graph.ok()) return graph.status();
  Result<GraphSession> session =
      sessions_.AddGraph(name, graph.MoveValue());
  if (!session.ok()) return session.status();
  // A same-name replace retires the old generation's warm entries: the
  // old graph object stays alive only for solves already holding a pin.
  Json result = Json::Object();
  result.Set("name", Json::Str(session.value().name));
  result.Set("generation",
             Json::Int(static_cast<long long>(session.value().generation)));
  result.Set("nodes", Json::Int(session.value().graph->num_nodes()));
  result.Set("edges", Json::Int(static_cast<long long>(
                          session.value().graph->num_edges())));
  return result;
}

Result<Json> Server::DoLoadParams(const Json& body) {
  const std::string name = GetStringField(body, "name");
  if (name.empty()) {
    return Status::InvalidArgument("load_params needs a 'name'");
  }
  Result<ItemParams> params = BuildParamsFromSpec(body);
  if (!params.ok()) return params.status();
  Result<ParamsSession> session =
      sessions_.AddParams(name, params.MoveValue());
  if (!session.ok()) return session.status();
  Json result = Json::Object();
  result.Set("name", Json::Str(session.value().name));
  result.Set("generation",
             Json::Int(static_cast<long long>(session.value().generation)));
  result.Set("items", Json::Int(session.value().params->num_items()));
  return result;
}

Result<Json> Server::DoUnload(const Json& body) {
  const std::string graph_name = GetStringField(body, "graph");
  const std::string params_name = GetStringField(body, "params");
  if (graph_name.empty() == params_name.empty()) {
    return Status::InvalidArgument(
        "unload needs exactly one of 'graph' or 'params'");
  }
  Json result = Json::Object();
  if (!graph_name.empty()) {
    uint64_t generation = 0;
    UIC_RETURN_NOT_OK(sessions_.RemoveGraph(graph_name, &generation));
    warm_.DropGeneration(generation);
    result.Set("unloaded_graph", Json::Str(graph_name));
  } else {
    UIC_RETURN_NOT_OK(sessions_.RemoveParams(params_name));
    result.Set("unloaded_params", Json::Str(params_name));
  }
  return result;
}

Result<Json> Server::DoSetFailpoints(const Json& body) {
  const Json* points = body.Find("failpoints");
  if (points == nullptr || !points->is_object()) {
    return Status::InvalidArgument(
        "set_failpoints needs a 'failpoints' object mapping site names to "
        "policy strings");
  }
  for (const auto& [name, policy] : points->members()) {
    if (!policy.is_string()) {
      return Status::InvalidArgument("failpoint '" + name +
                                     "' policy must be a string");
    }
    UIC_RETURN_NOT_OK(failpoint::Set(name, policy.AsString()));
  }
  Json armed = Json::Object();
  for (const auto& [name, spec] : failpoint::List()) {
    armed.Set(name, Json::Str(spec));
  }
  Json result = Json::Object();
  result.Set("armed", std::move(armed));
  return result;
}

Result<Json> Server::DoSolve(const Json& body, double queued_ms,
                             double deadline_ms,
                             const WallTimer& request_timer,
                             Json* serve_info, Json* partial,
                             double* solve_ms_out) {
  const std::string graph_name = GetStringField(body, "graph");
  if (graph_name.empty()) {
    return Status::InvalidArgument("solve needs a 'graph' session name");
  }
  Result<GraphSession> graph_session = sessions_.GetGraph(graph_name);
  if (!graph_session.ok()) return graph_session.status();
  const GraphSession& graph = graph_session.value();

  const Json* budgets_field = body.Find("budgets");
  if (budgets_field == nullptr || !budgets_field->is_array() ||
      budgets_field->items().empty()) {
    return Status::InvalidArgument(
        "'budgets' must be a non-empty array of per-item seed budgets");
  }
  std::vector<uint32_t> budgets;
  for (const Json& b : budgets_field->items()) {
    if (!b.is_number() ||
        b.AsDouble() != static_cast<double>(b.AsInt()) || b.AsInt() < 0 ||
        b.AsInt() > 1000000) {
      return Status::InvalidArgument(
          "'budgets' entries must be integers in [0, 1000000]");
    }
    budgets.push_back(static_cast<uint32_t>(b.AsInt()));
  }

  WelfareProblem problem;
  problem.graph = graph.graph.get();
  problem.budgets = std::move(budgets);

  const std::string params_name = GetStringField(body, "params");
  if (!params_name.empty()) {
    Result<ParamsSession> params = sessions_.GetParams(params_name);
    if (!params.ok()) return params.status();
    problem.params = *params.value().params;
  }

  const std::string model = GetStringField(body, "model", "ic");
  if (model != "ic" && model != "lt") {
    return Status::InvalidArgument("'model' must be \"ic\" or \"lt\"");
  }
  const bool lt = model == "lt";
  problem.model = lt ? DiffusionModel::kLinearThreshold
                     : DiffusionModel::kIndependentCascade;

  // Only the JSON types are read here; CheckSolve owns the limits.
  SolveSpec spec;
  spec.algorithm = GetStringField(body, "algorithm", "bundle-grd");
  Result<long long> seed = GetIntField(body, "seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return seed.status();
  spec.options.seed = static_cast<uint64_t>(seed.value());
  Result<double> eps = GetNumberField(body, "eps", spec.options.eps);
  if (!eps.ok()) return eps.status();
  spec.options.eps = eps.value();
  Result<double> ell = GetNumberField(body, "ell", spec.options.ell);
  if (!ell.ok()) return ell.status();
  spec.options.ell = ell.value();
  Result<long long> eval_sims = GetIntField(body, "eval_sims", 0);
  if (!eval_sims.ok()) return eval_sims.status();
  spec.eval_sims = eval_sims.value();
  Result<long long> eval_seed =
      GetIntField(body, "eval_seed", 20190701, 0, INT64_MAX);
  if (!eval_seed.ok()) return eval_seed.status();
  spec.eval_seed = static_cast<uint64_t>(eval_seed.value());
  const Json* warm_field = body.Find("warm");
  if (warm_field != nullptr && !warm_field->is_bool()) {
    return Status::InvalidArgument("'warm' must be a boolean");
  }
  const bool warm = warm_field == nullptr || warm_field->AsBool(true);
  // Before the lease: a rejected request must leave no warm entry.
  UIC_RETURN_NOT_OK(CheckSolve(problem, spec));

  // Warm path: exclusive lease on the shared pool for (generation, seed,
  // LT). Cold path ('warm':false): RunSolve's private cache, so the
  // request still reports exact sampled counts — the payload is identical
  // either way by the RrStreamCache replay contract.
  WarmLease lease;
  if (warm) {
    obs::TraceSpan acquire_span("serve.warm_acquire");
    WarmKey key;
    key.generation = graph.generation;
    key.seed = spec.options.seed;
    key.linear_threshold = lt;
    lease = warm_.Acquire(key, graph.graph);
    acquire_span.SetAttr("hit", lease.hit() ? 1 : 0);
  }

  // Cheap deadline checks at solve-phase boundaries: a request that blows
  // its end-to-end budget mid-solve must not return a full result late.
  // The client gets progress stats, never a payload it could mistake for
  // the answer it stopped waiting for.
  const auto check_deadline = [&](const SolveOutcome& outcome) -> Status {
    if (deadline_ms <= 0.0 || request_timer.ElapsedMillis() <= deadline_ms) {
      return Status::OK();
    }
    *partial = Json::Object();
    partial->Set("num_rr_sets", Json::Int(static_cast<long long>(
                                    outcome.result.num_rr_sets)));
    partial->Set("rr_sets_sampled", Json::Int(static_cast<long long>(
                                        outcome.rr_sets_sampled)));
    partial->Set("rr_sets_served", Json::Int(static_cast<long long>(
                                       outcome.rr_sets_served)));
    return Status::DeadlineExceeded(
        "request exceeded its deadline_ms mid-solve");
  };
  WallTimer timer;
  Result<SolveOutcome> solved =
      RunSolve(problem, spec, lease.cache(), [&](const SolveOutcome& outcome) {
        *solve_ms_out = timer.ElapsedMillis();
        // Hand the pool back before the (cache-independent) welfare
        // estimate so a same-key request can start solving during it.
        lease.Release();
        return check_deadline(outcome);
      });
  if (!solved.ok()) return solved.status();
  const SolveOutcome& outcome = solved.value();
  // Boundary #2: Monte-Carlo evaluation can dominate the request when
  // eval_sims is large, so re-check before shipping the result.
  if (outcome.welfare.has_value()) UIC_RETURN_NOT_OK(check_deadline(outcome));

  Json result = Json::Object();
  result.Set("algorithm", Json::Str(outcome.algorithm));
  result.Set("model", Json::Str(model));
  result.Set("seed", Json::Int(seed.value()));
  result.Set("allocation", AllocationToJson(outcome.result.allocation));
  result.Set("num_rr_sets", Json::Int(static_cast<long long>(
                                outcome.result.num_rr_sets)));
  result.Set("objective", Json::Number(outcome.result.objective));
  if (outcome.welfare.has_value()) {
    Json welfare = Json::Object();
    welfare.Set("welfare", Json::Number(outcome.welfare->welfare));
    welfare.Set("std_error", Json::Number(outcome.welfare->std_error));
    welfare.Set("avg_adopters", Json::Number(outcome.welfare->avg_adopters));
    welfare.Set("avg_adoptions", Json::Number(outcome.welfare->avg_adoptions));
    result.Set("welfare", std::move(welfare));
  }

  *serve_info = Json::Object();
  serve_info->Set("warm", Json::Bool(warm));
  serve_info->Set("warm_hit", Json::Bool(lease.hit()));
  serve_info->Set("rr_sets_sampled",
                  Json::Int(static_cast<long long>(outcome.rr_sets_sampled)));
  serve_info->Set("rr_sets_served",
                  Json::Int(static_cast<long long>(outcome.rr_sets_served)));
  if (options_.include_timing) {
    serve_info->Set("queued_ms", Json::Number(queued_ms));
    serve_info->Set("solve_ms", Json::Number(*solve_ms_out));
  }
  return result;
}

void Server::ServePipe(FdLineChannel& channel) {
  std::string line;
  while (!stopping() && channel.ReadLine(&line, stop_)) {
    if (line.empty()) continue;
    if (!channel.WriteLine(HandleLine(line))) break;
  }
  if (channel.line_too_long()) {
    AccountRequest("", false);
    (void)channel.WriteLine(ErrorResponse(
        Json::Null(), ErrorCode::kBadRequest,
        "request line exceeds " +
            std::to_string(FdLineChannel::kMaxLineBytes) + " bytes"));
  }
}

Status Server::ServeTcp(TcpListener& listener) {
  struct ConnectionWorker {
    std::shared_ptr<TcpConnection> connection;
    std::shared_ptr<std::atomic<bool>> done;
    std::unique_ptr<BackgroundThread> thread;
  };
  std::vector<ConnectionWorker> workers;

  while (!stopping()) {
    Result<TcpConnection> accepted = listener.Accept(*stop_);
    if (!accepted.ok()) {
      BeginDrain();
      for (auto& w : workers) w.thread->Join();
      return accepted.status();
    }
    if (!accepted.value().valid()) break;  // stop flag fired

    ConnectionWorker worker;
    worker.connection =
        std::make_shared<TcpConnection>(accepted.MoveValue());
    worker.done = std::make_shared<std::atomic<bool>>(false);
    auto connection = worker.connection;
    auto done = worker.done;
    worker.thread = std::make_unique<BackgroundThread>([this, connection,
                                                        done]() {
      FdLineChannel channel(connection->fd(), connection->fd(),
                            /*socket_fds=*/true);
      ServePipe(channel);
      connection->Close();
      done->store(true, std::memory_order_release);
    });
    workers.push_back(std::move(worker));

    // Reap finished connections so a long-lived daemon doesn't accumulate
    // one joinable thread per past client.
    for (size_t i = workers.size(); i > 0; --i) {
      if (workers[i - 1].done->load(std::memory_order_acquire)) {
        workers[i - 1].thread->Join();
        workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i - 1));
      }
    }
  }

  // Drain: every connection thread observes the stop flag within the poll
  // interval, finishes (and answers) its in-flight request, and exits.
  BeginDrain();
  for (auto& w : workers) w.thread->Join();
  admission_.AwaitIdle();
  return Status::OK();
}

Status Server::ServeMetricsHttp(TcpListener& listener) {
  while (!stopping()) {
    Result<TcpConnection> accepted = listener.Accept(*stop_);
    if (!accepted.ok()) return accepted.status();
    if (!accepted.value().valid()) break;  // stop flag fired
    TcpConnection connection = accepted.MoveValue();
    FdLineChannel channel(connection.fd(), connection.fd(),
                          /*socket_fds=*/true);
    // Consume the request line before answering so a well-behaved HTTP
    // client does not race our close against its own send; clients that
    // half-close without sending anything get the body anyway.
    std::string request_line;
    (void)channel.ReadLine(&request_line, stop_);
    const std::string body = MetricsText();
    std::string response = "HTTP/1.0 200 OK\r\n";
    response += "Content-Type: text/plain; version=0.0.4\r\n";
    response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    response += "Connection: close\r\n\r\n";
    response += body;
    (void)channel.WriteRaw(response);  // peer gone: just move on
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace uic
