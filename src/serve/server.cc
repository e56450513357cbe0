#include "serve/server.h"

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exp/fields.h"
#include "exp/solve.h"
#include "items/itemset.h"
#include "obs/trace.h"
#include "serve/instruments.h"

namespace uic {
namespace serve {

namespace {

/// Every answered request is counted here once: its status, its verb's
/// series, and for an ok solve the solve tally. ok is recorded before the
/// solve tally, so `solves <= ok` holds whenever the instance is quiesced.
void Account(obs::Counter& verb, bool ok,
             std::optional<double> solve_ms = std::nullopt) {
  ServeInstruments& m = Instruments();
  (ok ? m.ok : m.errors).Add();
  verb.Add();
  if (ok && solve_ms.has_value()) {
    m.solves.Add();
    m.solve_latency_ms.Observe(*solve_ms);
  }
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

}  // namespace

/// One request in flight: what the handlers read, and what they hand back
/// to the one response framing in HandleRequest.
struct Server::Call {
  explicit Call(const Request& r) : request(r) {}
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;
  ~Call() {
    if (slot != nullptr) slot->Release();
  }

  const Request& request;
  /// Started at arrival, so deadline_ms bounds queueing AND solving.
  WallTimer timer;
  double queued_ms = 0.0;
  /// The admission slot this request holds until it is answered.
  AdmissionController* slot = nullptr;
  Json result;   ///< an ok response's payload
  Json serve;    ///< an ok response's `serve` section; null omits it
  Json partial;  ///< an error's `partial` progress stats; null omits it
  /// The wire code of a failure, where it is not CodeFromStatus's.
  std::optional<ErrorCode> code;
  /// Solver wall time of a solve about to answer ok.
  std::optional<double> solve_ms;
};

/// One row per verb. Exactly one handler is set: `run` may fail and
/// fills the Call; `reply` cannot fail and builds its payload after the
/// request is counted, so `stats` counts itself.
struct Server::Verb {
  const char* name;
  bool admission = false;  ///< waits for an admission slot
  bool testing = false;    ///< answers only on a `testing` server
  Status (Server::*run)(Call&) = nullptr;
  Json (Server::*reply)() const = nullptr;
  /// Its uic_serve_verb_requests_total series.
  obs::Counter& (*requests)() = nullptr;
};

// A row's series has a literal label, so the exposition schema never
// depends on client input; UIC_VERB labels it with the row's name.
#define UIC_VERB_SERIES(label)                                          \
  []() -> obs::Counter& {                                               \
    UIC_METRIC_COUNTER_LABELED(series, "uic_serve_verb_requests_total", \
                               "verb=\"" label "\"",                    \
                               "Requests answered, by verb.");          \
    return series;                                                      \
  }
#define UIC_VERB(verb, ...) \
  {.name = verb, __VA_ARGS__, .requests = UIC_VERB_SERIES(verb)}

// docs/serving.md's verb table lists these rows (tools/docs/check_docs.sh).
const Server::Verb Server::kVerbs[] = {
    UIC_VERB("ping", .reply = &Server::Pong),
    UIC_VERB("stats", .reply = &Server::Stats),
    UIC_VERB("metrics", .reply = &Server::Metrics),
    UIC_VERB("shutdown", .run = &Server::Shutdown),
    UIC_VERB("set_failpoints", .testing = true, .run = &Server::SetFailpoints),
    UIC_VERB("unload", .run = &Server::Unload),
    UIC_VERB("load_graph", .admission = true, .run = &Server::LoadGraph),
    UIC_VERB("load_params", .admission = true, .run = &Server::LoadParams),
    UIC_VERB("solve", .admission = true, .run = &Server::Solve),
    // Last: every unknown verb. ParseRequest rejects an empty verb, so
    // FindVerb("") names this row only for lines that never parsed.
    {.name = "", .run = &Server::UnknownVerb,
     .requests = UIC_VERB_SERIES("other")},
};

#undef UIC_VERB
#undef UIC_VERB_SERIES

const Server::Verb& Server::FindVerb(const std::string& name) {
  for (const Verb& verb : kVerbs) {
    if (name == verb.name) return verb;
  }
  return kVerbs[std::size(kVerbs) - 1];
}

Server::Server(ServerOptions options, std::atomic<bool>* stop)
    : options_(options),
      stop_(stop != nullptr ? stop : &own_stop_),
      sessions_(options.max_graphs, options.max_params),
      warm_(options.warm_entries),
      admission_({options.concurrency, options.queue_capacity}) {
  // Every verb's series exists from the first Server on, so the
  // exposition schema never depends on which verbs clients sent.
  for (const Verb& verb : kVerbs) verb.requests();
  // Snapshot the process-global tallies: Stats() reports this instance's
  // deltas, so a fresh Server starts from zero.
  const ServeInstruments& m = Instruments();
  base_solves_ = m.solves.Value();
  base_ok_ = m.ok.Value();
  base_errors_ = m.errors.Value();
  base_solve_ms_ = m.solve_latency_ms.Sum();
  const auto tally = [](const char* key, const obs::Counter& counter) {
    return Tally{key, &counter, counter.Value()};
  };
  warm_tallies_ = {tally("hits", m.warm_hits),
                   tally("misses", m.warm_misses),
                   tally("evictions", m.warm_evictions),
                   tally("rr_sets_sampled", m.warm_rr_sets_sampled),
                   tally("rr_sets_served", m.warm_rr_sets_served)};
  admission_tallies_ = {tally("admitted", m.admitted),
                        tally("shed", m.shed),
                        tally("deadline_exceeded", m.queue_deadline_exceeded)};
}

void Server::BeginDrain() {
  stop_->store(true, std::memory_order_relaxed);
  admission_.BeginDrain();
}

Json Server::Stats() const {
  const auto with_tallies = [](Json section,
                               const std::vector<Tally>& tallies) {
    for (const Tally& t : tallies) {
      section.Set(t.key, Json::Int(static_cast<long long>(
                             t.counter->Value() - t.base)));
    }
    return section;
  };
  Json out = Json::Object();
  out.Set("sessions", sessions_.Describe());
  out.Set("warm_cache", with_tallies(warm_.Describe(), warm_tallies_));
  out.Set("admission", with_tallies(admission_.Describe(), admission_tallies_));

  // The registry totals minus this instance's construction-time baseline,
  // in the exact JSON shape the golden transcripts pin. Solves are read
  // before ok so a concurrent solve's paired increments (ok first, solve
  // second at the same site) can only be seen as ok-without-solve.
  const ServeInstruments& m = Instruments();
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
    Account(FindVerb("").requests(), false);
    return ErrorResponse(Json::Null(), ErrorCode::kBadRequest,
                         parsed.status().message());
  }
  return HandleRequest(parsed.value());
}

std::string Server::HandleRequest(const Request& request) {
  const Verb& verb = FindVerb(request.verb);
  Call call(request);
  Status status = Admit(verb, call);
  if (status.ok() && verb.run != nullptr) status = (this->*verb.run)(call);
  Account(verb.requests(), status.ok(), call.solve_ms);
  if (!status.ok()) {
    return ErrorResponse(request.id,
                         call.code.value_or(CodeFromStatus(status)),
                         status.message(), call.partial);
  }
  // After the count, so `stats` counts itself.
  if (verb.reply != nullptr) call.result = (this->*verb.reply)();
  return OkResponse(request.id, call.result, call.serve);
}

Status Server::Admit(const Verb& verb, Call& call) {
  if (verb.testing && !options_.testing) {
    return Status::FailedPrecondition(std::string(verb.name) +
                                      " requires a --testing daemon");
  }
  if (!verb.admission) return Status::OK();
  AdmissionController::Decision decision;
  {
    obs::TraceSpan wait_span("serve.admission_wait");
    decision = admission_.Admit(call.request.deadline_ms, &call.queued_ms);
  }
  switch (decision) {
    case AdmissionController::Decision::kAdmitted:
      call.slot = &admission_;
      return Status::OK();
    case AdmissionController::Decision::kShed:
      call.code = ErrorCode::kOverloaded;
      return Status::FailedPrecondition("admission queue full; retry later");
    case AdmissionController::Decision::kDeadlineExceeded:
      return Status::DeadlineExceeded(
          "request exceeded its deadline_ms while queued");
    case AdmissionController::Decision::kDraining:
      call.code = ErrorCode::kUnavailable;
      return Status::FailedPrecondition("server is draining for shutdown");
  }
  return Status::Internal("unknown admission decision");
}

Json Server::Pong() const {
  Json result = Json::Object();
  result.Set("pong", Json::Bool(true));
  return result;
}

Json Server::Metrics() const {
  Json result = Json::Object();
  result.Set("format", Json::Str("prometheus-text"));
  result.Set("text", Json::Str(MetricsText()));
  return result;
}

Status Server::Shutdown(Call& call) {
  BeginDrain();
  call.result = Json::Object();
  call.result.Set("draining", Json::Bool(true));
  return Status::OK();
}

Status Server::UnknownVerb(Call& call) {
  return Status::InvalidArgument("unknown verb '" + call.request.verb + "'");
}

Status Server::LoadGraph(Call& call) {
  Result<std::string> name = GetStringField(call.request.body, "name");
  if (!name.ok()) return name.status();
  if (name.value().empty()) {
    return Status::InvalidArgument("load_graph needs a 'name'");
  }
  Result<Graph> graph = BuildGraphFromSpec(call.request.body);
  if (!graph.ok()) return graph.status();
  // A same-name replace bumps the generation, so the old one's warm
  // entries never serve again; the old graph object stays alive only for
  // solves and warm entries already holding a pin.
  Result<GraphSession> session =
      sessions_.AddGraph(name.value(), graph.MoveValue());
  if (!session.ok()) {
    // The registry caps are admission control: a full registry sheds the
    // load rather than reporting a client mistake.
    if (session.status().code() == Status::Code::kFailedPrecondition) {
      call.code = ErrorCode::kOverloaded;
    }
    return session.status();
  }
  call.result = Json::Object();
  call.result.Set("name", Json::Str(session.value().name));
  call.result.Set("generation", Json::Int(static_cast<long long>(
                                    session.value().generation)));
  call.result.Set("nodes", Json::Int(session.value().graph->num_nodes()));
  call.result.Set("edges", Json::Int(static_cast<long long>(
                               session.value().graph->num_edges())));
  return Status::OK();
}

Status Server::LoadParams(Call& call) {
  Result<std::string> name = GetStringField(call.request.body, "name");
  if (!name.ok()) return name.status();
  if (name.value().empty()) {
    return Status::InvalidArgument("load_params needs a 'name'");
  }
  Result<ItemParams> params = BuildParamsFromSpec(call.request.body);
  if (!params.ok()) return params.status();
  Result<ParamsSession> session =
      sessions_.AddParams(name.value(), params.MoveValue());
  if (!session.ok()) {
    // As in LoadGraph: a full registry sheds the load.
    if (session.status().code() == Status::Code::kFailedPrecondition) {
      call.code = ErrorCode::kOverloaded;
    }
    return session.status();
  }
  call.result = Json::Object();
  call.result.Set("name", Json::Str(session.value().name));
  call.result.Set("generation", Json::Int(static_cast<long long>(
                                    session.value().generation)));
  call.result.Set("items", Json::Int(session.value().params->num_items()));
  return Status::OK();
}

Status Server::Unload(Call& call) {
  Result<std::string> graph = GetStringField(call.request.body, "graph");
  if (!graph.ok()) return graph.status();
  Result<std::string> params = GetStringField(call.request.body, "params");
  if (!params.ok()) return params.status();
  if (graph.value().empty() == params.value().empty()) {
    return Status::InvalidArgument(
        "unload needs exactly one of 'graph' or 'params'");
  }
  call.result = Json::Object();
  if (!graph.value().empty()) {
    uint64_t generation = 0;
    UIC_RETURN_NOT_OK(sessions_.RemoveGraph(graph.value(), &generation));
    warm_.DropGeneration(generation);
    call.result.Set("unloaded_graph", Json::Str(graph.value()));
  } else {
    UIC_RETURN_NOT_OK(sessions_.RemoveParams(params.value()));
    call.result.Set("unloaded_params", Json::Str(params.value()));
  }
  return Status::OK();
}

Status Server::SetFailpoints(Call& call) {
  const Json* points = call.request.body.Find("failpoints");
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
  call.result = Json::Object();
  call.result.Set("armed", std::move(armed));
  return Status::OK();
}

Status Server::Solve(Call& call) {
  obs::TraceSpan solve_span("serve.solve");
  const Status status = DoSolve(call);
  solve_span.SetAttr("ok", status.ok() ? 1 : 0);
  return status;
}

Status Server::DoSolve(Call& call) {
  // Post-admission site: error(...) exercises the typed internal error
  // path; delay_ms(n) pins a solve in flight (the SIGTERM-drain and
  // mid-solve-deadline tests) without touching solver code.
  const failpoint::Hit fp = UIC_FAILPOINT("serve.solve.admitted");
  if (fp.action == failpoint::Action::kError) {
    return Status::Internal("injected fault at serve.solve.admitted");
  }
  failpoint::SleepFor(fp);

  // The daemon's defaults where uic_run's differ (docs/serving.md); the
  // field table reads the rest, and CheckSolve owns the limits.
  const Json& body = call.request.body;
  SolveRequest request;
  request.spec.algorithm = "bundle-grd";
  request.spec.eval_seed = 20190701;
  UIC_RETURN_NOT_OK(ApplyFields(body, SolveFields(),
                                {"graph", "params", "budgets", "warm"},
                                &request));
  const SolveSpec& spec = request.spec;
  const bool lt = request.model == DiffusionModel::kLinearThreshold;

  Result<std::string> graph_name = GetStringField(body, "graph");
  if (!graph_name.ok()) return graph_name.status();
  if (graph_name.value().empty()) {
    return Status::InvalidArgument("solve needs a 'graph' session name");
  }
  Result<GraphSession> graph_session = sessions_.GetGraph(graph_name.value());
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
  problem.model = request.model;

  Result<std::string> params_name = GetStringField(body, "params");
  if (!params_name.ok()) return params_name.status();
  if (!params_name.value().empty()) {
    Result<ParamsSession> params = sessions_.GetParams(params_name.value());
    if (!params.ok()) return params.status();
    problem.params = *params.value().params;
  }

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
  WarmLease lease =
      warm ? warm_.Acquire({graph.generation, spec.options.seed, lt},
                           graph.graph)
           : WarmLease();

  // Cheap deadline checks at solve-phase boundaries: a request that blows
  // its end-to-end budget mid-solve must not return a full result late.
  // The client gets progress stats, never a payload it could mistake for
  // the answer it stopped waiting for.
  const auto check_deadline = [&](const SolveOutcome& outcome) -> Status {
    const double deadline_ms = call.request.deadline_ms;
    if (deadline_ms <= 0.0 || call.timer.ElapsedMillis() <= deadline_ms) {
      return Status::OK();
    }
    call.partial = Json::Object();
    call.partial.Set("num_rr_sets", Json::Int(static_cast<long long>(
                                        outcome.result.num_rr_sets)));
    call.partial.Set("rr_sets_sampled", Json::Int(static_cast<long long>(
                                            outcome.rr_sets_sampled)));
    call.partial.Set("rr_sets_served", Json::Int(static_cast<long long>(
                                           outcome.rr_sets_served)));
    return Status::DeadlineExceeded(
        "request exceeded its deadline_ms mid-solve");
  };
  WallTimer timer;
  double solve_ms = 0.0;
  Result<SolveOutcome> solved =
      RunSolve(problem, spec, lease.cache(), [&](const SolveOutcome& outcome) {
        solve_ms = timer.ElapsedMillis();
        if (warm) {
          ServeInstruments& m = Instruments();
          m.warm_rr_sets_sampled.Add(outcome.rr_sets_sampled);
          m.warm_rr_sets_served.Add(outcome.rr_sets_served);
        }
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
  call.solve_ms = solve_ms;

  Json& result = call.result = Json::Object();
  result.Set("algorithm", Json::Str(outcome.algorithm));
  result.Set("model", Json::Str(lt ? "lt" : "ic"));
  result.Set("seed", Json::Int(static_cast<long long>(spec.options.seed)));
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

  Json& serve_info = call.serve = Json::Object();
  serve_info.Set("warm", Json::Bool(warm));
  serve_info.Set("warm_hit", Json::Bool(lease.hit()));
  serve_info.Set("rr_sets_sampled",
                 Json::Int(static_cast<long long>(outcome.rr_sets_sampled)));
  serve_info.Set("rr_sets_served",
                 Json::Int(static_cast<long long>(outcome.rr_sets_served)));
  if (options_.include_timing) {
    serve_info.Set("queued_ms", Json::Number(call.queued_ms));
    serve_info.Set("solve_ms", Json::Number(solve_ms));
  }
  return Status::OK();
}

void Server::ServePipe(FdLineChannel& channel) {
  std::string line;
  while (!stopping() && channel.ReadLine(&line, stop_)) {
    if (line.empty()) continue;
    if (!channel.WriteLine(HandleLine(line))) break;
  }
  if (channel.line_too_long()) {
    Account(FindVerb("").requests(), false);
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
