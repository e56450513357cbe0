// The welfare-query server: verb dispatch over the JSON-lines protocol,
// glued to the session registry, warm cache, and admission scheduler.
//
// Verb roster (request fields beyond the envelope live on the same
// object; see protocol.h for the envelope):
//
//   ping        → {"pong":true}
//   load_graph  name + (path | network spec, session.h)  [admission-gated]
//   load_params name + (path | config)                   [admission-gated]
//   solve       graph, budgets, [params, algorithm="bundle-grd", seed=1,
//               eps=0.5, ell=1.0, model="ic"|"lt", eval_sims=0,
//               eval_seed, warm=true]                    [admission-gated]
//   unload      {"graph":name} or {"params":name} — dropping a graph also
//               drops its warm-cache entries (by generation)
//   stats       registry + warm pool + scheduler + request counters
//   metrics     process-global metric exposition (obs/metrics.h) as one
//               text blob; timing-valued series only with include_timing
//   shutdown    begin drain; in-flight requests finish, readers stop
//   set_failpoints  {"failpoints":{"name":"policy",...}} — arm/disarm
//               fault injection (common/failpoint.h grammar). Only
//               answers when the server was built with `testing` set
//               (the daemon's --testing flag); otherwise
//               failed_precondition.
//
// Determinism contract: everything under a response's `result` key is a
// pure function of the request (given the loaded sessions) — bit-identical
// whether served cold, warm, or concurrently with other clients, at any
// worker count. Load-dependent accounting (cache hit, RR sampled vs
// reused, latency) lives under `serve`, never under `result`; wall-clock
// fields additionally require `include_timing` (off in golden tests).
//
// Threading: HandleLine is safe to call from any number of threads
// concurrently — per-request state is on the stack, shared state is
// behind the component mutexes, and same-key warm solves serialize on
// their WarmLease. ServeTcp runs one BackgroundThread per connection;
// ServePipe serves a single in-process session (requests handled on the
// caller's thread, in order).
#pragma once

#include <atomic>
#include <string>

#include "common/timer.h"
#include "serve/json.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/session.h"
#include "serve/warm_cache.h"

namespace uic {
namespace serve {

struct ServerOptions {
  unsigned concurrency = 2;     ///< simultaneous admitted requests
  size_t queue_capacity = 16;   ///< admission queue bound (then shed)
  size_t max_graphs = 8;        ///< session registry caps
  size_t max_params = 32;
  size_t warm_entries = 16;     ///< warm-cache LRU bound
  /// Emit wall-clock fields (`serve.queued_ms`, `serve.solve_ms`,
  /// `stats.solve_ms_total`). Off = byte-reproducible sessions.
  bool include_timing = true;
  /// Enable the `set_failpoints` verb (the daemon's --testing flag). Off
  /// in production: clients must not be able to inject faults. The
  /// UIC_FAILPOINTS environment variable works regardless — arming the
  /// process is the operator's call, not the remote client's.
  bool testing = false;
};

class Server {
 public:
  /// `stop`: optional caller-owned flag (the daemon's signal flag); the
  /// `shutdown` verb sets it too. nullptr uses an internal flag.
  explicit Server(ServerOptions options, std::atomic<bool>* stop = nullptr);

  /// Handle one request line; returns the response line (no newline).
  std::string HandleLine(const std::string& line);

  /// Serve one JSON-lines session on `channel` until EOF, a `shutdown`
  /// verb, or the stop flag. Requests run on the caller's thread. A line
  /// over FdLineChannel::kMaxLineBytes gets one `bad_request` reply and
  /// ends the session as EOF would. ServeTcp runs each connection here.
  void ServePipe(FdLineChannel& channel);

  /// Accept loop: one BackgroundThread per connection, until the stop
  /// flag (signal or `shutdown` verb). Drains — every connection thread
  /// finishes its in-flight request and is joined — before returning.
  [[nodiscard]] Status ServeTcp(TcpListener& listener);

  /// Start draining: fail new/queued admissions, stop readers. In-flight
  /// requests still complete (that is the graceful-shutdown contract).
  void BeginDrain();

  bool stopping() const { return stop_->load(std::memory_order_relaxed); }

  /// The `stats` verb's payload (also handy for tests).
  Json Stats() const;

  /// The `metrics` verb's payload: the process-global registry's text
  /// exposition (timing series included per ServerOptions::include_timing).
  std::string MetricsText() const;

  /// Minimal HTTP/1.0 responder for `uic_served --metrics-port`: accepts
  /// connections on `listener` until the stop flag, answering each with
  /// one text exposition and closing. All socket I/O goes through the
  /// net.h primitives.
  [[nodiscard]] Status ServeMetricsHttp(TcpListener& listener);

 private:
  std::string HandleRequest(const Request& request);
  [[nodiscard]] Result<Json> DoLoadGraph(const Json& body);
  [[nodiscard]] Result<Json> DoLoadParams(const Json& body);
  /// `deadline_ms` is the request's end-to-end budget and `request_timer`
  /// has been running since the request arrived; on a mid-solve deadline
  /// miss the status is DeadlineExceeded and *partial holds progress
  /// stats for the error payload.
  [[nodiscard]] Result<Json> DoSolve(const Json& body, double queued_ms,
                                     double deadline_ms,
                                     const WallTimer& request_timer,
                                     Json* serve_info, Json* partial,
                                     double* solve_ms_out);
  [[nodiscard]] Result<Json> DoUnload(const Json& body);
  [[nodiscard]] Result<Json> DoSetFailpoints(const Json& body);

  const ServerOptions options_;
  std::atomic<bool> own_stop_{false};
  std::atomic<bool>* const stop_;

  SessionRegistry sessions_;
  WarmPool warm_;
  AdmissionController admission_;

  // Request accounting lives on the process-global obs::MetricsRegistry
  // (one accounting path for the stats verb, the metrics verb, and the
  // exposition endpoint). Each Server snapshots the registry totals at
  // construction so Stats() reports per-instance deltas — the shape the
  // golden transcripts pin. Invariants over a quiesced instance:
  //   requests == ok + errors, and solves <= ok
  // (a solve that exceeds its deadline mid-solve is an error, not a
  // solve — both tallies are recorded at the same call site, fixing the
  // old RequestCounters drift where RecordSolve counted deadline'd work).
  uint64_t base_ok_ = 0;
  uint64_t base_errors_ = 0;
  uint64_t base_solves_ = 0;
  double base_solve_ms_ = 0.0;
};

}  // namespace serve
}  // namespace uic
