// The welfare-query server: verb dispatch over the JSON-lines protocol,
// glued to the session registry, warm cache, and admission scheduler.
//
// The verbs are one constant table in server.cc: per verb its name,
// whether it waits for admission, whether it needs a `testing` server,
// its handler and its request series. docs/serving.md lists them with
// their request fields (tools/docs/check_docs.sh keeps the two in step);
// protocol.h holds the envelope.
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
#include <vector>

#include "obs/metrics.h"
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
  struct Call;
  struct Verb;
  /// The verb table; its last row (name "") answers every unknown verb.
  static const Verb kVerbs[];
  static const Verb& FindVerb(const std::string& name);

  std::string HandleRequest(const Request& request);
  /// The testing gate, then an admission slot for an admission-gated verb.
  [[nodiscard]] Status Admit(const Verb& verb, Call& call);

  // Handlers: a `reply` cannot fail; a `run` may, and fills `call`.
  Json Pong() const;
  Json Metrics() const;
  [[nodiscard]] Status Shutdown(Call& call);
  [[nodiscard]] Status SetFailpoints(Call& call);
  [[nodiscard]] Status Unload(Call& call);
  [[nodiscard]] Status LoadGraph(Call& call);
  [[nodiscard]] Status LoadParams(Call& call);
  [[nodiscard]] Status Solve(Call& call);
  [[nodiscard]] Status DoSolve(Call& call);
  [[nodiscard]] Status UnknownVerb(Call& call);

  const ServerOptions options_;
  std::atomic<bool> own_stop_{false};
  std::atomic<bool>* const stop_;

  SessionRegistry sessions_;
  WarmPool warm_;
  AdmissionController admission_;

  // Every serve event is counted once, on the process-global registry
  // (serve/instruments.h). Each Server snapshots the registry totals at
  // construction so Stats() reports per-instance deltas — the shape the
  // golden transcripts pin. Invariants over a quiesced instance:
  //   requests == ok + errors, and solves <= ok
  // (a solve that exceeds its deadline mid-solve is an error, not a
  // solve — both tallies are recorded at the same call site).
  uint64_t base_ok_ = 0;
  uint64_t base_errors_ = 0;
  uint64_t base_solves_ = 0;
  double base_solve_ms_ = 0.0;
  /// A registry counter Stats() reports under `key` as this Server's
  /// delta, after the keys of the section's own Describe().
  struct Tally {
    const char* key;
    const obs::Counter* counter;
    uint64_t base;
  };
  std::vector<Tally> warm_tallies_;
  std::vector<Tally> admission_tallies_;
};

}  // namespace serve
}  // namespace uic
