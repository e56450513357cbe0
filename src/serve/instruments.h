// The serve layer's instruments, registered in one place.
//
// Each serve event is counted once, on the process-global registry
// (obs/metrics.h): the `metrics` verb and `--metrics-port` expose the
// process totals, and the `stats` verb reports each counter as the delta
// since its Server was built (server.h). The per-verb request series are
// rows of the verb table in server.cc.
#pragma once

#include "obs/metrics.h"

namespace uic {
namespace serve {

struct ServeInstruments {
  // Request accounting (server.cc).
  obs::Counter& ok;
  obs::Counter& errors;
  obs::Counter& solves;
  obs::Histogram& solve_latency_ms;
  // Admission control (scheduler.cc).
  obs::Gauge& queue_depth;
  obs::Gauge& running;
  obs::Counter& admitted;
  obs::Counter& shed;
  obs::Counter& queue_deadline_exceeded;
  // The warm pool (warm_cache.cc) and the warm solves that lease it.
  obs::Counter& warm_hits;
  obs::Counter& warm_misses;
  obs::Counter& warm_evictions;
  obs::Counter& warm_rr_sets_sampled;
  obs::Counter& warm_rr_sets_served;
};

inline ServeInstruments& Instruments() {
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
  UIC_METRIC_GAUGE(queue_depth, "uic_serve_queue_depth",
                   "Requests waiting for an admission slot right now.");
  UIC_METRIC_GAUGE(running, "uic_serve_running",
                   "Requests holding an admission slot right now.");
  UIC_METRIC_COUNTER(admitted, "uic_serve_admitted_total",
                     "Requests granted an admission slot.");
  UIC_METRIC_COUNTER(shed, "uic_serve_shed_total",
                     "Requests shed because the admission queue was full.");
  UIC_METRIC_COUNTER(
      queue_deadline_exceeded, "uic_serve_queue_deadline_exceeded_total",
      "Requests whose deadline_ms expired while they were queued.");
  UIC_METRIC_COUNTER(warm_hits, "uic_serve_warm_hits_total",
                     "Warm-pool acquires that reused a cached entry.");
  UIC_METRIC_COUNTER(warm_misses, "uic_serve_warm_misses_total",
                     "Warm-pool acquires that had to build a new entry.");
  UIC_METRIC_COUNTER(warm_evictions, "uic_serve_warm_evictions_total",
                     "Warm-pool entries evicted to make room.");
  UIC_METRIC_COUNTER(warm_rr_sets_sampled,
                     "uic_serve_warm_rr_sets_sampled_total",
                     "RR sets warm solves drew into a warm-pool entry.");
  UIC_METRIC_COUNTER(warm_rr_sets_served,
                     "uic_serve_warm_rr_sets_served_total",
                     "RR sets a warm-pool entry handed to warm solves.");
  static ServeInstruments instruments{
      ok, errors, solves, solve_latency_ms, queue_depth, running, admitted,
      shed, queue_deadline_exceeded, warm_hits, warm_misses, warm_evictions,
      warm_rr_sets_sampled, warm_rr_sets_served};
  return instruments;
}

}  // namespace serve
}  // namespace uic
