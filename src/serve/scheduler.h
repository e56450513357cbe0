// Admission control for the welfare-query service: a bounded FIFO wait
// queue in front of a fixed number of execution slots.
//
// The daemon must degrade predictably under load, not OOM: RR pools are
// the dominant memory cost and each admitted solve may grow one, so the
// number of *concurrent* solves is capped (`concurrency` slots — the
// actual compute inside a slot still fans out over `ThreadPool::Shared()`
// via the solvers' ParallelFor calls), and the number of *waiting*
// requests is capped (`queue_capacity`). A request arriving to a full
// queue is shed immediately with kOverloaded (the 429 analogue: the
// client should back off and retry) instead of being buffered without
// bound; a request whose `deadline_ms` elapses while still queued fails
// with kDeadlineExceeded without ever starting (admitted work always runs
// to completion — there is no preemption).
//
// Admission order is strict FIFO by arrival ticket, so a burst drains in
// a predictable order. None of this affects response *content*: payloads
// are deterministic in (problem, options, seed) regardless of scheduling
// (see rr_collection.h); the scheduler only decides when — and whether —
// a request runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "serve/json.h"

namespace uic {
namespace serve {

/// \brief FIFO admission gate with bounded queue and per-request deadline.
class AdmissionController {
 public:
  struct Options {
    unsigned concurrency = 2;    ///< simultaneous execution slots
    size_t queue_capacity = 16;  ///< waiting requests before shedding
  };

  enum class Decision {
    kAdmitted,          ///< run now; call Release() when done
    kShed,              ///< queue full at arrival — 429
    kDeadlineExceeded,  ///< deadline elapsed while queued — 504
    kDraining,          ///< server shutting down — 503
  };

  explicit AdmissionController(Options options);

  /// Wait for an execution slot (FIFO). `deadline_ms` of 0 waits
  /// indefinitely. On kAdmitted, `*queued_ms` (optional) receives the
  /// time spent waiting and the caller owns one slot until Release().
  Decision Admit(double deadline_ms, double* queued_ms = nullptr);

  /// Return the slot taken by a successful Admit.
  void Release();

  /// Fail all queued waiters and every future Admit with kDraining;
  /// running requests are unaffected (the daemon drains them).
  void BeginDrain();

  /// Block until no request is running or queued (the drain barrier).
  void AwaitIdle();

  /// Slot and queue state for the `stats` verb. The admitted, shed and
  /// deadline-exceeded events are counted on the registry only
  /// (serve/instruments.h).
  Json Describe() const;

 private:
  const Options options_;

  mutable Mutex mu_;
  CondVar wake_;
  unsigned running_ UIC_GUARDED_BY(mu_) = 0;
  /// FIFO of waiting tickets (erased from the middle on deadline/drain).
  std::vector<uint64_t> waiting_ UIC_GUARDED_BY(mu_);
  uint64_t next_ticket_ UIC_GUARDED_BY(mu_) = 1;
  bool draining_ UIC_GUARDED_BY(mu_) = false;
  /// High-water mark of this controller's queue (no registry twin).
  size_t max_queue_depth_ UIC_GUARDED_BY(mu_) = 0;
};

}  // namespace serve
}  // namespace uic
