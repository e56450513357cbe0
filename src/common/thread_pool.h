// A persistent worker-thread pool with deterministic chunked ParallelFor.
//
// The RR engine's hot loop (`RrCollection::GenerateUntil`) runs dozens to
// hundreds of growth rounds per solver invocation; forking and joining
// `std::thread`s every round costs more than small rounds themselves. A
// `ThreadPool` creates its workers once and reuses them for every
// subsequent `ParallelFor`, so steady state performs no thread
// construction at all.
//
// Determinism contract: `ParallelFor(n, workers, fn)` partitions [0, n)
// into `workers` contiguous chunks — the *logical* worker count, chosen by
// the caller — and invokes `fn(worker, begin, end)` once per non-empty
// chunk. Which pool thread executes a chunk is unspecified, but the
// (worker, begin, end) triples are a pure function of (n, workers) and are
// byte-for-byte the partition the legacy fork-join `ParallelFor` used.
// Callers that derive one RNG stream per logical worker therefore get
// results that depend only on the logical worker count, never on the
// pool's physical thread count or on scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace uic {

/// Number of workers to use by default (bounded to keep experiment variance
/// and scheduling noise low on shared machines).
inline unsigned DefaultWorkers() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  return hw > 16 ? 16 : hw;
}

/// Most threads the binaries' --workers flags may ask a pool for.
inline constexpr unsigned kMaxPoolThreads = 1024;

/// \brief Fixed-size pool of persistent worker threads.
///
/// Thread-safe: concurrent `ParallelFor` calls from different threads are
/// queued and executed in submission order. A `ParallelFor` issued from
/// inside a pool task runs its chunks inline on the calling thread (same
/// partition, sequential), so nested parallelism cannot deadlock.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = `DefaultWorkers()`).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// \brief Run `fn(worker, begin, end)` over a partition of [0, n) into
  /// `workers` contiguous chunks; blocks until every chunk has finished.
  /// The calling thread participates in chunk execution.
  void ParallelFor(size_t n, unsigned workers,
                   const std::function<void(unsigned, size_t, size_t)>& fn);

  /// \brief Process-wide shared pool (lazily created with
  /// `DefaultWorkers()` threads). All library components parallelize
  /// through this instance by default, so one solver invocation — PRIMA's
  /// phase loop, its regeneration pass, nested IMM calls, Monte-Carlo
  /// evaluation — reuses a single set of threads.
  static ThreadPool& Shared();

  /// \brief Size the shared pool before its first use (the `--workers`
  /// plumbing of uic_run/uic_served). Returns false — leaving the
  /// existing pool untouched — when `Shared()` has already been called;
  /// 0 restores the `DefaultWorkers()` default. Physical pool size never
  /// affects results (the determinism contract above), only throughput.
  static bool ConfigureShared(unsigned threads);

 private:
  /// One ParallelFor invocation: chunks are claimed via an atomic cursor
  /// by however many threads (pool workers + the caller) pick it up.
  struct Call {
    const std::function<void(unsigned, size_t, size_t)>* fn = nullptr;
    size_t n = 0;
    size_t chunk = 0;
    unsigned total_chunks = 0;
    std::atomic<unsigned> next{0};
    std::atomic<unsigned> done{0};
    /// Pairs the final done increment with the submitter's wait so the
    /// completion notification cannot be missed; guards nothing itself
    /// (progress state is the two atomics above).
    Mutex m;
    CondVar done_cv;
  };

  /// Claim and execute chunks of `call` until none remain.
  static void RunChunks(Call& call);
  void WorkerLoop();

  /// Worker threads; written only during construction, joined in the
  /// destructor after `stop_` is published.
  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Call>> queue_ UIC_GUARDED_BY(mu_);
  bool stop_ UIC_GUARDED_BY(mu_) = false;
};

/// \brief RAII handle on one long-running thread, joined on destruction.
///
/// `ParallelFor` expresses fork-join chunk work, not threads that outlive
/// a call — the serve layer's request executors and connection readers,
/// and tests that drive the library from concurrent callers, need the
/// latter. This wrapper keeps raw `std::thread` construction confined to
/// common/thread_pool.* (lint rule UIC-L004): everything else obtains
/// concurrency through `ThreadPool` or `BackgroundThread`.
class BackgroundThread {
 public:
  explicit BackgroundThread(std::function<void()> fn);
  ~BackgroundThread() { Join(); }

  BackgroundThread(const BackgroundThread&) = delete;
  BackgroundThread& operator=(const BackgroundThread&) = delete;

  /// Block until the thread function returns. Idempotent.
  void Join();

 private:
  std::thread thread_;
};

}  // namespace uic
