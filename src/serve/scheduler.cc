#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/timer.h"
#include "serve/instruments.h"

namespace uic {
namespace serve {

AdmissionController::AdmissionController(Options options)
    : options_(options) {}

AdmissionController::Decision AdmissionController::Admit(double deadline_ms,
                                                         double* queued_ms) {
  WallTimer timer;
  // delay_ms(n) widens queue/deadline races without filling the queue;
  // error(...) forces a shed so the 429 path is testable on an idle
  // server. Evaluated before the lock: a delay must never hold mu_.
  const failpoint::Hit fp = UIC_FAILPOINT("serve.scheduler.admit");
  failpoint::SleepFor(fp);
  ServeInstruments& metrics = Instruments();
  MutexLock lock(mu_);
  if (fp.action == failpoint::Action::kError) {
    metrics.shed.Add();
    return Decision::kShed;
  }
  if (draining_) return Decision::kDraining;
  if (waiting_.size() >= options_.queue_capacity) {
    metrics.shed.Add();
    return Decision::kShed;
  }
  const uint64_t ticket = next_ticket_++;
  waiting_.push_back(ticket);
  max_queue_depth_ = std::max(max_queue_depth_, waiting_.size());
  metrics.queue_depth.Set(static_cast<long long>(waiting_.size()));

  while (true) {
    if (draining_) {
      waiting_.erase(std::find(waiting_.begin(), waiting_.end(), ticket));
      metrics.queue_depth.Set(static_cast<long long>(waiting_.size()));
      wake_.NotifyAll();
      return Decision::kDraining;
    }
    if (running_ < options_.concurrency && waiting_.front() == ticket) {
      waiting_.erase(waiting_.begin());
      ++running_;
      metrics.queue_depth.Set(static_cast<long long>(waiting_.size()));
      metrics.running.Set(static_cast<long long>(running_));
      metrics.admitted.Add();
      if (queued_ms != nullptr) *queued_ms = timer.ElapsedMillis();
      return Decision::kAdmitted;
    }
    if (deadline_ms > 0.0) {
      const double remaining_ms = deadline_ms - timer.ElapsedMillis();
      if (remaining_ms <= 0.0) {
        metrics.queue_deadline_exceeded.Add();
        // Removing a non-head ticket can promote the next waiter to head
        // while a slot is free; wake everyone to re-check.
        waiting_.erase(std::find(waiting_.begin(), waiting_.end(), ticket));
        metrics.queue_depth.Set(static_cast<long long>(waiting_.size()));
        wake_.NotifyAll();
        return Decision::kDeadlineExceeded;
      }
      wake_.WaitFor(mu_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::duration<double, std::milli>(
                                 remaining_ms)));
    } else {
      wake_.Wait(mu_);
    }
  }
}

void AdmissionController::Release() {
  MutexLock lock(mu_);
  --running_;
  Instruments().running.Set(static_cast<long long>(running_));
  wake_.NotifyAll();
}

void AdmissionController::BeginDrain() {
  MutexLock lock(mu_);
  draining_ = true;
  wake_.NotifyAll();
}

void AdmissionController::AwaitIdle() {
  MutexLock lock(mu_);
  while (running_ > 0 || !waiting_.empty()) wake_.Wait(mu_);
}

Json AdmissionController::Describe() const {
  MutexLock lock(mu_);
  Json out = Json::Object();
  out.Set("concurrency", Json::Int(options_.concurrency));
  out.Set("queue_capacity",
          Json::Int(static_cast<long long>(options_.queue_capacity)));
  out.Set("running", Json::Int(running_));
  out.Set("queued", Json::Int(static_cast<long long>(waiting_.size())));
  out.Set("max_queue_depth",
          Json::Int(static_cast<long long>(max_queue_depth_)));
  return out;
}

}  // namespace serve
}  // namespace uic
