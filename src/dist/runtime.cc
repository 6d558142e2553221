#include "dist/runtime.h"

#include <algorithm>
#include <utility>

namespace carat::dist {

void RtResource::Use(double service_virtual_ms) {
  if (service_virtual_ms <= 0.0) return;
  RtClock::TimePoint end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const RtClock::TimePoint now = std::chrono::steady_clock::now();
    const RtClock::TimePoint start = std::max(now, busy_until_);
    end = start + clock_->RealDuration(service_virtual_ms);
    busy_until_ = end;
    busy_virtual_ms_ += service_virtual_ms;
    ++completions_;
  }
  std::this_thread::sleep_until(end);
}

double RtResource::BacklogVms() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::chrono::duration<double, std::milli> ahead =
      busy_until_ - std::chrono::steady_clock::now();
  if (ahead.count() <= 0.0) return 0.0;
  return ahead.count() / clock_->scale();
}

double RtResource::BusyVirtualMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_virtual_ms_;
}

std::uint64_t RtResource::completions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completions_;
}

void RtResource::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  busy_virtual_ms_ = 0.0;
  completions_ = 0;
}

void RtFifoMutex::Lock() {
  std::unique_lock<std::mutex> lock(mu_);
  ++depth_;
  if (!held_ && queue_.empty()) {
    held_ = true;
    return;
  }
  auto waiter = std::make_shared<Waiter>();
  queue_.push_back(waiter);
  // Unlock hands ownership to us directly (held_ never drops while we
  // queue), so FIFO order holds even against fresh arrivals.
  waiter->cv.wait(lock, [&] { return waiter->ready; });
}

void RtFifoMutex::Unlock() {
  std::shared_ptr<Waiter> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --depth_;
    if (queue_.empty()) {
      held_ = false;
    } else {
      next = queue_.front();
      queue_.pop_front();
      next->ready = true;
    }
  }
  if (next) next->cv.notify_one();
}

std::uint64_t RtFifoMutex::Depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

void RtSemaphore::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  if (available_ <= 0) {
    ++waits_;
    cv_.wait(lock, [&] { return available_ > 0; });
  }
  --available_;
}

void RtSemaphore::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++available_;
  }
  cv_.notify_one();
}

std::uint64_t RtSemaphore::waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waits_;
}

void RtSemaphore::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  waits_ = 0;
}

namespace {

// A thread asleep on a lock wait. The table stores the outcome, then calls
// Wake; both happen under the front's mutex, which the sleeper re-acquires
// before it reads them, so the waiter outlives every use the table makes
// of it.
struct ThreadWaiter {
  std::condition_variable cv;
  bool decided = false;
  lock::LockOutcome outcome = lock::LockOutcome::kGranted;

  static void Wake(void* self) {
    auto* waiter = static_cast<ThreadWaiter*>(self);
    waiter->decided = true;
    waiter->cv.notify_one();
  }
};

}  // namespace

lock::LockOutcome RtLockFront::Acquire(TxnId txn, db::GranuleId granule,
                                       lock::LockMode mode) {
  std::unique_lock<std::mutex> lock(mu_);
  if (table_.TryAcquire(txn, granule, mode)) return lock::LockOutcome::kGranted;
  ThreadWaiter waiter;
  if (!table_.Enqueue(txn, granule, mode, &waiter.outcome,
                      {&ThreadWaiter::Wake, &waiter})) {
    return waiter.outcome;
  }
  if (on_block) {
    // The wait predicate below absorbs a grant or cancellation that lands
    // while the mutex is released.
    std::vector<TxnId> holders = table_.WaitingFor(txn);
    lock.unlock();
    on_block(txn, std::move(holders));
    lock.lock();
  }
  waiter.cv.wait(lock, [&] { return waiter.decided; });
  return waiter.outcome;
}

void WorkerPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_) {
      queue_.push_back(std::move(fn));
      // idle_ still counts a waiter that an earlier Submit has notified but
      // that has not resumed yet, so `idle_ > 0` alone cannot prove this
      // task will be picked up: a notify here can land on that same
      // already-released waiter and be absorbed, stranding the task until
      // the running handler finishes. A REMDO handler can block on a lock
      // for arbitrarily long, so a stranded TABORT/VICTIM behind it
      // deadlocks the coordinator. Spawning whenever the backlog exceeds
      // the waiters closes that gap (the new thread is a guaranteed
      // pickup), so a single notify suffices in the other branch: every
      // released-but-unresumed waiter re-checks the queue under the
      // predicate loop before sleeping again.
      if (queue_.size() > static_cast<std::size_t>(idle_)) {
        threads_.emplace_back([this] { WorkerMain(); });
        ++live_;
      } else {
        cv_.notify_one();
      }
      return;
    }
  }
  // Shut down: run inline so late protocol messages still complete.
  fn();
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{queue_.size(), idle_, static_cast<std::size_t>(live_)};
}

void WorkerPool::WorkerMain() {
  // A blocking burst (e.g. a deadlock tangle parking many handlers at once)
  // can spawn hundreds of workers; retire the ones that stay idle so the
  // pool shrinks back to steady-state size. The retired std::thread handles
  // stay in threads_ and are joined at Shutdown.
  constexpr std::chrono::seconds kIdleRetire{2};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    ++idle_;
    const bool work =
        cv_.wait_for(lock, kIdleRetire, [&] { return stop_ || !queue_.empty(); });
    --idle_;
    if (!work || queue_.empty()) {
      // Idled out, or stop_ with nothing left to drain. idle_ was already
      // decremented under mu_, so a racing Submit sees the reduced waiter
      // count and spawns a replacement instead of notifying a ghost.
      --live_;
      return;
    }
    std::function<void()> fn = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    fn();
    lock.lock();
  }
}

void WorkerPool::Shutdown() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

}  // namespace carat::dist
