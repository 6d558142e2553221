// Synchronization primitives for simulation processes.

#ifndef CARAT_SIM_SYNC_H_
#define CARAT_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <deque>

#include "sim/simulation.h"

namespace carat::sim {

/// FIFO mutex: serializes critical sections of variable duration (e.g. the
/// single TM server process handling one message at a time).
class FifoMutex {
 public:
  explicit FifoMutex(SitePort sim) : sim_(sim) {}
  FifoMutex(const FifoMutex&) = delete;
  FifoMutex& operator=(const FifoMutex&) = delete;

  struct LockAwaiter {
    FifoMutex& mutex;
    bool await_ready() {
      if (!mutex.locked_) {
        mutex.locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      mutex.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// co_await Lock(); ... Unlock();
  LockAwaiter Lock() { return LockAwaiter{*this}; }

  void Unlock() {
    assert(locked_);
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    const std::coroutine_handle<> next = waiters_.front();
    waiters_.pop_front();
    sim_.Schedule(0.0, next);  // lock stays held, ownership transfers
  }

  bool locked() const { return locked_; }
  std::size_t waiters() const { return waiters_.size(); }

 private:
  SitePort sim_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// FIFO counting semaphore (e.g. a fixed pool of DM servers: a permit is a
/// server, held by a transaction for its lifetime at the node).
class CountingSemaphore {
 public:
  CountingSemaphore(SitePort sim, int permits)
      : sim_(sim), available_(permits) {}
  CountingSemaphore(const CountingSemaphore&) = delete;
  CountingSemaphore& operator=(const CountingSemaphore&) = delete;

  struct AcquireAwaiter {
    CountingSemaphore& sem;
    bool await_ready() {
      ++sem.acquires_;
      if (sem.available_ > 0) {
        --sem.available_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++sem.waits_;
      sem.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// co_await Acquire(); ... Release();
  AcquireAwaiter Acquire() { return AcquireAwaiter{*this}; }

  void Release() {
    if (!waiters_.empty()) {
      const std::coroutine_handle<> next = waiters_.front();
      waiters_.pop_front();
      sim_.Schedule(0.0, next);  // permit transfers directly
      return;
    }
    ++available_;
  }

  int available() const { return available_; }
  std::size_t waiting() const { return waiters_.size(); }
  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t waits() const { return waits_; }
  void ResetStats() {
    acquires_ = 0;
    waits_ = 0;
  }

 private:
  SitePort sim_;
  int available_;
  std::deque<std::coroutine_handle<>> waiters_;
  std::uint64_t acquires_ = 0;
  std::uint64_t waits_ = 0;
};

/// Countdown gate: one waiter blocks until `Signal()` has been called the
/// configured number of times (used to join parallel 2PC legs).
class Gate {
 public:
  explicit Gate(int count) : remaining_(count) {}

  void Signal() {
    assert(remaining_ > 0);
    --remaining_;
    if (remaining_ == 0 && waiter_) {
      const std::coroutine_handle<> h = waiter_;
      waiter_ = nullptr;
      h.resume();  // same-timestamp continuation
    }
  }

  struct WaitAwaiter {
    Gate& gate;
    bool await_ready() const noexcept { return gate.remaining_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(gate.waiter_ == nullptr);
      gate.waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  WaitAwaiter Wait() { return WaitAwaiter{*this}; }

  /// Signals still missing before the gate opens.
  int remaining() const { return remaining_; }

 private:
  int remaining_;
  std::coroutine_handle<> waiter_ = nullptr;
};

}  // namespace carat::sim

#endif  // CARAT_SIM_SYNC_H_
