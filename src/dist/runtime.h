// Real-time execution primitives for the distributed testbed.
//
// The in-process testbed (carat/testbed.h) runs on a virtual-time event
// kernel; the distributed testbed runs each site as its own OS process, so
// time must be real. Every service demand of the protocol (CPU bursts, disk
// block I/Os) is emulated by sleeping a scaled amount of wall-clock time:
// `scale` real milliseconds per virtual millisecond. All protocol code keeps
// working in *virtual* milliseconds — the same unit as the model and the
// simulation — and RtClock converts at the sleep/measure boundary.
//
// RtResource is the FCFS single server. Instead of sleeping per caller (which
// would let scheduler overshoot accumulate through a queue), it keeps a
// reservation ledger: under a mutex each request computes
//     start = max(now, busy_until), end = start + service
// advances busy_until to `end`, and then sleeps until the *absolute* deadline
// `end` outside the lock. A thread that oversleeps does not push later
// reservations back — the ledger already fixed their deadlines — so timing
// error stays per-visit instead of compounding across the queue, and the
// measured busy time is exactly the virtual service demand, as in the
// simulation's sim::FcfsResource.
//
// RtLockFront puts the same lock table the simulation uses
// (lock::LockManager) behind a mutex and blocks the requesting thread on a
// lock wait: in the distributed runtime every transaction leg is a real
// thread, so blocking the thread *is* the lock wait.

#ifndef CARAT_DIST_RUNTIME_H_
#define CARAT_DIST_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "db/database.h"
#include "lock/lock_manager.h"

namespace carat::dist {

using TxnId = lock::TxnId;

/// Wall-clock <-> virtual-time conversion for one site process. `scale` is
/// real milliseconds per virtual millisecond (0.1 = ten times faster than
/// the modeled hardware).
class RtClock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit RtClock(double scale)
      : scale_(scale), start_(std::chrono::steady_clock::now()) {}

  double scale() const { return scale_; }

  /// Virtual milliseconds elapsed since this clock was created.
  double NowVirtualMs() const {
    const std::chrono::duration<double, std::milli> real =
        std::chrono::steady_clock::now() - start_;
    return real.count() / scale_;
  }

  /// Real-time duration corresponding to `virtual_ms`.
  std::chrono::steady_clock::duration RealDuration(double virtual_ms) const {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(virtual_ms * scale_));
  }

  /// Sleeps for `virtual_ms` of virtual time (scaled to real time).
  void SleepVirtual(double virtual_ms) const {
    if (virtual_ms <= 0.0) return;
    std::this_thread::sleep_for(RealDuration(virtual_ms));
  }

  static void SleepRealMs(double real_ms) {
    if (real_ms <= 0.0) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(real_ms));
  }

 private:
  double scale_;
  TimePoint start_;
};

/// FCFS single-server resource (a CPU or a disk) with a reservation ledger;
/// see the file comment. Thread-safe.
class RtResource {
 public:
  explicit RtResource(const RtClock* clock) : clock_(clock) {}
  RtResource(const RtResource&) = delete;
  RtResource& operator=(const RtResource&) = delete;

  /// Queues for the server, holds it for `service_virtual_ms`, returns when
  /// the service completes. FIFO by reservation order.
  void Use(double service_virtual_ms);

  /// Virtual milliseconds of reserved-but-undelivered service: how far
  /// busy_until_ has run ahead of the wall clock. Nonzero while requests
  /// queue; a large, growing value means offered load exceeds the server's
  /// (scaled) capacity. Diagnostic only.
  double BacklogVms() const;

  /// Virtual milliseconds of service delivered since the last reset.
  double BusyVirtualMs() const;

  /// Completed service visits since the last reset.
  std::uint64_t completions() const;

  void ResetStats();

 private:
  const RtClock* clock_;
  mutable std::mutex mu_;
  RtClock::TimePoint busy_until_{};  ///< end of the last reservation (real)
  double busy_virtual_ms_ = 0.0;
  std::uint64_t completions_ = 0;
};

/// FIFO mutex held across resource usages — the CARAT TM server is a
/// serially reusable process: it is seized, charges its CPU demand, and is
/// released. Waiters are served strictly in arrival order by direct
/// handoff to a per-waiter condition variable: exactly one thread wakes
/// per release. (A single shared cv with notify_all makes each service
/// cost O(queue) wakeups, and under a probe burst that positive feedback
/// — longer queue, slower service, faster growth — livelocks the whole
/// site: observed as thousands of handler threads parked on the TM while
/// the modeled CPU sat idle.)
class RtFifoMutex {
 public:
  void Lock();
  void Unlock();

  /// Current holder plus queued waiters. Diagnostic only.
  std::uint64_t Depth() const;

 private:
  struct Waiter {
    std::condition_variable cv;
    bool ready = false;
  };

  mutable std::mutex mu_;
  bool held_ = false;
  std::uint64_t depth_ = 0;  ///< holder + waiters
  std::deque<std::shared_ptr<Waiter>> queue_;
};

/// Counting semaphore for the fixed DM server pool. Counts how many
/// acquisitions had to wait (the testbed's dm_pool_waits measurement).
class RtSemaphore {
 public:
  explicit RtSemaphore(int count) : available_(count) {}

  void Acquire();
  void Release();

  std::uint64_t waits() const;
  void ResetStats();

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int available_;
  std::uint64_t waits_ = 0;
};

/// Thread-blocking front over lock::LockManager, which keeps the grant and
/// upgrade rules, FIFO queues, local cycle check, victim choice and
/// counters. A request that must wait sleeps on its own condition variable
/// until the table's wake hook decides it: granted, or aborted by
/// CancelWait (a global deadlock victim). Thread-safe.
class RtLockFront {
 public:
  /// Blocks until the lock is granted or the requester is aborted (local
  /// deadlock victim, or CancelWait); kAborted acquires nothing.
  lock::LockOutcome Acquire(TxnId txn, db::GranuleId granule,
                            lock::LockMode mode);

  /// Invoked when a request queues, with the mutex released: it launches
  /// probes, which charge TM/CPU time and send messages.
  std::function<void(TxnId waiter, std::vector<TxnId> holders)> on_block;

  /// Ends `txn`'s leg at this site: releases every lock it holds, grants
  /// the waiters that become eligible, and forgets the transaction.
  void EndTxn(TxnId txn) {
    std::lock_guard<std::mutex> lock(mu_);
    table_.ReleaseAll(txn);
    table_.EndTxn(txn);
  }

  // The table's calls and reads under the mutex; see lock::LockManager.
  bool CancelWait(TxnId txn) {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.CancelWait(txn);
  }
  bool IsWaiting(TxnId txn) const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.IsWaiting(txn);
  }
  std::vector<TxnId> WaitingTxns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.WaitingTxns();
  }
  std::vector<TxnId> WaitingFor(TxnId txn) const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.WaitingFor(txn);
  }
  std::size_t HeldCount(TxnId txn) const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.HeldCount(txn);
  }
  std::uint64_t requests() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.requests();
  }
  std::uint64_t blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.blocks();
  }
  std::uint64_t local_deadlocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.local_deadlocks();
  }
  std::uint64_t cancelled_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.cancelled_waits();
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    table_.ResetStats();
  }

 private:
  mutable std::mutex mu_;
  lock::LockManager table_;
};

/// Spawn-on-demand worker pool for protocol message handlers. A fixed-size
/// pool would distributed-deadlock: a REMDO handler can block on a lock that
/// only a later COMMIT message (needing a worker) will release. Submitting
/// when every worker is busy therefore spawns a new thread; idle workers are
/// reused and retire after staying idle, so a blocking burst does not leave
/// hundreds of parked threads behind. Threads are joined on Shutdown.
class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool() { Shutdown(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `fn` on a worker thread (inline if the pool is shut down).
  void Submit(std::function<void()> fn);

  /// Point-in-time pool occupancy for stuck-run diagnosis: a persistently
  /// nonzero `queued` with idle waiters available means tasks are stranded.
  struct Stats {
    std::size_t queued = 0;
    int idle = 0;
    std::size_t threads = 0;
  };
  Stats stats() const;

  /// Drains queued work and joins every worker. Idempotent.
  void Shutdown();

 private:
  void WorkerMain();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;  ///< every spawned handle, incl. retired
  int idle_ = 0;
  int live_ = 0;  ///< threads that have not retired
  bool stop_ = false;
};

}  // namespace carat::dist

#endif  // CARAT_DIST_RUNTIME_H_
