// Two-phase-locking lock manager with local deadlock detection.
//
// Matches the testbed: shared/exclusive locks at database-block (granule)
// granularity, FIFO wait queues, and local deadlock detection by cycle
// search over the transaction-wait-for graph, run when a request blocks.
// Waits are cancellable so that a transaction chosen as a (local or global)
// deadlock victim while queued resumes with LockOutcome::kAborted.
//
// Lock-table operations are pure bookkeeping (the testbed keeps the lock
// table in main memory); the LR-phase CPU cost is charged by the caller.
//
// One table serves both runtimes. The in-process testbed suspends a
// coroutine on Acquire and resumes it on its site's timeline; the
// distributed site engine (dist::RtLockFront) blocks a thread through
// TryAcquire/Enqueue under its own mutex. The fronts differ only in how a
// queued waiter is woken, which each waiter carries as a WakeHook.

#ifndef CARAT_LOCK_LOCK_MANAGER_H_
#define CARAT_LOCK_LOCK_MANAGER_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "sim/simulation.h"

namespace carat::lock {

using TxnId = std::uint64_t;

enum class LockMode { kShared, kExclusive };

enum class LockOutcome {
  kGranted,
  kAborted,  ///< chosen as deadlock victim (or cancelled by a global abort)
};

/// Which transaction dies when a local wait-for cycle is found.
enum class VictimPolicy {
  kRequester,  ///< the blocking requester (the testbed's behaviour)
  kYoungest,   ///< cycle member with the latest start time
  kOldest,     ///< cycle member with the earliest start time
};

/// What a request does when it cannot be granted immediately. kWait is the
/// 2PL behaviour (FIFO wait + local cycle detection); the other two resolve
/// the conflict on the spot, so no wait-for cycle can ever form and the
/// deadlock machinery (FindCycle, probes, watchdogs) never runs.
enum class ConflictPolicy {
  kWait,            ///< FIFO wait, local deadlock check (2PL)
  kAbortRequester,  ///< no-waiting: every conflict aborts the requester
  /// Wait-die: the requester waits only if it is older (smaller transaction
  /// id — ids are a globally consistent total order, unlike per-site birth
  /// times) than every transaction it would wait for; otherwise it dies.
  /// Every wait-for edge then points at a strictly younger transaction, so
  /// the global wait graph is acyclic by construction.
  kWaitDie,
};

class LockManager {
 public:
  /// A table on `sim`'s timeline, for coroutine callers (Acquire).
  explicit LockManager(sim::SitePort sim) : sim_(sim) {}
  /// A table with no timeline, for thread-blocking callers: they use
  /// TryAcquire/Enqueue and never Acquire or StartTxn, so age-based victim
  /// policies see every transaction as born at time 0.
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Registers a transaction (start time feeds age-based victim policies).
  void StartTxn(TxnId txn);

  /// Forgets a finished transaction. Its locks must already be released.
  void EndTxn(TxnId txn);

  struct AcquireAwaiter;

  /// co_await Acquire(...) returns a LockOutcome. kGranted means the lock is
  /// held until ReleaseAll; kAborted means the requester was chosen as a
  /// deadlock victim (no lock acquired) and must roll back.
  AcquireAwaiter Acquire(TxnId txn, db::GranuleId granule, LockMode mode);

  /// How a queued request learns its outcome: when the queue grants or
  /// cancels the wait, it stores the outcome and then calls fn(ctx).
  struct WakeHook {
    void (*fn)(void* ctx) = nullptr;
    void* ctx = nullptr;
  };

  /// The request protocol behind Acquire, for callers that block a thread
  /// instead. TryAcquire counts the request and grants it if it can be
  /// granted now. Otherwise Enqueue resolves the conflict under the
  /// conflict and victim policies: false means the requester dies on the
  /// spot (*outcome = kAborted, nothing queued); true means it was queued,
  /// and `wake` runs once *outcome is decided, possibly before Enqueue
  /// returns.
  bool TryAcquire(TxnId txn, db::GranuleId granule, LockMode mode);
  bool Enqueue(TxnId txn, db::GranuleId granule, LockMode mode,
               LockOutcome* outcome, WakeHook wake);

  /// Releases every lock held by `txn` and grants eligible waiters.
  void ReleaseAll(TxnId txn);

  /// Cancels `txn`'s pending lock wait, resuming it with kAborted. Returns
  /// false if the transaction was not waiting.
  bool CancelWait(TxnId txn);

  /// True if `txn` is queued for some lock.
  bool IsWaiting(TxnId txn) const { return waiting_on_.contains(txn); }

  /// Transactions currently queued for some lock, in ascending id order so
  /// watchdog sweeps are deterministic regardless of hash-map layout.
  std::vector<TxnId> WaitingTxns() const;

  /// Transactions that `txn` currently waits for: conflicting holders plus
  /// conflicting earlier waiters on the same granule. Empty if not waiting.
  std::vector<TxnId> WaitingFor(TxnId txn) const;

  /// True if `txn` holds `granule` with at least `mode` strength.
  bool Holds(TxnId txn, db::GranuleId granule, LockMode mode) const;

  /// Number of locks held by `txn`.
  std::size_t HeldCount(TxnId txn) const;

  /// Total locks held across all transactions.
  std::size_t TotalHeld() const { return total_held_; }

  VictimPolicy victim_policy() const { return victim_policy_; }
  void set_victim_policy(VictimPolicy policy) { victim_policy_ = policy; }

  ConflictPolicy conflict_policy() const { return conflict_policy_; }
  void set_conflict_policy(ConflictPolicy policy) { conflict_policy_ = policy; }

  /// Invoked whenever a request blocks, after the local deadlock check ruled
  /// out a local cycle; used to launch global deadlock probes.
  std::function<void(TxnId waiter, const std::vector<TxnId>& holders)> on_block;

  /// Invoked when a blocked request leaves the wait queue (granted or
  /// cancelled); used to keep the distributed wait registry current.
  std::function<void(TxnId waiter)> on_unblock;

  // --- statistics -----------------------------------------------------------
  std::uint64_t requests() const { return requests_; }
  std::uint64_t blocks() const { return blocks_; }
  std::uint64_t local_deadlocks() const { return local_deadlocks_; }
  std::uint64_t cancelled_waits() const { return cancelled_waits_; }
  /// Requests aborted by a restart-oriented conflict policy (no-waiting or
  /// wait-die); always 0 under ConflictPolicy::kWait.
  std::uint64_t conflict_aborts() const { return conflict_aborts_; }
  void ResetStats();

  struct AcquireAwaiter {
    LockManager& lm;
    TxnId txn;
    db::GranuleId granule;
    LockMode mode;
    LockOutcome outcome = LockOutcome::kGranted;
    std::coroutine_handle<> handle = nullptr;

    bool await_ready() { return lm.TryAcquire(txn, granule, mode); }
    bool await_suspend(std::coroutine_handle<> h) {
      handle = h;
      return lm.Enqueue(txn, granule, mode, &outcome, {&Resume, this});
    }
    LockOutcome await_resume() const { return outcome; }
    /// Wake hook: resumes the coroutine on the site's timeline at delay 0.
    static void Resume(void* self);
  };

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    LockOutcome* outcome;
    WakeHook wake;
  };
  struct GranuleLock {
    std::vector<Holder> holders;
    std::deque<Waiter> queue;
  };

  // True if `txn` may be granted `mode` right now (ignoring queue fairness).
  bool CompatibleWithHolders(const GranuleLock& gl, TxnId txn,
                             LockMode mode) const;
  // Grants queued waiters that have become eligible (strict FIFO).
  void ProcessQueue(db::GranuleId granule);
  // Conflicting predecessors of a hypothetical/queued request.
  std::vector<TxnId> ConflictsOf(const GranuleLock& gl, TxnId txn,
                                 LockMode mode, std::size_t queue_limit) const;
  // DFS over the wait-for graph; returns the cycle through `start` (empty if
  // none), where `start` is about to wait for `first_hops`.
  std::vector<TxnId> FindCycle(TxnId start,
                               const std::vector<TxnId>& first_hops) const;
  TxnId ChooseVictim(TxnId requester, const std::vector<TxnId>& cycle) const;

  std::optional<sim::SitePort> sim_;  ///< unset for thread-blocking callers
  VictimPolicy victim_policy_ = VictimPolicy::kRequester;
  ConflictPolicy conflict_policy_ = ConflictPolicy::kWait;
  std::unordered_map<db::GranuleId, GranuleLock> table_;
  std::unordered_map<TxnId, std::unordered_map<db::GranuleId, LockMode>> held_;
  std::unordered_map<TxnId, db::GranuleId> waiting_on_;
  std::unordered_map<TxnId, double> birth_;
  std::size_t total_held_ = 0;

  std::uint64_t requests_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t local_deadlocks_ = 0;
  std::uint64_t cancelled_waits_ = 0;
  std::uint64_t conflict_aborts_ = 0;
};

}  // namespace carat::lock

#endif  // CARAT_LOCK_LOCK_MANAGER_H_
