#include "lock/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace carat::lock {

namespace {

bool Conflicts(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

}  // namespace

void LockManager::StartTxn(TxnId txn) { birth_.emplace(txn, sim_.now()); }

void LockManager::EndTxn(TxnId txn) {
  assert(!held_.contains(txn) || held_.at(txn).empty());
  assert(!waiting_on_.contains(txn));
  held_.erase(txn);
  birth_.erase(txn);
}

bool LockManager::CompatibleWithHolders(const GranuleLock& gl, TxnId txn,
                                        LockMode mode) const {
  for (const Holder& h : gl.holders) {
    if (h.txn == txn) continue;  // own locks never conflict
    if (Conflicts(h.mode, mode)) return false;
  }
  return true;
}

bool LockManager::TryAcquire(TxnId txn, db::GranuleId granule, LockMode mode) {
  ++requests_;
  GranuleLock& gl = table_[granule];
  const auto held_it = held_.find(txn);
  const bool already_holds =
      held_it != held_.end() && held_it->second.contains(granule);
  if (already_holds) {
    const LockMode held_mode = held_it->second.at(granule);
    if (held_mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;  // re-entrant, strong enough
    }
    // Upgrade S -> X: allowed immediately only as the sole holder.
    if (gl.holders.size() == 1 && CompatibleWithHolders(gl, txn, mode)) {
      for (Holder& h : gl.holders)
        if (h.txn == txn) h.mode = LockMode::kExclusive;
      held_[txn][granule] = LockMode::kExclusive;
      return true;
    }
    return false;
  }
  // FIFO fairness: new requests queue behind existing waiters.
  if (!gl.queue.empty()) return false;
  if (!CompatibleWithHolders(gl, txn, mode)) return false;
  gl.holders.push_back(Holder{txn, mode});
  held_[txn][granule] = mode;
  ++total_held_;
  return true;
}

std::vector<TxnId> LockManager::ConflictsOf(const GranuleLock& gl, TxnId txn,
                                            LockMode mode,
                                            std::size_t queue_limit) const {
  std::vector<TxnId> out;
  for (const Holder& h : gl.holders) {
    if (h.txn != txn && Conflicts(h.mode, mode)) out.push_back(h.txn);
  }
  for (std::size_t i = 0; i < queue_limit && i < gl.queue.size(); ++i) {
    const Waiter& w = gl.queue[i];
    if (w.txn != txn && Conflicts(w.mode, mode)) out.push_back(w.txn);
  }
  return out;
}

std::vector<TxnId> LockManager::WaitingFor(TxnId txn) const {
  const auto it = waiting_on_.find(txn);
  if (it == waiting_on_.end()) return {};
  const auto gl_it = table_.find(it->second);
  if (gl_it == table_.end()) return {};
  const GranuleLock& gl = gl_it->second;
  // Position of txn in the queue: it waits for holders and earlier waiters.
  std::size_t pos = 0;
  while (pos < gl.queue.size() && gl.queue[pos].txn != txn) ++pos;
  const LockMode mode =
      pos < gl.queue.size() ? gl.queue[pos].mode : LockMode::kExclusive;
  return ConflictsOf(gl, txn, mode, pos);
}

std::vector<TxnId> LockManager::FindCycle(
    TxnId start, const std::vector<TxnId>& first_hops) const {
  // Iterative DFS following wait-for edges; a path back to `start` is a
  // deadlock cycle. The graph is tiny (bounded by the multiprogramming
  // level), so no optimization is needed.
  std::vector<TxnId> path;
  std::unordered_set<TxnId> visited;

  struct Frame {
    std::vector<TxnId> targets;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{first_hops, 0});
  path.push_back(start);

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.targets.size()) {
      stack.pop_back();
      path.pop_back();
      continue;
    }
    const TxnId next = frame.targets[frame.next++];
    if (next == start) {
      return path;  // cycle: start -> ... -> back to start
    }
    if (!visited.insert(next).second) continue;
    path.push_back(next);
    stack.push_back(Frame{WaitingFor(next), 0});
  }
  return {};
}

TxnId LockManager::ChooseVictim(TxnId requester,
                                const std::vector<TxnId>& cycle) const {
  if (victim_policy_ == VictimPolicy::kRequester) return requester;
  // Age-based policies may only pick members that are actually waiting (the
  // requester counts: it is about to wait).
  TxnId victim = requester;
  double victim_birth = birth_.contains(requester) ? birth_.at(requester) : 0;
  for (TxnId t : cycle) {
    if (t != requester && !waiting_on_.contains(t)) continue;
    const double b = birth_.contains(t) ? birth_.at(t) : 0;
    const bool better = victim_policy_ == VictimPolicy::kYoungest
                            ? b > victim_birth
                            : b < victim_birth;
    if (better) {
      victim = t;
      victim_birth = b;
    }
  }
  return victim;
}

LockManager::AcquireAwaiter LockManager::Acquire(TxnId txn,
                                                 db::GranuleId granule,
                                                 LockMode mode) {
  return AcquireAwaiter{*this, txn, granule, mode};
}

void LockManager::Wake(const Waiter& waiter, LockOutcome outcome) {
  *waiter.outcome = outcome;
  sim_.Schedule(0.0, waiter.handle);
}

bool LockManager::Enqueue(TxnId txn, db::GranuleId granule, LockMode mode,
                          LockOutcome* outcome,
                          std::coroutine_handle<> handle) {
  ++blocks_;
  GranuleLock& gl = table_[granule];

  if (conflict_policy_ == ConflictPolicy::kAbortRequester) {
    // No-waiting: a conflict aborts the requester on the spot. Nothing is
    // ever enqueued, so the wait-for graph stays empty.
    ++conflict_aborts_;
    *outcome = LockOutcome::kAborted;
    return false;
  }
  if (conflict_policy_ == ConflictPolicy::kWaitDie) {
    // Wait-die: wait only when older (smaller id) than every conflicting
    // holder and queued predecessor; otherwise die. The set a waiter
    // depends on never grows while it is queued (new requests join behind
    // it), so this enqueue-time check covers the wait's whole lifetime.
    for (const TxnId other : ConflictsOf(gl, txn, mode, gl.queue.size())) {
      if (other < txn) {
        ++conflict_aborts_;
        *outcome = LockOutcome::kAborted;
        return false;
      }
    }
    gl.queue.push_back(Waiter{txn, mode, outcome, handle});
    waiting_on_[txn] = granule;
    ProcessQueue(granule);
    return true;
  }

  // Local deadlock check before enqueuing: would this wait close a cycle?
  const std::vector<TxnId> hops = ConflictsOf(gl, txn, mode, gl.queue.size());
  const std::vector<TxnId> cycle = FindCycle(txn, hops);
  if (!cycle.empty()) {
    ++local_deadlocks_;
    const TxnId victim = ChooseVictim(txn, cycle);
    if (victim == txn) {
      *outcome = LockOutcome::kAborted;
      return false;  // resume immediately, aborted
    }
    // Kill another waiting cycle member, then wait normally below.
    CancelWait(victim);
  }

  gl.queue.push_back(Waiter{txn, mode, outcome, handle});
  waiting_on_[txn] = granule;
  if (on_block) on_block(txn, WaitingFor(txn));
  // The cancelled victim (if any) may already have unblocked this granule.
  ProcessQueue(granule);
  return true;
}

void LockManager::ProcessQueue(db::GranuleId granule) {
  auto it = table_.find(granule);
  if (it == table_.end()) return;
  GranuleLock& gl = it->second;
  // Strict FIFO: grant from the front while the head is compatible.
  while (!gl.queue.empty()) {
    Waiter& w = gl.queue.front();
    if (!CompatibleWithHolders(gl, w.txn, w.mode)) break;
    // Upgrade case: already a holder of this granule.
    auto& held = held_[w.txn];
    const auto held_it = held.find(granule);
    if (held_it != held.end()) {
      held_it->second = LockMode::kExclusive;
      for (Holder& h : gl.holders)
        if (h.txn == w.txn) h.mode = LockMode::kExclusive;
    } else {
      gl.holders.push_back(Holder{w.txn, w.mode});
      held[granule] = w.mode;
      ++total_held_;
    }
    const TxnId granted = w.txn;
    waiting_on_.erase(granted);
    Wake(w, LockOutcome::kGranted);
    gl.queue.pop_front();
    if (on_unblock) on_unblock(granted);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  assert(!waiting_on_.contains(txn) && "release while waiting");
  const auto it = held_.find(txn);
  if (it == held_.end()) return;
  std::vector<db::GranuleId> granules;
  granules.reserve(it->second.size());
  for (const auto& [granule, mode] : it->second) granules.push_back(granule);
  it->second.clear();
  for (db::GranuleId granule : granules) {
    GranuleLock& gl = table_[granule];
    for (auto h = gl.holders.begin(); h != gl.holders.end(); ++h) {
      if (h->txn == txn) {
        gl.holders.erase(h);
        --total_held_;
        break;
      }
    }
    ProcessQueue(granule);
    if (gl.holders.empty() && gl.queue.empty()) table_.erase(granule);
  }
}

bool LockManager::CancelWait(TxnId txn) {
  const auto it = waiting_on_.find(txn);
  if (it == waiting_on_.end()) return false;
  const db::GranuleId granule = it->second;
  GranuleLock& gl = table_[granule];
  for (auto w = gl.queue.begin(); w != gl.queue.end(); ++w) {
    if (w->txn != txn) continue;
    Wake(*w, LockOutcome::kAborted);
    gl.queue.erase(w);
    waiting_on_.erase(txn);
    ++cancelled_waits_;
    if (on_unblock) on_unblock(txn);
    // Removing a queued conflict may unblock the remaining head.
    ProcessQueue(granule);
    return true;
  }
  assert(false && "waiting_on_ out of sync with queue");
  return false;
}

std::vector<TxnId> LockManager::WaitingTxns() const {
  std::vector<TxnId> out;
  out.reserve(waiting_on_.size());
  for (const auto& [txn, granule] : waiting_on_) out.push_back(txn);
  std::sort(out.begin(), out.end());
  return out;
}

bool LockManager::Holds(TxnId txn, db::GranuleId granule, LockMode mode) const {
  const auto it = held_.find(txn);
  if (it == held_.end()) return false;
  const auto g = it->second.find(granule);
  if (g == it->second.end()) return false;
  return mode == LockMode::kShared || g->second == LockMode::kExclusive;
}

std::size_t LockManager::HeldCount(TxnId txn) const {
  const auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

void LockManager::ResetStats() {
  requests_ = 0;
  blocks_ = 0;
  local_deadlocks_ = 0;
  cancelled_waits_ = 0;
  conflict_aborts_ = 0;
}

}  // namespace carat::lock
