#include "txn/probes.h"

#include <algorithm>

namespace carat::txn {

GlobalDeadlockDetector::GlobalDeadlockDetector(Node& node,
                                               const SiteRegistry& registry,
                                               int num_sites,
                                               ProbeTransport& transport,
                                               const Options& options)
    : node_(node),
      registry_(registry),
      num_sites_(num_sites),
      transport_(transport),
      options_(options) {}

void GlobalDeadlockDetector::OnBlock(GlobalTxnId waiter,
                                     const std::vector<GlobalTxnId>& holders) {
  // Local-only cycles are handled synchronously by the lock manager before
  // the waiter is enqueued. Probes must chase *every* waiting holder, not
  // just distributed ones: a global cycle may pass through a local
  // transaction (local -> distributed -> remote -> ... -> local), and the
  // unique-victim rule needs the cycle's highest-id member to launch its
  // own probe. Probes to holders that are not blocked die on evaluation.
  const int site = node_.index();
  for (const GlobalTxnId holder : holders) {
    if (HomeOf(holder) == site) {
      // The holder's coordinator is right here, so consult it before paying
      // for a message: a holder that is running at this node (not waiting)
      // cannot extend a wait chain, and its probe would die on arrival.
      const int current = registry_.CurrentNode(holder);
      if (current < 0) continue;  // already finished
      if (current == site && !node_.locks().IsWaiting(holder)) continue;
    }
    ++probes_sent_;
    Launch(waiter, site, holder, 0, std::max(waiter, holder));
  }
}

void GlobalDeadlockDetector::Launch(GlobalTxnId initiator, int initiator_site,
                                    GlobalTxnId target, int hops,
                                    GlobalTxnId max_id) {
  if (hops >= options_.max_hops) return;
  Probe probe;
  probe.initiator = initiator;
  probe.target = target;
  probe.max_id = max_id;
  probe.initiator_site = initiator_site;
  probe.hops = hops;
  // The target's home TM knows where the target currently operates.
  const int home = HomeOf(target);
  if (home != node_.index()) {
    transport_.ShipProbe(home, probe);
    return;
  }
  const int current = registry_.CurrentNode(target);
  if (current < 0) return;  // target finished: no cycle through it
  probe.stage = Probe::Stage::kEvaluate;
  Forward(current, probe);
}

void GlobalDeadlockDetector::Forward(int site, const Probe& probe) {
  if (site == node_.index()) {
    Receive(probe);
  } else {
    transport_.ShipProbe(site, probe);
  }
}

sim::Process GlobalDeadlockDetector::Receive(Probe probe) {
  lock::LockManager& lm = node_.locks();
  switch (probe.stage) {
    case Probe::Stage::kVictim:
      co_await node_.TmHandle(options_.probe_cpu_ms);
      // The victim may have been granted the lock or aborted in the
      // meantime; CancelWait is a no-op then and the watchdog re-detects if
      // needed.
      if (lm.CancelWait(probe.initiator)) ++global_deadlocks_;
      co_return;
    case Probe::Stage::kRelay: {
      co_await node_.TmHandle(options_.probe_cpu_ms);  // relay at the home TM
      const int current = registry_.CurrentNode(probe.target);
      if (current < 0) co_return;  // target finished: no cycle through it
      if (current != node_.index()) {
        probe.stage = Probe::Stage::kEvaluate;
        transport_.ShipProbe(current, probe);
        co_return;
      }
      break;  // the target operates here: evaluate at once
    }
    case Probe::Stage::kEvaluate:
      break;
  }
  co_await node_.TmHandle(options_.probe_cpu_ms);

  // Re-read the wait state after the delays: probes act on current truth.
  if (!lm.IsWaiting(probe.target)) co_return;
  for (const GlobalTxnId next : lm.WaitingFor(probe.target)) {
    if (next == probe.initiator) {
      // Cycle. Only the cycle's highest-id member declares the deadlock, so
      // simultaneous probes around the same cycle agree on one victim; the
      // suppressed probes rely on the winner (or the watchdog) acting.
      if (probe.initiator >= probe.max_id) {
        Probe victim = probe;
        victim.stage = Probe::Stage::kVictim;
        Forward(probe.initiator_site, victim);
      }
      co_return;
    }
    // Keep chasing: `next` may be blocked at this or another node. Purely
    // local segments were already covered by local detection - but a chain
    // local -> distributed -> remote still needs the probe, so follow all.
    ++probes_sent_;
    Launch(probe.initiator, probe.initiator_site, next, probe.hops + 1,
           std::max(probe.max_id, next));
  }
}

sim::Process GlobalDeadlockDetector::Watchdog() {
  lock::LockManager& lm = node_.locks();
  for (;;) {
    co_await sim::Delay{node_.simulation(), options_.reprobe_interval_ms};
    // Re-launch probes for every transaction still blocked at this site;
    // stale probes die harmlessly, persistent global cycles are found.
    // WaitingTxns() is sorted, so the sweep order is deterministic.
    for (const GlobalTxnId waiter : lm.WaitingTxns()) {
      if (!lm.IsWaiting(waiter)) continue;
      OnBlock(waiter, lm.WaitingFor(waiter));
    }
  }
}

void GlobalDeadlockDetector::StartWatchdog() { Watchdog(); }

}  // namespace carat::txn
