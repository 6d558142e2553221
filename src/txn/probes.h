// Global deadlock detection by edge-chasing probes, after Chandy-Misra-Haas
// (the variation used by the CARAT testbed).
//
// When a lock request blocks, the local detector first searches the local
// wait-for graph (lock/lock_manager.h). Probes are then launched along the
// cross-site wait chain. Every piece of state a probe consults is site-local,
// so a probe is a *journey* of per-site steps: it routes to the target's
// home TM (whose SiteRegistry knows where the target currently operates),
// moves on to that node, and evaluates the wait state there; if the chain
// closes back on the initiator, a global deadlock exists and the initiator
// is aborted (its lock wait is cancelled at the node where it blocked, and
// its driver rolls the transaction back everywhere).
//
// One GlobalDeadlockDetector serves one site. A step that must continue at
// another site hands the Probe to a ProbeTransport, which is the only thing
// that differs between the runtimes: the in-process testbed sends it over
// the simulated network to the destination's detector; a carat_sited ships
// a PROBE or VICTIM message. Either way the receiver calls Receive. Every inter-site hop pays the network delay, and the TM
// that relays or evaluates a probe pays a small CPU cost. A per-site
// watchdog re-probes long-blocked transactions so that detection cannot be
// lost to in-flight races (probes that raced with wait-graph changes).

#ifndef CARAT_TXN_PROBES_H_
#define CARAT_TXN_PROBES_H_

#include <cstdint>
#include <vector>

#include "sim/process.h"
#include "txn/node.h"
#include "txn/registry.h"

namespace carat::txn {

/// One probe message. The chain's running max id travels along: when a
/// cycle closes, only the probe whose initiator *is* that maximum declares
/// the deadlock, so concurrent probes around one cycle kill exactly one
/// victim (the standard uniqueness convention for edge-chasing detectors).
struct Probe {
  enum class Stage : std::uint8_t {
    kRelay,     ///< at the target's home TM: look up its current node
    kEvaluate,  ///< at the target's current node: read its wait state
    kVictim,    ///< at the initiator's blocking node: cancel its wait
  };
  GlobalTxnId initiator = 0;
  GlobalTxnId target = 0;
  GlobalTxnId max_id = 0;
  int initiator_site = 0;
  int hops = 0;  ///< chain links followed so far
  Stage stage = Stage::kRelay;
};

/// How a probe reaches another site.
class ProbeTransport {
 public:
  /// Delivers `probe` to the detector of `site` (never the sender's own).
  virtual void ShipProbe(int site, const Probe& probe) = 0;

 protected:
  ~ProbeTransport() = default;
};

class GlobalDeadlockDetector {
 public:
  struct Options {
    /// CPU charged at each node that relays or evaluates a probe.
    double probe_cpu_ms = 1.0;
    /// Watchdog period for re-probing long-blocked transactions. The
    /// on-block probes catch cycles as their closing edge forms; the
    /// watchdog only covers probe/edge races, so it can be lazy.
    double reprobe_interval_ms = 200.0;
    /// Chain links per probe (bounds runaway chains; cycles in real
    /// workloads are short — the paper restricts its *model* to 2-cycles).
    int max_hops = 16;
  };

  /// The detector of `node`'s site. `registry` is that site's home slice
  /// (the current-node directory for transactions homed here); global ids
  /// encode their home as gid % num_sites.
  GlobalDeadlockDetector(Node& node, const SiteRegistry& registry,
                         int num_sites, ProbeTransport& transport,
                         const Options& options);

  /// Hook for LockManager::on_block: `waiter` just blocked here behind
  /// `holders`. Launches a probe per holder, except for holders homed here
  /// that provably cannot extend a chain (finished, or running here and not
  /// waiting: their probe would die on arrival, so it is never sent — this
  /// is what keeps purely local workloads nearly probe-free).
  void OnBlock(GlobalTxnId waiter, const std::vector<GlobalTxnId>& holders);

  /// Starts this site's re-probe watchdog (once, after wiring the node).
  void StartWatchdog();

  /// Runs the step `probe` names at this site, as a new process: a probe
  /// that arrived from another site, or one launched here.
  sim::Process Receive(Probe probe);

  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t global_deadlocks() const { return global_deadlocks_; }
  void ResetStats() { probes_sent_ = global_deadlocks_ = 0; }

 private:
  int HomeOf(GlobalTxnId gid) const {
    return static_cast<int>(gid % static_cast<GlobalTxnId>(num_sites_));
  }
  // Probes `target` on behalf of `initiator` from this site: routes via the
  // target's home unless that is here.
  void Launch(GlobalTxnId initiator, int initiator_site, GlobalTxnId target,
              int hops, GlobalTxnId max_id);
  // Runs `probe` here, or ships it to `site`.
  void Forward(int site, const Probe& probe);
  sim::Process Watchdog();

  Node& node_;
  const SiteRegistry& registry_;
  const int num_sites_;
  ProbeTransport& transport_;
  const Options options_;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t global_deadlocks_ = 0;
};

}  // namespace carat::txn

#endif  // CARAT_TXN_PROBES_H_
