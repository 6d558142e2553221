// The CARAT transaction protocol, written once for both runtimes.
//
// SiteProtocol is one site's share of the testbed's transaction flow (paper
// Section 2): the resident user TR cycle with restart backoff and plan
// building; the home side of an attempt (INIT, per-request U and TM routing,
// REMDO function shipping, TEND, local commit or centralized two-phase
// commit, the global abort, and the queue backend's upfront lock plan); and
// the four slave steps a coordinator ships to another site (REMDO, PREPARE,
// COMMIT, T_ABORT), each a coroutine over the site's txn::Node that runs
// from the slave's inbound TM charge to its outbound one. The site's probe
// detector (txn/probes.h) rides along, wired to the lock table for 2PL.
//
// The runtimes differ only behind Runtime, one seam per leg and per probe
// hop:
//   - the in-process testbed (carat/testbed.cc) runs a leg as a network hop
//     to the slave, the slave's Serve, and a hop back home, all one
//     coroutine in virtual time, and sends a probe over the simulated
//     network;
//   - a carat_sited (dist/engine.cc) ships the leg as a wire message and
//     waits for the reply, while the peer's dispatcher runs the same Serve.
// Measurement is the runtime's own: it owns the UserDriver counters and
// hears about each commit point through Runtime::CommitPoint.

#ifndef CARAT_TXN_PROTOCOL_H_
#define CARAT_TXN_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "model/params.h"
#include "sim/task.h"
#include "txn/node.h"
#include "txn/probes.h"
#include "txn/registry.h"
#include "util/random.h"
#include "util/stats.h"

namespace carat::txn {

/// One coordinator -> slave message; the slave answers home when its step
/// is done.
struct Leg {
  enum class Kind : std::uint8_t { kRemdo, kPrepare, kCommit, kAbort };
  Kind kind = Kind::kRemdo;
  GlobalTxnId gid = 0;
  model::TxnType type = model::TxnType::kLRO;  ///< the coordinator's type
  int home = 0;  ///< coordinator site
  int node = 0;  ///< slave site
  // REMDO only. The pointees outlive the leg: they live in the sender's
  // frame in process, or in the receiver's decoded copy over the wire.
  bool first = false;  ///< first request there: assign a slave DM first
  const RequestSpec* request = nullptr;
  /// Queue backend, first request there: every record the plan touches at
  /// the slave, whose granules the step locks up front. Null otherwise.
  const std::vector<db::RecordId>* upfront = nullptr;
};

/// What differs between the in-process testbed and a carat_sited.
class Runtime : public ProbeTransport {
 public:
  /// Carries `leg` from its home to leg.node, runs the slave's
  /// SiteProtocol::Serve there, and returns home with the step's result.
  virtual sim::Task<bool> Ship(const Leg& leg) = 0;

  /// The coordinator just logged the commit record of a transaction that
  /// ran `plan` (the 2PC decision point). Measurement only.
  virtual void CommitPoint(const std::vector<RequestSpec>& plan) = 0;

 protected:
  ~Runtime() = default;
};

/// A resident user TR process and its measurement counters. Only its home
/// site touches it.
struct UserDriver {
  int home = 0;
  model::TxnType type = model::TxnType::kLRO;
  util::Rng rng{0};
  // Round-robin cursor over the other nodes for remote requests. Persists
  // across submissions: restarting at 0 every plan sent every remote
  // request in the system to the lowest-numbered other nodes, invisible at
  // the paper's 2 nodes (there is only one) but badly skewed at 16.
  int remote_rr = 0;
  bool attempting = false;  ///< an attempt is submitted and not yet ended

  std::uint64_t commits = 0;
  std::uint64_t submissions = 0;  ///< attempts, counted as they start
  std::uint64_t aborts = 0;
  std::uint64_t records_committed = 0;
  util::StatAccumulator response_ms;
  // Per-commit-cycle synchronization times, mirroring the model's LW/RW/CW
  // delay-center demands.
  util::StatAccumulator lock_wait_ms;
  util::StatAccumulator remote_wait_ms;
  util::StatAccumulator commit_wait_ms;

  void ResetStats();
};

class SiteProtocol {
 public:
  /// The protocol of `node`'s site. Sets the lock table's conflict policy
  /// for the input's cc backend and, for 2PL (the only backend whose waits
  /// can close a cycle), wires its on_block hook to the probe detector.
  SiteProtocol(const model::ModelInput& input, Node& node,
               Runtime& runtime);
  SiteProtocol(const SiteProtocol&) = delete;
  SiteProtocol& operator=(const SiteProtocol&) = delete;

  int site() const { return node_.index(); }
  /// The current-node directory of the transactions homed here.
  const SiteRegistry& registry() const { return registry_; }
  GlobalDeadlockDetector& detector() { return detector_; }

  /// Starts the probe watchdog (2PL only; no-op otherwise).
  void StartWatchdog();

  /// The user TR cycle: think, submit, retry aborted attempts (after a
  /// restart backoff for the restart-oriented backends) until one commits,
  /// record the cycle, repeat. With `stop`, a set flag ends the loop at the
  /// next cycle boundary, or abandons the cycle at its next retry.
  sim::Task<void> RunUser(UserDriver* u, const bool* stop);

  /// The requests of one submission: `local` local and `remote` remote
  /// requests, interleaved, each reading (or updating) `records_per_request`
  /// fresh records at its executing node; remote nodes round-robin from
  /// `*remote_rr` over the other sites.
  std::vector<RequestSpec> BuildPlan(model::TxnType type, int local,
                                     int remote, int records_per_request,
                                     int* remote_rr, util::Rng* rng) const;

  /// One execution attempt of `plan` by a `type` transaction homed here;
  /// true on commit, false if it was aborted. The queue backend reorders
  /// `plan`. Stores the attempt's global id in `*gid` when given.
  sim::Task<bool> Attempt(model::TxnType type, std::vector<RequestSpec>& plan,
                          Node::PhaseAccounting* acct, GlobalTxnId* gid);

  /// Runs the slave step `leg` names at this site; the result is REMDO's
  /// success (false: the slave was a deadlock victim, rolled back and
  /// vacated the node), true for the other steps.
  sim::Task<bool> Serve(const Leg& leg);

 private:
  const model::ClassParams& HomeCosts(model::TxnType type) const {
    return node_.params().Class(type);
  }
  sim::Task<void> Commit(GlobalTxnId gid, model::TxnType type,
                         const std::vector<bool>& touched,
                         const std::vector<RequestSpec>& plan,
                         Node::PhaseAccounting* acct);
  sim::Task<void> GlobalAbort(GlobalTxnId gid, model::TxnType type,
                              int victim_node,
                              const std::vector<bool>& touched);
  /// A PREPARE, COMMIT or T_ABORT leg to slave `node`, then the reply's
  /// handling by the home TM.
  sim::Task<void> LegAndReply(Leg::Kind kind, GlobalTxnId gid,
                              model::TxnType type, int node);
  void Vacate(GlobalTxnId gid);

  const model::ModelInput& input_;
  Node& node_;
  Runtime& runtime_;
  SiteRegistry registry_;
  GlobalDeadlockDetector detector_;
};

}  // namespace carat::txn

#endif  // CARAT_TXN_PROTOCOL_H_
