// One CARAT site as a real-time protocol engine.
//
// SiteEngine hosts everything a site process owns, as coroutines on the
// site's real-time event loop (dist/runtime.h): one txn::Node, the
// testbed's per-site runtime (TM server, CPU and disks, DM pool, database,
// before-image journal, 2PL lock table), plus the resident users homed
// here, the slave-side handlers for remote requests and 2PC legs, and the
// probe logic for global deadlock detection. A site's cost structure is
// therefore defined once, in txn::Node, for both clocks, and a distributed
// run is cross-checkable against the in-process RunTestbed reference. What
// stays this engine's own is the transaction flow around the node: plan
// building, the coordinator's REMDO/PREPARE/COMMIT/TABORT rounds as wire
// messages, and the probe journeys between processes. All engine-internal
// times are *virtual* milliseconds.
//
// The engine is transport agnostic: outgoing mesh messages go through a
// Sender callback, called on the loop thread; incoming ones reach
// HandleMessage on any thread, which posts them to the loop.
//
// Global transaction ids encode the home site (gid = seq * num_sites +
// home), matching the in-process registry, so any site can route a probe
// toward a transaction's home without a directory lookup.

#ifndef CARAT_DIST_ENGINE_H_
#define CARAT_DIST_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "dist/runtime.h"
#include "dist/wire.h"
#include "lock/lock_manager.h"
#include "model/params.h"
#include "sim/process.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "txn/node.h"
#include "util/random.h"
#include "util/stats.h"

namespace carat::dist {

/// Per-transaction-type counters a site reports (home-site accounting, as
/// in the in-process testbed). Sums, not means, so the coordinator can
/// aggregate across sites exactly.
struct TypeCounters {
  bool present = false;
  std::uint64_t commits = 0;
  std::uint64_t submissions = 0;
  std::uint64_t aborts = 0;
  std::uint64_t records_committed = 0;
  double response_sum_vms = 0.0;     ///< sum of commit-cycle times
  double lock_wait_sum_vms = 0.0;    ///< per-cycle LW sums
  double remote_wait_sum_vms = 0.0;  ///< per-cycle RW sums
  double commit_wait_sum_vms = 0.0;  ///< per-cycle CW sums
};

/// Everything one site measures over a window, in virtual milliseconds.
struct EngineReport {
  double measured_vms = 0.0;
  double cpu_busy_vms = 0.0;
  double db_busy_vms = 0.0;
  double log_busy_vms = 0.0;
  std::uint64_t dio = 0;  ///< block I/O completions (db + log disks)
  std::uint64_t lock_requests = 0;
  /// Requests not grantable at once, counted before the local cycle check
  /// as in the testbed, so conflicts that end in a local-deadlock abort
  /// count too (the distributed count used to leave them out).
  std::uint64_t lock_blocks = 0;
  std::uint64_t local_deadlocks = 0;
  std::uint64_t cancelled_waits = 0;
  std::uint64_t global_deadlocks = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t dm_pool_waits = 0;
  std::uint64_t ext_commits = 0;  ///< load-generator transactions
  std::uint64_t ext_aborts = 0;
  bool drained = false;
  bool audit_ok = false;
  std::array<TypeCounters, model::kNumTxnTypes> types;

  std::string Encode() const;  ///< REPORT key=value payload
  static bool Decode(std::string_view body, EngineReport* out);
};

struct EngineOptions {
  int site = 0;
  int num_sites = 1;
  double scale = 0.1;  ///< real ms per virtual ms
  std::uint64_t seed = 1;
  bool spawn_users = true;
  double probe_cpu_ms = 1.0;
  double reprobe_interval_vms = 200.0;
  /// Probe journeys longer than this are dropped (the watchdog retries).
  /// Wait chains under heavy contention can be long: FIFO queues make the
  /// waits-for graph deep, and each cycle member costs up to two hops (home
  /// routing + evaluation).
  int max_probe_hops = 64;
};

class SiteEngine {
 public:
  /// Ships `body` (a wire payload, verb first) to site `to`; never invoked
  /// with to == this site. Called on the loop thread only.
  using Sender = std::function<void(int to, const std::string& body)>;

  /// Receives an external transaction's TXN_K payload, on the loop thread.
  using TxnDone = std::function<void(const std::string& reply)>;

  /// Builds the site and starts its loop: remote requests may arrive from
  /// peers before or after Start.
  SiteEngine(const model::ModelInput& input, const EngineOptions& options,
             Sender sender);
  ~SiteEngine();

  SiteEngine(const SiteEngine&) = delete;
  SiteEngine& operator=(const SiteEngine&) = delete;

  // The control calls below block the calling thread (never the loop's)
  // until the loop has run them; after Stop they do nothing.

  /// Spawns the resident users (if configured) and the re-probe watchdog.
  void Start();

  /// Zeroes the measurement counters; called at the end of warm-up.
  void ResetStats();

  /// Signals resident users to stop at their next commit-cycle boundary and
  /// waits until they have. The measured window ends when the last one
  /// stops.
  void StopUsers();

  /// Waits until no slave legs or external transactions remain in flight
  /// (all peers must have stopped submitting first). False on timeout.
  bool Drain(double timeout_real_ms);

  /// Runs the end-of-run audit and gathers the report. Call after Drain.
  EngineReport Collect();

  /// Stops the loop and ends every coroutine still parked on it. The engine
  /// is inert afterwards.
  void Stop();

  /// Dispatches one incoming mesh payload. Thread-safe; never blocks on the
  /// loop.
  void HandleMessage(int from, std::string body);

  /// Runs one client-submitted transaction to commit (retrying aborts like
  /// a resident user), then hands the TXN_K payload to `done`. Thread-safe;
  /// never blocks on the loop.
  void SubmitExternalTxn(std::string_view type_token, int requests,
                         TxnDone done);

  int site() const { return options_.site; }

  /// One-line-per-fact dump of the engine's wait state (lock waits and
  /// their wait-for edges, in-flight coordinator rounds with phase and age,
  /// resident slave legs, external transactions, per-verb message counts,
  /// and the work queued on the loop) for diagnosing a stuck distributed
  /// run; the coordinator requests it via the DUMP control verb when a site
  /// misses a protocol deadline. Bounded wait: a loop that does not answer
  /// is reported as such.
  std::string DebugSnapshot();

 private:
  using PhaseAccounting = txn::Node::PhaseAccounting;

  /// A resident user TR process and its measurement counters.
  struct UserDriver {
    model::TxnType type = model::TxnType::kLRO;
    util::Rng rng{0};
    std::uint64_t commits = 0;
    std::uint64_t submissions = 0;
    std::uint64_t aborts = 0;
    bool attempting = false;  ///< an attempt is submitted and not yet ended
    std::uint64_t records_committed = 0;
    util::StatAccumulator response_vms;
    util::StatAccumulator lock_wait_vms;
    util::StatAccumulator remote_wait_vms;
    util::StatAccumulator commit_wait_vms;
  };

  /// Coordinator-side registry entry for an in-flight transaction homed
  /// here: the reply round it waits in, plus the current node for probe
  /// routing.
  struct CoordTxn {
    model::TxnType type = model::TxnType::kLRO;
    int current_node = 0;
    sim::Gate* round = nullptr;  ///< open reply round, null between rounds
    bool remdo_ok = true;
    /// Which round the coordinator waits in ("remdo", "prepare", "commit",
    /// "tabort") and since when: names the message a stuck transaction is
    /// waiting for in a DebugSnapshot.
    const char* phase = "run";
    double phase_start_vms = 0.0;
  };

  /// Per-site state of one transaction (the home part of a local
  /// coordinator, or a slave leg of a remote one). Rollback data lives in
  /// the node's journal; `updated` is the commit-time audit credit.
  struct LocalTxnState {
    model::TxnType coord_type = model::TxnType::kLRO;
    std::vector<db::RecordId> updated;
  };

  const model::SiteParams& params() const {
    return input_.sites[options_.site];
  }
  const model::ClassParams& HomeCosts(model::TxnType t) const {
    return params().Class(t);
  }
  const model::ClassParams& SlaveCosts(model::TxnType coord_type) const {
    return params().Class(model::SlaveOf(coord_type));
  }

  double NowVms() const { return node_.simulation().now(); }
  void Send(int to, const std::string& body);

  // --- transaction lifecycle (home side) -----------------------------------
  std::uint64_t NewGid(model::TxnType type);
  void SetCurrentNode(std::uint64_t gid, int node);

  sim::Process UserProcess(UserDriver* driver);
  sim::Process ExternalTxn(model::TxnType type, int local_requests,
                           int remote_requests, TxnDone done);
  std::vector<txn::RequestSpec> BuildPlan(model::TxnType type,
                                          int local_requests,
                                          int remote_requests,
                                          int records_per_request,
                                          util::Rng* rng);
  // Coroutine parameters are references to the awaiting frame's named
  // locals, never temporaries of class type: GCC 12 has been seen to
  // destroy such a temporary inside a co_await expression twice.
  sim::Task<bool> RunOnce(model::TxnType type, std::uint64_t gid,
                          const std::vector<txn::RequestSpec>& plan,
                          PhaseAccounting* acct);
  sim::Task<void> Round(std::uint64_t gid, const char* phase,
                        const std::vector<int>& sites, const std::string& body);
  sim::Task<void> Commit2pc(std::uint64_t gid, model::TxnType type,
                            const std::vector<int>& slaves,
                            PhaseAccounting* acct);
  sim::Task<void> GlobalAbort(std::uint64_t gid, model::TxnType type,
                              int victim_node,
                              const std::vector<bool>& touched);

  // --- per-site execution (home part and slave legs) -----------------------
  sim::Task<bool> ExecuteHere(std::uint64_t gid,
                              const model::ClassParams& costs,
                              const txn::RequestSpec& request,
                              PhaseAccounting* acct);
  void CreditCommitted(std::uint64_t gid);
  void Vacate(std::uint64_t gid);

  // --- slave-side handlers and replies --------------------------------------
  void Dispatch(int from, const std::string& body);
  sim::Process Remdo(int from, std::uint64_t gid, model::TxnType coord_type,
                     std::vector<db::RecordId> records);
  sim::Process Prepare(int from, std::uint64_t gid);
  sim::Process CommitLeg(int from, std::uint64_t gid);
  sim::Process Tabort(int from, std::uint64_t gid);
  sim::Process LegReply(std::uint64_t gid);
  void SignalRound(std::uint64_t gid);

  // --- global deadlock probes ----------------------------------------------
  sim::Process OnBlock(lock::TxnId waiter, std::vector<lock::TxnId> holders);
  sim::Task<void> ProbeHolders(lock::TxnId waiter,
                               const std::vector<lock::TxnId>& holders);
  sim::Process Probe(std::uint64_t initiator, int initiator_site,
                     std::uint64_t target, int hops, std::uint64_t max_gid);
  sim::Task<void> HandleProbe(std::uint64_t initiator, int initiator_site,
                              std::uint64_t target, int hops,
                              std::uint64_t max_gid);
  void SendProbe(int to, std::uint64_t initiator, int initiator_site,
                 std::uint64_t target, int hops, std::uint64_t max_gid);
  sim::Process Watchdog();

  std::string Snapshot();

  int HomeOf(std::uint64_t gid) const {
    return static_cast<int>(gid % static_cast<std::uint64_t>(
                                      options_.num_sites));
  }

  const model::ModelInput input_;
  const EngineOptions options_;
  Sender sender_;

  // Declared before every object the loop's coroutines touch, so those are
  // still alive when the destructor's Stop ends the coroutines.
  RtSiteLoop loop_;
  txn::Node node_;

  // Everything below is touched only on the loop thread.
  std::vector<std::uint64_t> shadow_;  ///< committed increments per record
  std::unordered_map<std::uint64_t, LocalTxnState> local_;
  std::unordered_map<std::uint64_t, CoordTxn> coord_txns_;
  std::uint64_t next_seq_ = 0;

  std::vector<std::unique_ptr<UserDriver>> drivers_;
  int live_users_ = 0;
  bool stop_users_ = false;

  util::Rng ext_rng_{0};
  int ext_active_ = 0;
  std::uint64_t ext_commits_ = 0;
  std::uint64_t ext_aborts_ = 0;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t global_deadlocks_ = 0;

  /// Per-verb send/receive counters (diagnostic): comparing one site's tx
  /// row against the peer's rx row in paired DebugSnapshots shows whether a
  /// missing protocol step was lost in transit or stalled after delivery.
  /// rx counts on arrival, on the receiving thread.
  static constexpr int kNumVerbs = 11;
  static int VerbIndex(std::string_view verb);
  static const char* VerbName(int index);
  std::array<std::uint64_t, kNumVerbs> tx_verbs_{};
  std::array<std::atomic<std::uint64_t>, kNumVerbs> rx_verbs_{};

  double window_start_vms_ = 0.0;
  double window_end_vms_ = 0.0;
};

}  // namespace carat::dist

#endif  // CARAT_DIST_ENGINE_H_
