// One CARAT site as a real-time protocol engine.
//
// SiteEngine hosts everything a site process owns: the site's database with
// per-transaction before-image journaling, the 2PL lock table (the
// simulation's lock::LockManager behind the thread-blocking RtLockFront),
// the serialized TM server, the CPU / database-disk / log-disk resources
// (reservation-ledger FCFS, see dist/runtime.h), the resident user TR
// threads homed here, the slave-side handlers for remote requests and 2PC
// legs, and the probe logic for global deadlock detection. It is transport
// agnostic: outgoing mesh messages go through a Sender callback and incoming
// ones are fed to HandleMessage by the site daemon (on worker-pool threads —
// handlers block on locks and resources).
//
// The phase cost structure mirrors carat/testbed.cc visit by visit (INIT,
// U, TM routing, request execution, REMDO round trips, centralized 2PC with
// forced log writes, rollback, UL) so a distributed run is cross-checkable
// against the in-process RunTestbed reference: both implement the same
// protocol over the same cost tables and the same lock table, one in
// virtual time, one in scaled real time. All engine-internal times are
// *virtual* milliseconds.
//
// Global transaction ids encode the home site (gid = seq * num_sites +
// home), matching the in-process registry, so any site can route a probe
// toward a transaction's home without a directory lookup.

#ifndef CARAT_DIST_ENGINE_H_
#define CARAT_DIST_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "dist/runtime.h"
#include "dist/wire.h"
#include "model/params.h"
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
  /// with to == this site. Must be thread-safe.
  using Sender = std::function<void(int to, const std::string& body)>;

  SiteEngine(const model::ModelInput& input, const EngineOptions& options,
             Sender sender);
  ~SiteEngine();

  SiteEngine(const SiteEngine&) = delete;
  SiteEngine& operator=(const SiteEngine&) = delete;

  /// Spawns the resident user threads (if configured) and the re-probe
  /// watchdog. Remote requests may arrive from peers before or after.
  void Start();

  /// Zeroes the measurement counters; called at the end of warm-up.
  void ResetStats();

  /// Signals resident users to stop at their next commit-cycle boundary and
  /// joins them. Records the measured window length.
  void StopUsers();

  /// Waits until no slave legs or external transactions remain in flight
  /// (all peers must have stopped submitting first). False on timeout.
  bool Drain(double timeout_real_ms);

  /// Runs the end-of-run audit and gathers the report. Call after Drain.
  EngineReport Collect();

  /// Stops everything (users, watchdog, handler pool). Engine becomes inert.
  void Stop();

  /// Dispatches one incoming mesh payload. Called on worker-pool threads;
  /// may block on locks/resources for extended (scaled) time.
  void HandleMessage(int from, const std::string& body);

  /// Runs one client-submitted transaction to commit (retrying aborts like
  /// a resident user) and returns the TXN_K payload. Blocking.
  std::string RunExternalTxn(std::string_view type_token, int requests);

  /// Runs `fn` on the engine's handler pool. The site daemon dispatches
  /// client TXN frames through this so a connection's reader thread never
  /// blocks on transaction execution (load generators pipeline frames).
  void Dispatch(std::function<void()> fn) { pool_.Submit(std::move(fn)); }

  int site() const { return options_.site; }
  const RtClock& clock() const { return clock_; }

  /// One-line-per-fact dump of the engine's wait state (lock waits and
  /// their wait-for edges, in-flight coordinator transactions with their
  /// pending reply counts, resident slave legs, external transactions) for
  /// diagnosing a stuck distributed run; the coordinator requests it via
  /// the DUMP control verb when a site misses a protocol deadline.
  std::string DebugSnapshot();

 private:
  struct PhaseAcct {
    double lock_wait_vms = 0.0;
    double remote_wait_vms = 0.0;
    double commit_wait_vms = 0.0;
  };

  /// A resident user TR thread and its measurement counters.
  struct UserDriver {
    model::TxnType type = model::TxnType::kLRO;
    util::Rng rng{0};
    std::thread thread;
    std::mutex mu;  ///< guards the counters against ResetStats/Collect
    std::uint64_t commits = 0;
    std::uint64_t submissions = 0;
    std::uint64_t aborts = 0;
    std::uint64_t records_committed = 0;
    util::StatAccumulator response_vms;
    util::StatAccumulator lock_wait_vms;
    util::StatAccumulator remote_wait_vms;
    util::StatAccumulator commit_wait_vms;
  };

  /// Coordinator-side registry entry for an in-flight transaction homed
  /// here: the blocking slot remote replies signal, plus the current node
  /// for probe routing.
  struct CoordTxn {
    model::TxnType type;
    std::mutex mu;
    std::condition_variable cv;
    int pending = 0;   ///< outstanding replies in the current round
    bool remdo_ok = true;
    int current_node = 0;
    /// Which round the coordinator is blocked in ("remdo", "prepare",
    /// "commit", "tabort") and since when — names the message a stuck
    /// transaction is waiting for in a DebugSnapshot.
    const char* phase = "run";
    double phase_start_vms = 0.0;
  };

  /// Per-site execution state of one transaction (the home part of a local
  /// coordinator, or a slave leg of a remote one): before images for
  /// rollback and applied updates for the commit-time audit credit.
  struct LocalTxnState {
    model::TxnType coord_type = model::TxnType::kLRO;
    std::map<db::GranuleId, std::vector<db::RecordValue>> undo;
    std::vector<db::RecordId> updated;
  };

  struct RequestSpec {
    int node = 0;
    std::vector<db::RecordId> records;
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

  double NowVms() const { return clock_.NowVirtualMs(); }
  void Send(int to, const std::string& body);

  // --- resource usage (blocking, scaled real time) -------------------------
  void UseCpu(double vms) { cpu_.Use(vms); }
  void TmHandle(double vms);
  void DbIo(int blocks);
  void LogIo(int blocks);

  // --- transaction lifecycle (home side) -----------------------------------
  std::uint64_t NewGid(model::TxnType type);
  void EndGid(std::uint64_t gid);
  CoordTxn* FindCoordTxn(std::uint64_t gid);
  void SetCurrentNode(std::uint64_t gid, int node);

  void UserMain(UserDriver* driver);
  std::vector<RequestSpec> BuildPlan(model::TxnType type, int local_requests,
                                     int remote_requests,
                                     int records_per_request, util::Rng* rng);
  bool RunOnce(model::TxnType type, std::uint64_t gid,
               const std::vector<RequestSpec>& plan, PhaseAcct* acct);
  bool RemoteRequest(std::uint64_t gid, model::TxnType type,
                     const RequestSpec& req, std::vector<bool>* touched);
  void Commit2pc(std::uint64_t gid, model::TxnType type,
                 const std::vector<int>& slaves, PhaseAcct* acct);
  void GlobalAbort(std::uint64_t gid, model::TxnType type, int victim_node,
                   const std::vector<bool>& touched);

  // --- per-site execution (home part and slave legs) -----------------------
  bool ExecuteRequestHere(std::uint64_t gid, const model::ClassParams& costs,
                          bool update, const std::vector<db::RecordId>& records,
                          PhaseAcct* acct, LocalTxnState* state);
  void RollbackHere(std::uint64_t gid, const model::ClassParams& costs,
                    LocalTxnState* state);
  void ReleaseLocksHere(std::uint64_t gid, const model::ClassParams& costs);
  void CreditCommitted(LocalTxnState* state);

  // --- slave-side message handlers -----------------------------------------
  void HandleRemdo(int from, const std::string& body);
  void HandlePrepare(int from, const std::string& body);
  void HandleCommit(int from, const std::string& body);
  void HandleTabort(int from, const std::string& body);
  void HandleReply(const std::string& body, bool remdo);

  // --- global deadlock probes ----------------------------------------------
  void OnBlock(TxnId waiter, std::vector<TxnId> holders);
  void HandleProbe(std::uint64_t initiator, int initiator_site,
                   std::uint64_t target, int hops, std::uint64_t max_gid);
  void DeliverVictim(std::uint64_t initiator, int initiator_site);
  void WatchdogMain();

  int HomeOf(std::uint64_t gid) const {
    return static_cast<int>(gid % static_cast<std::uint64_t>(
                                      options_.num_sites));
  }

  const model::ModelInput input_;
  const EngineOptions options_;
  Sender sender_;
  RtClock clock_;

  RtResource cpu_;
  RtResource db_disk_;
  std::unique_ptr<RtResource> log_disk_;  ///< null: shares the db disk
  RtFifoMutex tm_mutex_;
  std::unique_ptr<RtSemaphore> dm_pool_;
  RtLockFront locks_;
  WorkerPool pool_;

  std::mutex db_mu_;  ///< guards database_, shadow_ and LocalTxnState maps
  db::Database database_;
  std::vector<std::uint64_t> shadow_;  ///< committed increments per record
  std::unordered_map<std::uint64_t, std::unique_ptr<LocalTxnState>> local_;

  std::mutex coord_mu_;  ///< guards coord_txns_ and next_seq_
  std::unordered_map<std::uint64_t, std::unique_ptr<CoordTxn>> coord_txns_;
  std::uint64_t next_seq_ = 0;

  std::vector<std::unique_ptr<UserDriver>> drivers_;
  std::atomic<bool> stop_users_{false};
  std::atomic<bool> stopping_{false};
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;

  std::mutex ext_mu_;
  util::Rng ext_rng_{0};
  int ext_active_ = 0;
  std::uint64_t ext_commits_ = 0;
  std::uint64_t ext_aborts_ = 0;
  std::condition_variable ext_cv_;

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> probes_sent_{0};
  std::atomic<std::uint64_t> global_deadlocks_{0};

  /// Per-verb send/receive counters (diagnostic): comparing one site's tx
  /// row against the peer's rx row in paired DebugSnapshots shows whether a
  /// missing protocol step was lost in transit or stalled after delivery.
  /// handled_ counts pool tasks that actually started; rx minus handled is
  /// work sitting in the pool queue.
  static constexpr int kNumVerbs = 11;
  static int VerbIndex(std::string_view verb);
  static const char* VerbName(int index);
  std::array<std::atomic<std::uint64_t>, kNumVerbs> tx_verbs_{};
  std::array<std::atomic<std::uint64_t>, kNumVerbs> rx_verbs_{};
  std::atomic<std::uint64_t> handled_{0};

  double window_start_vms_ = 0.0;
  double window_end_vms_ = 0.0;
};

}  // namespace carat::dist

#endif  // CARAT_DIST_ENGINE_H_
