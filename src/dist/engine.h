// One CARAT site as a real-time engine: the wire face of txn::SiteProtocol.
//
// SiteEngine hosts everything a site process owns, as coroutines on the
// site's real-time event loop (dist/runtime.h): one txn::Node (TM server,
// CPU and disks, DM pool, database, before-image journal, lock table), its
// and one txn::SiteProtocol, which is the testbed's own transaction flow:
// resident users, the coordinator's attempt, the slave steps, the home
// transaction registry and the probe detector. The engine is the
// protocol's txn::Runtime: a leg ships as a wire verb (REMDO, PREPARE,
// COMMIT, TABORT) and waits for the reply, a probe hop ships as PROBE or
// VICTIM, and the peer's Dispatch decodes each into the same
// SiteProtocol::Serve or detector step the in-process testbed runs. So a
// distributed run is cross-checkable against the in-process RunTestbed
// reference, under every cc backend.
//
// What stays the engine's own is wire encode/decode and dispatch, the
// external (load-generator) transactions, and measurement: the window rule,
// the per-site audit of committed updates, the report, and DebugSnapshot.
// All engine-internal times are *virtual* milliseconds.
//
// The engine is transport agnostic and single-threaded: the process's one
// thread runs it through Run. Outgoing mesh messages go through a Sender
// callback, called from events; incoming ones reach HandleMessage from the
// socket layer, which schedules their dispatch as an event.

#ifndef CARAT_DIST_ENGINE_H_
#define CARAT_DIST_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "dist/runtime.h"
#include "dist/wire.h"
#include "model/params.h"
#include "sim/process.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "txn/node.h"
#include "txn/protocol.h"
#include "util/random.h"

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
};

class SiteEngine final : private txn::Runtime {
 public:
  /// Ships `body` (a wire payload, verb first) to site `to`; never invoked
  /// with to == this site. Called from events only.
  using Sender = std::function<void(int to, const std::string& body)>;

  /// Receives an external transaction's TXN_K payload, from an event.
  using TxnDone = std::function<void(const std::string& reply)>;

  /// Builds the site: remote requests may arrive from peers before or after
  /// Start.
  SiteEngine(const model::ModelInput& input, const EngineOptions& options,
             Sender sender);
  ~SiteEngine();

  SiteEngine(const SiteEngine&) = delete;
  SiteEngine& operator=(const SiteEngine&) = delete;

  /// Runs the site's loop on the calling thread until `done()` holds; see
  /// RtSiteLoop::Run.
  void Run(rpc::ConnectionSet* net, const std::function<bool()>& done) {
    loop_.Run(net, done);
  }

  /// Spawns the resident users (if configured) and the re-probe watchdog
  /// (2PL), and times the window with kernel timers: the counters reset
  /// after `warmup_real_ms` of wall clock, and the users stop at their next
  /// commit-cycle boundary `measure_real_ms` later. The window ends when
  /// the last one stops, and `users_stopped` runs then.
  void Start(double warmup_real_ms, double measure_real_ms,
             std::function<void()> users_stopped);

  /// Calls `done(true)` once no slave legs or external transactions remain
  /// in flight (all peers must have stopped submitting first), or
  /// `done(false)` once `timeout_real_ms` of wall clock have passed.
  void Drain(double timeout_real_ms, std::function<void(bool drained)> done);

  /// Runs the end-of-run audit and gathers the report. Call after Drain.
  EngineReport Collect();

  /// Ends every coroutine still parked on the loop. The engine is inert
  /// afterwards.
  void Stop();

  /// Dispatches one incoming mesh payload, as an event at its arrival time.
  void HandleMessage(int from, std::string body);

  /// Runs one client-submitted transaction to commit (retrying aborts like
  /// a resident user), then hands the TXN_K payload to `done`.
  void SubmitExternalTxn(std::string_view type_token, int requests,
                         TxnDone done);

  /// One-line-per-fact dump of the engine's wait state (lock waits and
  /// their wait-for edges, in-flight coordinators with their current node,
  /// legs awaiting a reply with verb and age, resident slave legs, external
  /// transactions, per-verb message counts, and the events pending on the
  /// loop) for diagnosing a stuck distributed run; the coordinator requests
  /// it via the DUMP control verb when a site misses a protocol deadline.
  std::string DebugSnapshot();

 private:
  /// A leg shipped from here, waiting for the slave's reply.
  struct PendingLeg {
    txn::Leg::Kind kind = txn::Leg::Kind::kRemdo;
    double since_vms = 0.0;
    sim::Gate reply{1};
    bool ok = true;  ///< REMDO_K's outcome
  };

  /// A leg decoded off the wire; ServeLeg points the leg at its parts.
  struct LegMessage {
    txn::Leg leg;
    txn::RequestSpec request;
    std::vector<db::RecordId> upfront;
    bool has_upfront = false;
  };

  const model::SiteParams& params() const {
    return input_.sites[options_.site];
  }
  double NowVms() const { return node_.simulation().now(); }
  int HomeOf(std::uint64_t gid) const {
    return static_cast<int>(gid % static_cast<std::uint64_t>(
                                      options_.num_sites));
  }
  void Send(int to, const std::string& body);

  /// The window's ends, run as timer events.
  void ResetStats();
  void StopUsers();
  /// Ends a pending Drain once nothing is in flight.
  void CheckDrained();

  // --- txn::Runtime ---------------------------------------------------------
  sim::Task<bool> Ship(const txn::Leg& leg) override;
  void ShipProbe(int site, const txn::Probe& probe) override;
  void CommitPoint(const std::vector<txn::RequestSpec>& plan) override;

  // --- resident users and external transactions -----------------------------
  sim::Process UserLoop(txn::UserDriver* driver);
  sim::Process ExternalTxn(model::TxnType type, int local_requests,
                           int remote_requests, TxnDone done);

  // --- inbound mesh messages ------------------------------------------------
  void Dispatch(int from, const std::string& body);
  sim::Process ServeLeg(int from, LegMessage message);

  const model::ModelInput input_;
  const EngineOptions options_;
  Sender sender_;

  // Declared before every object the loop's coroutines touch, so those are
  // still alive when the destructor's Stop ends the coroutines.
  RtSiteLoop loop_;
  txn::Node node_;
  txn::SiteProtocol protocol_;

  // Everything below is touched only by the loop's events.
  std::vector<std::uint64_t> shadow_;  ///< committed increments per record
  /// Slave legs resident here, by gid: the records each has updated, which
  /// the audit credits when its COMMIT step is done.
  std::unordered_map<std::uint64_t, std::vector<db::RecordId>> slaves_;
  /// Legs shipped from here, by (gid, slave site).
  std::map<std::pair<std::uint64_t, int>, PendingLeg*> legs_;

  std::vector<std::unique_ptr<txn::UserDriver>> drivers_;
  int live_users_ = 0;
  bool stop_users_ = false;
  std::function<void()> users_stopped_;
  std::function<void(bool drained)> drained_;  ///< set while a Drain waits

  util::Rng ext_rng_{0};
  int ext_active_ = 0;
  std::uint64_t ext_commits_ = 0;
  std::uint64_t ext_aborts_ = 0;

  std::uint64_t messages_sent_ = 0;

  /// Per-verb send/receive counters (diagnostic): comparing one site's tx
  /// row against the peer's rx row in paired DebugSnapshots shows whether a
  /// missing protocol step was lost in transit or stalled after delivery.
  /// rx counts on arrival.
  static constexpr int kNumVerbs = 11;
  static int VerbIndex(std::string_view verb);
  static const char* VerbName(int index);
  std::array<std::uint64_t, kNumVerbs> tx_verbs_{};
  std::array<std::uint64_t, kNumVerbs> rx_verbs_{};

  double window_start_vms_ = 0.0;
  double window_end_vms_ = 0.0;
};

}  // namespace carat::dist

#endif  // CARAT_DIST_ENGINE_H_
