#include "dist/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace carat::dist {

using model::ClassParams;
using model::TxnType;

// ---------------------------------------------------------------------------
// EngineReport wire form
// ---------------------------------------------------------------------------

std::string EngineReport::Encode() const {
  std::string out;
  wire::AppendKv(&out, "vms", measured_vms);
  wire::AppendKv(&out, "cpu", cpu_busy_vms);
  wire::AppendKv(&out, "db", db_busy_vms);
  wire::AppendKv(&out, "log", log_busy_vms);
  wire::AppendKv(&out, "dio", dio);
  wire::AppendKv(&out, "lreq", lock_requests);
  wire::AppendKv(&out, "lblk", lock_blocks);
  wire::AppendKv(&out, "ldl", local_deadlocks);
  wire::AppendKv(&out, "cw", cancelled_waits);
  wire::AppendKv(&out, "gdl", global_deadlocks);
  wire::AppendKv(&out, "probes", probes_sent);
  wire::AppendKv(&out, "msgs", messages_sent);
  wire::AppendKv(&out, "dmw", dm_pool_waits);
  wire::AppendKv(&out, "extc", ext_commits);
  wire::AppendKv(&out, "exta", ext_aborts);
  wire::AppendKv(&out, "drained",
                 static_cast<std::uint64_t>(drained ? 1 : 0));
  wire::AppendKv(&out, "audit",
                 static_cast<std::uint64_t>(audit_ok ? 1 : 0));
  for (int i = 0; i < model::kNumTxnTypes; ++i) {
    const TypeCounters& t = types[i];
    if (!t.present) continue;
    const std::string p = "t" + std::to_string(i) + "_";
    wire::AppendKv(&out, p + "c", t.commits);
    wire::AppendKv(&out, p + "s", t.submissions);
    wire::AppendKv(&out, p + "a", t.aborts);
    wire::AppendKv(&out, p + "r", t.records_committed);
    wire::AppendKv(&out, p + "resp", t.response_sum_vms);
    wire::AppendKv(&out, p + "lw", t.lock_wait_sum_vms);
    wire::AppendKv(&out, p + "rw", t.remote_wait_sum_vms);
    wire::AppendKv(&out, p + "cmw", t.commit_wait_sum_vms);
  }
  return out;
}

bool EngineReport::Decode(std::string_view body, EngineReport* out) {
  const auto kv = wire::ParseKv(body);
  EngineReport r;
  std::uint64_t drained = 0;
  std::uint64_t audit = 0;
  const bool ok =
      wire::KvDouble(kv, "vms", &r.measured_vms) &&
      wire::KvDouble(kv, "cpu", &r.cpu_busy_vms) &&
      wire::KvDouble(kv, "db", &r.db_busy_vms) &&
      wire::KvDouble(kv, "log", &r.log_busy_vms) &&
      wire::KvU64(kv, "dio", &r.dio) && wire::KvU64(kv, "lreq", &r.lock_requests) &&
      wire::KvU64(kv, "lblk", &r.lock_blocks) &&
      wire::KvU64(kv, "ldl", &r.local_deadlocks) &&
      wire::KvU64(kv, "cw", &r.cancelled_waits) &&
      wire::KvU64(kv, "gdl", &r.global_deadlocks) &&
      wire::KvU64(kv, "probes", &r.probes_sent) &&
      wire::KvU64(kv, "msgs", &r.messages_sent) &&
      wire::KvU64(kv, "dmw", &r.dm_pool_waits) &&
      wire::KvU64(kv, "extc", &r.ext_commits) &&
      wire::KvU64(kv, "exta", &r.ext_aborts) &&
      wire::KvU64(kv, "drained", &drained) && wire::KvU64(kv, "audit", &audit);
  if (!ok) return false;
  r.drained = drained != 0;
  r.audit_ok = audit != 0;
  for (int i = 0; i < model::kNumTxnTypes; ++i) {
    TypeCounters& t = r.types[i];
    const std::string p = "t" + std::to_string(i) + "_";
    if (!wire::KvU64(kv, p + "c", &t.commits)) continue;
    t.present = true;
    if (!(wire::KvU64(kv, p + "s", &t.submissions) &&
          wire::KvU64(kv, p + "a", &t.aborts) &&
          wire::KvU64(kv, p + "r", &t.records_committed) &&
          wire::KvDouble(kv, p + "resp", &t.response_sum_vms) &&
          wire::KvDouble(kv, p + "lw", &t.lock_wait_sum_vms) &&
          wire::KvDouble(kv, p + "rw", &t.remote_wait_sum_vms) &&
          wire::KvDouble(kv, p + "cmw", &t.commit_wait_sum_vms))) {
      return false;
    }
  }
  *out = r;
  return true;
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

SiteEngine::SiteEngine(const model::ModelInput& input,
                       const EngineOptions& options, Sender sender)
    : input_(input),
      options_(options),
      sender_(std::move(sender)),
      clock_(options.scale),
      cpu_(&clock_),
      db_disk_(&clock_),
      database_(input.sites[options.site].num_granules,
                input.sites[options.site].records_per_granule),
      ext_rng_(options.seed ^ 0xD15Cul ^
               (static_cast<std::uint64_t>(options.site) << 32)) {
  const model::SiteParams& site = params();
  if (site.separate_log_disk) {
    log_disk_ = std::make_unique<RtResource>(&clock_);
  }
  if (site.dm_pool_size > 0) {
    dm_pool_ = std::make_unique<RtSemaphore>(site.dm_pool_size);
  }
  shadow_.assign(static_cast<std::size_t>(database_.num_records()), 0);
  locks_.on_block = [this](TxnId waiter, std::vector<TxnId> holders) {
    // Launch probes off the blocking thread: the journey charges TM/CPU and
    // sends messages, while the waiter itself just sleeps on the lock.
    pool_.Submit([this, waiter, holders = std::move(holders)]() mutable {
      OnBlock(waiter, std::move(holders));
    });
  };
}

SiteEngine::~SiteEngine() { Stop(); }

void SiteEngine::Start() {
  if (options_.spawn_users) {
    const model::SiteParams& site = params();
    util::Rng root(options_.seed ^
                   (0x5173ull + static_cast<std::uint64_t>(options_.site)));
    for (TxnType t : {TxnType::kLRO, TxnType::kLU, TxnType::kDROC,
                      TxnType::kDUC}) {
      for (int u = 0; u < site.Class(t).population; ++u) {
        auto driver = std::make_unique<UserDriver>();
        driver->type = t;
        driver->rng = root.Fork();
        drivers_.push_back(std::move(driver));
      }
    }
    for (auto& driver : drivers_) {
      driver->thread = std::thread([this, d = driver.get()] { UserMain(d); });
    }
  }
  if (options_.num_sites > 1) {
    watchdog_ = std::thread([this] { WatchdogMain(); });
  }
  window_start_vms_ = NowVms();
}

void SiteEngine::Stop() {
  if (stopping_.exchange(true)) return;
  stop_users_ = true;
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& driver : drivers_) {
    if (driver->thread.joinable()) driver->thread.join();
  }
  pool_.Shutdown();
}

// ---------------------------------------------------------------------------
// Resources
// ---------------------------------------------------------------------------

int SiteEngine::VerbIndex(std::string_view verb) {
  if (verb == "REMDO") return 0;
  if (verb == "REMDO_K") return 1;
  if (verb == "PREPARE") return 2;
  if (verb == "VOTE") return 3;
  if (verb == "COMMIT") return 4;
  if (verb == "COMMIT_K") return 5;
  if (verb == "TABORT") return 6;
  if (verb == "ABORT_K") return 7;
  if (verb == "PROBE") return 8;
  if (verb == "VICTIM") return 9;
  return 10;
}

const char* SiteEngine::VerbName(int index) {
  static const char* const kNames[kNumVerbs] = {
      "REMDO",  "REMDO_K", "PREPARE", "VOTE",   "COMMIT", "COMMIT_K",
      "TABORT", "ABORT_K", "PROBE",   "VICTIM", "other"};
  return kNames[index];
}

void SiteEngine::Send(int to, const std::string& body) {
  ++messages_sent_;
  const std::string_view verb =
      std::string_view(body).substr(0, body.find(' '));
  ++tx_verbs_[static_cast<std::size_t>(VerbIndex(verb))];
  sender_(to, body);
}

void SiteEngine::TmHandle(double vms) {
  tm_mutex_.Lock();
  cpu_.Use(vms);
  tm_mutex_.Unlock();
}

void SiteEngine::DbIo(int blocks) {
  for (int i = 0; i < blocks; ++i) db_disk_.Use(params().block_io_ms);
}

void SiteEngine::LogIo(int blocks) {
  RtResource& disk = log_disk_ != nullptr ? *log_disk_ : db_disk_;
  for (int i = 0; i < blocks; ++i) disk.Use(params().block_io_ms);
}

// ---------------------------------------------------------------------------
// Coordinator registry
// ---------------------------------------------------------------------------

std::uint64_t SiteEngine::NewGid(TxnType type) {
  std::lock_guard<std::mutex> lock(coord_mu_);
  const std::uint64_t gid =
      next_seq_++ * static_cast<std::uint64_t>(options_.num_sites) +
      static_cast<std::uint64_t>(options_.site);
  auto ct = std::make_unique<CoordTxn>();
  ct->type = type;
  ct->current_node = options_.site;
  coord_txns_.emplace(gid, std::move(ct));
  return gid;
}

void SiteEngine::EndGid(std::uint64_t gid) {
  std::lock_guard<std::mutex> lock(coord_mu_);
  coord_txns_.erase(gid);
}

SiteEngine::CoordTxn* SiteEngine::FindCoordTxn(std::uint64_t gid) {
  std::lock_guard<std::mutex> lock(coord_mu_);
  const auto it = coord_txns_.find(gid);
  return it == coord_txns_.end() ? nullptr : it->second.get();
}

void SiteEngine::SetCurrentNode(std::uint64_t gid, int node) {
  std::lock_guard<std::mutex> lock(coord_mu_);
  const auto it = coord_txns_.find(gid);
  if (it != coord_txns_.end()) it->second->current_node = node;
}

// ---------------------------------------------------------------------------
// Resident users
// ---------------------------------------------------------------------------

void SiteEngine::UserMain(UserDriver* driver) {
  const ClassParams& costs = HomeCosts(driver->type);
  const double think = params().think_time_ms;
  const int records_per_commit = costs.records_accessed();
  while (!stop_users_.load(std::memory_order_relaxed)) {
    const double cycle_start = NowVms();
    PhaseAcct acct;
    bool committed = false;
    while (!committed) {
      if (think > 0) clock_.SleepVirtual(think);
      // Submissions and aborts are recorded when they happen, not when the
      // cycle finally commits: the restart probability must see the aborts
      // of a still-retrying tangle inside the measurement window, and an
      // abandoned cycle's attempts must not vanish from the count.
      {
        std::lock_guard<std::mutex> lock(driver->mu);
        ++driver->submissions;
      }
      const std::uint64_t gid = NewGid(driver->type);
      const std::vector<RequestSpec> plan =
          BuildPlan(driver->type, costs.local_requests, costs.remote_requests,
                    costs.records_per_request, &driver->rng);
      committed = RunOnce(driver->type, gid, plan, &acct);
      EndGid(gid);
      if (!committed) {
        {
          std::lock_guard<std::mutex> lock(driver->mu);
          ++driver->aborts;
        }
        // A stopping user abandons its cycle at the retry boundary instead
        // of insisting on one more commit — under heavy contention that
        // commit could outlast any drain deadline. The partial cycle's
        // per-cycle sums (response, records) are simply dropped; its
        // submissions and aborts were already counted above.
        if (stop_users_.load(std::memory_order_relaxed)) return;
      }
    }
    std::lock_guard<std::mutex> lock(driver->mu);
    ++driver->commits;
    driver->records_committed += records_per_commit;
    driver->response_vms.Add(NowVms() - cycle_start);
    driver->lock_wait_vms.Add(acct.lock_wait_vms);
    driver->remote_wait_vms.Add(acct.remote_wait_vms);
    driver->commit_wait_vms.Add(acct.commit_wait_vms);
  }
}

std::vector<SiteEngine::RequestSpec> SiteEngine::BuildPlan(
    TxnType type, int local_requests, int remote_requests,
    int records_per_request, util::Rng* rng) {
  if (records_per_request <= 0) records_per_request = 4;
  std::vector<int> remote_nodes;
  for (int j = 0; j < options_.num_sites; ++j) {
    if (j != options_.site) remote_nodes.push_back(j);
  }
  if (remote_nodes.empty()) {
    local_requests += remote_requests;
    remote_requests = 0;
  }
  (void)type;
  std::vector<RequestSpec> plan;
  int local_left = local_requests;
  int remote_left = remote_requests;
  int rr = 0;
  while (local_left > 0 || remote_left > 0) {
    RequestSpec req;
    if (local_left >= remote_left) {
      req.node = options_.site;
      --local_left;
    } else {
      req.node = remote_nodes[rr++ % remote_nodes.size()];
      --remote_left;
    }
    const std::uint64_t total = static_cast<std::uint64_t>(
        input_.sites[req.node].total_records());
    req.records.resize(records_per_request);
    for (int i = 0; i < records_per_request; ++i) {
      req.records[i] = static_cast<db::RecordId>(rng->NextBounded(total));
    }
    plan.push_back(std::move(req));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// One execution attempt (home side) — mirrors Testbed::RunOnce
// ---------------------------------------------------------------------------

bool SiteEngine::RunOnce(TxnType type, std::uint64_t gid,
                         const std::vector<RequestSpec>& plan,
                         PhaseAcct* acct) {
  const ClassParams& costs = HomeCosts(type);
  LocalTxnState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    auto& slot = local_[gid];
    slot = std::make_unique<LocalTxnState>();
    slot->coord_type = type;
    state = slot.get();
  }
  std::vector<bool> touched(static_cast<std::size_t>(options_.num_sites),
                            false);
  touched[static_cast<std::size_t>(options_.site)] = true;
  if (dm_pool_ != nullptr) dm_pool_->Acquire();

  // INIT: TBEGIN and DBOPEN via the home TM, plus DM allocation.
  TmHandle(costs.tm_cpu_ms);
  TmHandle(costs.tm_cpu_ms);
  UseCpu(costs.dm_cpu_ms);

  const bool update = model::IsUpdate(type);
  bool aborted = false;
  int victim_node = -1;
  for (const RequestSpec& req : plan) {
    UseCpu(costs.u_cpu_ms);       // U phase: prepare the request
    TmHandle(costs.tm_cpu_ms);    // home TM routes the TDO
    bool ok;
    if (req.node == options_.site) {
      ok = ExecuteRequestHere(gid, costs, update, req.records, acct, state);
      TmHandle(costs.tm_cpu_ms);  // DOSTEP_K routing
    } else {
      const double rw_start = NowVms();
      SetCurrentNode(gid, req.node);
      ok = RemoteRequest(gid, type, req, &touched);
      SetCurrentNode(gid, options_.site);
      if (acct != nullptr) acct->remote_wait_vms += NowVms() - rw_start;
      TmHandle(costs.tm_cpu_ms);  // home TM, REMDO_K
    }
    if (!ok) {
      aborted = true;
      victim_node = req.node;
      break;
    }
  }

  if (aborted) {
    GlobalAbort(gid, type, victim_node, touched);
  } else {
    TmHandle(costs.tm_cpu_ms);  // TEND
    std::vector<int> slaves;
    for (int j = 0; j < options_.num_sites; ++j) {
      if (touched[static_cast<std::size_t>(j)] && j != options_.site) {
        slaves.push_back(j);
      }
    }
    if (slaves.empty()) {
      // TC + TCIO: commit processing and the forced commit log record.
      UseCpu(costs.tc_cpu_ms);
      {
        std::lock_guard<std::mutex> lock(db_mu_);
        CreditCommitted(state);
      }
      LogIo(1);
      ReleaseLocksHere(gid, costs);
    } else {
      Commit2pc(gid, type, slaves, acct);
    }
  }

  {
    std::lock_guard<std::mutex> lock(db_mu_);
    local_.erase(gid);
  }
  if (dm_pool_ != nullptr) dm_pool_->Release();
  return !aborted;
}

bool SiteEngine::RemoteRequest(std::uint64_t gid, TxnType type,
                               const RequestSpec& req,
                               std::vector<bool>* touched) {
  CoordTxn* ct = FindCoordTxn(gid);
  {
    std::lock_guard<std::mutex> lock(ct->mu);
    ct->pending = 1;
    ct->remdo_ok = false;
    ct->phase = "remdo";
    ct->phase_start_vms = NowVms();
  }
  std::string body = "REMDO ";
  body += std::to_string(gid);
  body += ' ';
  body += std::to_string(model::Index(type));
  body += ' ';
  body += wire::JoinRecords(req.records);
  Send(req.node, body);
  bool ok;
  {
    std::unique_lock<std::mutex> lock(ct->mu);
    ct->cv.wait(lock, [&] { return ct->pending == 0; });
    ok = ct->remdo_ok;
    ct->phase = "run";
  }
  // A failed REMDO means the slave rolled back and vacated the node.
  (*touched)[static_cast<std::size_t>(req.node)] = ok;
  return ok;
}

void SiteEngine::Commit2pc(std::uint64_t gid, TxnType type,
                           const std::vector<int>& slaves, PhaseAcct* acct) {
  const ClassParams& costs = HomeCosts(type);
  CoordTxn* ct = FindCoordTxn(gid);
  const std::string gid_str = std::to_string(gid);

  // Phase 1: PREPARE legs in parallel; VOTE handlers charge the home TM and
  // signal ct.
  const double prepare_start = NowVms();
  {
    std::lock_guard<std::mutex> lock(ct->mu);
    ct->pending = static_cast<int>(slaves.size());
    ct->phase = "prepare";
    ct->phase_start_vms = prepare_start;
  }
  for (const int j : slaves) Send(j, "PREPARE " + gid_str);
  {
    std::unique_lock<std::mutex> lock(ct->mu);
    ct->cv.wait(lock, [&] { return ct->pending == 0; });
    ct->phase = "run";
  }
  if (acct != nullptr) acct->commit_wait_vms += NowVms() - prepare_start;

  // Decision: force-write the commit record at the coordinator. This is the
  // audit's commit point for the home site's updates.
  UseCpu(costs.tc_cpu_ms);
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    const auto it = local_.find(gid);
    if (it != local_.end()) CreditCommitted(it->second.get());
  }
  LogIo(1);

  // Phase 2: COMMIT legs in parallel.
  const double commit_start = NowVms();
  {
    std::lock_guard<std::mutex> lock(ct->mu);
    ct->pending = static_cast<int>(slaves.size());
    ct->phase = "commit";
    ct->phase_start_vms = commit_start;
  }
  for (const int j : slaves) Send(j, "COMMIT " + gid_str);
  {
    std::unique_lock<std::mutex> lock(ct->mu);
    ct->cv.wait(lock, [&] { return ct->pending == 0; });
    ct->phase = "run";
  }
  if (acct != nullptr) acct->commit_wait_vms += NowVms() - commit_start;

  ReleaseLocksHere(gid, costs);
}

void SiteEngine::GlobalAbort(std::uint64_t gid, TxnType type, int victim_node,
                             const std::vector<bool>& touched) {
  const ClassParams& costs = HomeCosts(type);
  LocalTxnState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    const auto it = local_.find(gid);
    if (it != local_.end()) state = it->second.get();
  }
  // The victim site rolled back first: remotely inside its REMDO leg, at
  // home right here.
  if (victim_node == options_.site) RollbackHere(gid, costs, state);
  CoordTxn* ct = FindCoordTxn(gid);
  const std::string gid_str = std::to_string(gid);
  for (int j = 0; j < options_.num_sites; ++j) {
    if (!touched[static_cast<std::size_t>(j)] || j == victim_node) continue;
    if (j == options_.site) {
      RollbackHere(gid, costs, state);
      continue;
    }
    // T_ABORT leg to a surviving slave, serially (as in the testbed).
    {
      std::lock_guard<std::mutex> lock(ct->mu);
      ct->pending = 1;
      ct->phase = "tabort";
      ct->phase_start_vms = NowVms();
    }
    Send(j, "TABORT " + gid_str);
    std::unique_lock<std::mutex> lock(ct->mu);
    ct->cv.wait(lock, [&] { return ct->pending == 0; });
    ct->phase = "run";
  }
}

// ---------------------------------------------------------------------------
// Per-site execution — mirrors txn::Node
// ---------------------------------------------------------------------------

bool SiteEngine::ExecuteRequestHere(std::uint64_t gid,
                                    const ClassParams& costs, bool update,
                                    const std::vector<db::RecordId>& records,
                                    PhaseAcct* acct, LocalTxnState* state) {
  // DM phase: processing before the first lock request.
  UseCpu(costs.dm_cpu_ms);
  const lock::LockMode mode =
      update ? lock::LockMode::kExclusive : lock::LockMode::kShared;
  for (const db::RecordId record : records) {
    const db::GranuleId granule = database_.GranuleOf(record);

    // LR phase: lock request processing, including deadlock detection.
    UseCpu(costs.lr_cpu_ms);
    const double before_lock = NowVms();
    const lock::LockOutcome outcome = locks_.Acquire(gid, granule, mode);
    if (acct != nullptr) acct->lock_wait_vms += NowVms() - before_lock;
    if (outcome == lock::LockOutcome::kAborted) {
      return false;  // deadlock victim; caller rolls back everywhere
    }

    // DMIO phase: block read, plus journal write and in-place database
    // write for updates (three I/Os, Table 2).
    UseCpu(costs.dmio_cpu_ms);
    DbIo(1);
    if (update) {
      {
        std::lock_guard<std::mutex> lock(db_mu_);
        if (state->undo.find(granule) == state->undo.end()) {
          state->undo.emplace(granule, database_.ReadGranule(granule));
        }
        database_.Write(record, database_.Read(record) + 1);
        state->updated.push_back(record);
      }
      LogIo(1);  // journal write (write-ahead of the update)
      DbIo(1);   // database write
    }

    // DM phase between lock requests.
    UseCpu(costs.dm_cpu_ms);
  }
  return true;
}

void SiteEngine::RollbackHere(std::uint64_t gid, const ClassParams& costs,
                              LocalTxnState* state) {
  // TA phase: abort handling.
  UseCpu(costs.ta_fixed_cpu_ms);
  int restored = 0;
  if (state != nullptr) {
    std::lock_guard<std::mutex> lock(db_mu_);
    restored = static_cast<int>(state->undo.size());
    const int rpg = params().records_per_granule;
    for (const auto& [granule, image] : state->undo) {
      for (int k = 0; k < static_cast<int>(image.size()); ++k) {
        database_.Write(granule * rpg + k, image[static_cast<std::size_t>(k)]);
      }
    }
    state->undo.clear();
    state->updated.clear();
  }
  // TAIO: per restored granule, read the journal and rewrite the block.
  for (int i = 0; i < restored; ++i) {
    UseCpu(costs.ta_cpu_per_granule_ms);
    LogIo(1);
    DbIo(1);
  }
  ReleaseLocksHere(gid, costs);
}

void SiteEngine::ReleaseLocksHere(std::uint64_t gid,
                                  const ClassParams& costs) {
  // UL phase: unlock processing proportional to the locks held here.
  const double locks_held = static_cast<double>(locks_.HeldCount(gid));
  if (locks_held > 0) UseCpu(costs.unlock_cpu_per_lock_ms * locks_held);
  locks_.EndTxn(gid);
}

void SiteEngine::CreditCommitted(LocalTxnState* state) {
  for (const db::RecordId record : state->updated) {
    ++shadow_[static_cast<std::size_t>(record)];
  }
  state->updated.clear();
  state->undo.clear();
}

// ---------------------------------------------------------------------------
// Slave-side handlers
// ---------------------------------------------------------------------------

void SiteEngine::HandleMessage(int from, const std::string& body) {
  {
    const std::string_view verb =
        std::string_view(body).substr(0, body.find(' '));
    ++rx_verbs_[static_cast<std::size_t>(VerbIndex(verb))];
  }
  pool_.Submit([this, from, body] {
    ++handled_;
    wire::TokenReader reader(body);
    std::string_view verb;
    if (!reader.Next(&verb)) return;
    if (verb == "REMDO") {
      HandleRemdo(from, body);
    } else if (verb == "PREPARE") {
      HandlePrepare(from, body);
    } else if (verb == "COMMIT") {
      HandleCommit(from, body);
    } else if (verb == "TABORT") {
      HandleTabort(from, body);
    } else if (verb == "REMDO_K") {
      HandleReply(body, /*remdo=*/true);
    } else if (verb == "VOTE" || verb == "COMMIT_K" || verb == "ABORT_K") {
      HandleReply(body, /*remdo=*/false);
    } else if (verb == "PROBE") {
      std::uint64_t initiator = 0;
      std::uint64_t target = 0;
      std::uint64_t max_gid = 0;
      int initiator_site = 0;
      int hops = 0;
      wire::TokenReader r(body);
      std::string_view v;
      if (r.Next(&v) && r.NextU64(&initiator) && r.NextInt(&initiator_site) &&
          r.NextU64(&target) && r.NextInt(&hops) && r.NextU64(&max_gid)) {
        HandleProbe(initiator, initiator_site, target, hops, max_gid);
      }
    } else if (verb == "VICTIM") {
      std::uint64_t gid = 0;
      wire::TokenReader r(body);
      std::string_view v;
      if (r.Next(&v) && r.NextU64(&gid)) locks_.CancelWait(gid);
    }
  });
}

void SiteEngine::HandleRemdo(int from, const std::string& body) {
  wire::TokenReader reader(body);
  std::string_view verb;
  std::string_view records_token;
  std::uint64_t gid = 0;
  int type_index = 0;
  std::vector<db::RecordId> records;
  if (!reader.Next(&verb) || !reader.NextU64(&gid) ||
      !reader.NextInt(&type_index) || !reader.Next(&records_token) ||
      !wire::SplitRecords(records_token, &records)) {
    return;
  }
  const TxnType coord_type = static_cast<TxnType>(type_index);
  const ClassParams& costs = SlaveCosts(coord_type);
  LocalTxnState* state = nullptr;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    auto& slot = local_[gid];
    if (slot == nullptr) {
      first = true;
      slot = std::make_unique<LocalTxnState>();
      slot->coord_type = coord_type;
    }
    state = slot.get();
  }
  // First touch: lazy slave DM assignment.
  if (first && dm_pool_ != nullptr) dm_pool_->Acquire();

  TmHandle(costs.tm_cpu_ms);  // slave TM, inbound
  const bool ok = ExecuteRequestHere(gid, costs, model::IsUpdate(coord_type),
                                     records, nullptr, state);
  if (!ok) {
    // Deadlock victim at the slave: roll back and vacate the node before the
    // failure response ships home.
    RollbackHere(gid, costs, state);
    {
      std::lock_guard<std::mutex> lock(db_mu_);
      local_.erase(gid);
    }
    if (dm_pool_ != nullptr) dm_pool_->Release();
  }
  TmHandle(costs.tm_cpu_ms);  // slave TM, REMDO_K
  Send(from, "REMDO_K " + std::to_string(gid) + (ok ? " 1" : " 0"));
}

void SiteEngine::HandlePrepare(int from, const std::string& body) {
  wire::TokenReader reader(body);
  std::string_view verb;
  std::uint64_t gid = 0;
  if (!reader.Next(&verb) || !reader.NextU64(&gid)) return;
  TxnType coord_type = TxnType::kDROC;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    const auto it = local_.find(gid);
    if (it == local_.end()) {
      // A PREPARE for unknown state means a slave leg vanished while home
      // believed it touched this node; voting yes would commit lost updates,
      // so make the violation loud instead of silently dropping it.
      std::fprintf(stderr, "site %d: PREPARE for unknown gid %llu\n",
                   options_.site, static_cast<unsigned long long>(gid));
      return;
    }
    coord_type = it->second->coord_type;
  }
  const ClassParams& costs = SlaveCosts(coord_type);
  TmHandle(costs.tm_cpu_ms);
  LogIo(1);  // forced prepare record
  Send(from, "VOTE " + std::to_string(gid));
}

void SiteEngine::HandleCommit(int from, const std::string& body) {
  wire::TokenReader reader(body);
  std::string_view verb;
  std::uint64_t gid = 0;
  if (!reader.Next(&verb) || !reader.NextU64(&gid)) return;
  TxnType coord_type = TxnType::kDROC;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    const auto it = local_.find(gid);
    if (it == local_.end()) {
      // Phase 2 must always ack or the coordinator blocks forever; a commit
      // of already-vacated state is trivially done.
      Send(from, "COMMIT_K " + std::to_string(gid));
      return;
    }
    coord_type = it->second->coord_type;
  }
  const ClassParams& costs = SlaveCosts(coord_type);
  TmHandle(costs.tm_cpu_ms);
  LogIo(1);  // commit record
  {
    // The coordinator's decision is already logged; COMMIT makes this
    // slave's updates durable for the audit.
    std::lock_guard<std::mutex> lock(db_mu_);
    const auto it = local_.find(gid);
    if (it != local_.end()) CreditCommitted(it->second.get());
  }
  ReleaseLocksHere(gid, costs);
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    local_.erase(gid);
  }
  if (dm_pool_ != nullptr) dm_pool_->Release();
  Send(from, "COMMIT_K " + std::to_string(gid));
}

void SiteEngine::HandleTabort(int from, const std::string& body) {
  wire::TokenReader reader(body);
  std::string_view verb;
  std::uint64_t gid = 0;
  if (!reader.Next(&verb) || !reader.NextU64(&gid)) return;
  TxnType coord_type = TxnType::kDROC;
  LocalTxnState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    const auto it = local_.find(gid);
    if (it == local_.end()) {
      // Aborting already-vacated state is a no-op, but the coordinator still
      // waits on the ack — never strand it.
      Send(from, "ABORT_K " + std::to_string(gid));
      return;
    }
    coord_type = it->second->coord_type;
    state = it->second.get();
  }
  const ClassParams& costs = SlaveCosts(coord_type);
  TmHandle(costs.tm_cpu_ms);
  RollbackHere(gid, costs, state);
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    local_.erase(gid);
  }
  if (dm_pool_ != nullptr) dm_pool_->Release();
  Send(from, "ABORT_K " + std::to_string(gid));
}

void SiteEngine::HandleReply(const std::string& body, bool remdo) {
  wire::TokenReader reader(body);
  std::string_view verb;
  std::uint64_t gid = 0;
  if (!reader.Next(&verb) || !reader.NextU64(&gid)) return;
  int ok = 1;
  if (remdo && !reader.NextInt(&ok)) return;
  CoordTxn* ct = FindCoordTxn(gid);
  if (ct == nullptr) return;  // transaction already ended (stale reply)
  if (!remdo) {
    // VOTE / COMMIT_K / ABORT_K pay the home TM handling before the
    // coordinator resumes, mirroring the in-process 2PC legs. (For REMDO_K
    // the coordinator thread itself charges the home TM after waking.)
    TmHandle(HomeCosts(ct->type).tm_cpu_ms);
  }
  // Notify while holding the mutex: the coordinator may destroy `ct` the
  // moment it observes pending == 0 after we release it.
  std::lock_guard<std::mutex> lock(ct->mu);
  if (remdo) ct->remdo_ok = ok != 0;
  if (ct->pending > 0) --ct->pending;
  ct->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Global deadlock probes (edge-chasing with max-gid uniqueness)
// ---------------------------------------------------------------------------

void SiteEngine::OnBlock(TxnId waiter, std::vector<TxnId> holders) {
  if (options_.num_sites < 2) return;
  for (const TxnId holder : holders) {
    if (locks_.IsWaiting(holder) || HomeOf(holder) == options_.site) {
      HandleProbe(waiter, options_.site, holder, 1, waiter);
    } else {
      ++probes_sent_;
      Send(HomeOf(holder), "PROBE " + std::to_string(waiter) + ' ' +
                               std::to_string(options_.site) + ' ' +
                               std::to_string(holder) + " 1 " +
                               std::to_string(waiter));
    }
  }
}

void SiteEngine::HandleProbe(std::uint64_t initiator, int initiator_site,
                             std::uint64_t target, int hops,
                             std::uint64_t max_gid) {
  if (hops > options_.max_probe_hops) return;
  TmHandle(options_.probe_cpu_ms);  // relay/evaluation message handling
  if (!locks_.IsWaiting(target)) {
    // Not blocked here. If this is the target's home, forward to wherever it
    // currently operates; otherwise the probe is stale.
    if (HomeOf(target) != options_.site) return;
    int current = -1;
    {
      std::lock_guard<std::mutex> lock(coord_mu_);
      const auto it = coord_txns_.find(target);
      if (it != coord_txns_.end()) current = it->second->current_node;
    }
    if (current < 0 || current == options_.site) return;  // ended or running
    ++probes_sent_;
    Send(current, "PROBE " + std::to_string(initiator) + ' ' +
                      std::to_string(initiator_site) + ' ' +
                      std::to_string(target) + ' ' + std::to_string(hops + 1) +
                      ' ' + std::to_string(max_gid));
    return;
  }
  // Evaluate: the target waits here; chase each transaction it waits for.
  const std::uint64_t new_max = std::max(max_gid, target);
  for (const TxnId holder : locks_.WaitingFor(target)) {
    if (holder == initiator) {
      // Cycle closed. Only the probe initiated by the cycle's largest gid
      // declares, so exactly one victim dies per cycle.
      if (initiator >= new_max) {
        ++global_deadlocks_;
        DeliverVictim(initiator, initiator_site);
      }
      continue;
    }
    if (locks_.IsWaiting(holder) || HomeOf(holder) == options_.site) {
      HandleProbe(initiator, initiator_site, holder, hops + 1, new_max);
    } else {
      ++probes_sent_;
      Send(HomeOf(holder), "PROBE " + std::to_string(initiator) + ' ' +
                               std::to_string(initiator_site) + ' ' +
                               std::to_string(holder) + ' ' +
                               std::to_string(hops + 1) + ' ' +
                               std::to_string(new_max));
    }
  }
}

void SiteEngine::DeliverVictim(std::uint64_t initiator, int initiator_site) {
  if (initiator_site == options_.site) {
    locks_.CancelWait(initiator);
  } else {
    Send(initiator_site, "VICTIM " + std::to_string(initiator));
  }
}

void SiteEngine::WatchdogMain() {
  const auto interval = clock_.RealDuration(options_.reprobe_interval_vms);
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, interval, [&] { return stopping_.load(); });
    if (stopping_.load()) return;
    lock.unlock();
    // Re-probe every blocked transaction: probes are stateless, so lost or
    // early (pre-cycle) journeys are simply retried.
    for (const TxnId waiter : locks_.WaitingTxns()) {
      OnBlock(waiter, locks_.WaitingFor(waiter));
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// External (load generator) transactions
// ---------------------------------------------------------------------------

std::string SiteEngine::RunExternalTxn(std::string_view type_token,
                                       int requests) {
  TxnType type = TxnType::kLRO;
  if (type_token == "LU") {
    type = TxnType::kLU;
  } else if (type_token == "DRO") {
    type = TxnType::kDROC;
  } else if (type_token == "DU") {
    type = TxnType::kDUC;
  }
  if (options_.num_sites < 2 && model::IsCoordinator(type)) {
    type = type == TxnType::kDROC ? TxnType::kLRO : TxnType::kLU;
  }
  if (requests < 1) requests = 1;
  int local_requests = requests;
  int remote_requests = 0;
  if (model::IsCoordinator(type)) {
    local_requests = (requests + 1) / 2;
    remote_requests = requests - local_requests;
  }
  util::Rng rng(0);
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    rng = ext_rng_.Fork();
    ++ext_active_;
  }
  const ClassParams& costs = HomeCosts(type);
  const double start_vms = NowVms();
  std::uint64_t retries = 0;
  std::uint64_t gid = 0;
  for (;;) {
    gid = NewGid(type);
    const std::vector<RequestSpec> plan =
        BuildPlan(type, local_requests, remote_requests,
                  costs.records_per_request, &rng);
    PhaseAcct acct;
    const bool committed = RunOnce(type, gid, plan, &acct);
    EndGid(gid);
    if (committed) break;
    ++retries;
  }
  const double response_vms = NowVms() - start_vms;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    ++ext_commits_;
    ext_aborts_ += retries;
    --ext_active_;
    ext_cv_.notify_all();
  }
  std::string reply = "TXN_K ";
  reply += std::to_string(gid);
  reply += " 1 ";
  reply += std::to_string(retries);
  reply += ' ';
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", response_vms);
  reply += buf;
  return reply;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

void SiteEngine::ResetStats() {
  cpu_.ResetStats();
  db_disk_.ResetStats();
  if (log_disk_ != nullptr) log_disk_->ResetStats();
  if (dm_pool_ != nullptr) dm_pool_->ResetStats();
  locks_.ResetStats();
  messages_sent_ = 0;
  probes_sent_ = 0;
  global_deadlocks_ = 0;
  for (auto& driver : drivers_) {
    std::lock_guard<std::mutex> lock(driver->mu);
    driver->commits = driver->submissions = driver->aborts = 0;
    driver->records_committed = 0;
    driver->response_vms.Reset();
    driver->lock_wait_vms.Reset();
    driver->remote_wait_vms.Reset();
    driver->commit_wait_vms.Reset();
  }
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    ext_commits_ = ext_aborts_ = 0;
  }
  window_start_vms_ = NowVms();
  window_end_vms_ = window_start_vms_;
}

void SiteEngine::StopUsers() {
  stop_users_ = true;
  for (auto& driver : drivers_) {
    if (driver->thread.joinable()) driver->thread.join();
  }
  window_end_vms_ = NowVms();
}

bool SiteEngine::Drain(double timeout_real_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::duration<double, std::milli>(
                                timeout_real_ms));
  for (;;) {
    bool idle;
    {
      std::lock_guard<std::mutex> lock(db_mu_);
      idle = local_.empty();
    }
    if (idle) {
      std::lock_guard<std::mutex> lock(ext_mu_);
      idle = ext_active_ == 0;
    }
    if (idle) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    RtClock::SleepRealMs(10);
  }
}

EngineReport SiteEngine::Collect() {
  EngineReport report;
  report.measured_vms = window_end_vms_ - window_start_vms_;
  report.cpu_busy_vms = cpu_.BusyVirtualMs();
  report.db_busy_vms = db_disk_.BusyVirtualMs();
  report.dio = db_disk_.completions();
  if (log_disk_ != nullptr) {
    report.log_busy_vms = log_disk_->BusyVirtualMs();
    report.dio += log_disk_->completions();
  }
  report.lock_requests = locks_.requests();
  report.lock_blocks = locks_.blocks();
  report.local_deadlocks = locks_.local_deadlocks();
  report.cancelled_waits = locks_.cancelled_waits();
  report.global_deadlocks = global_deadlocks_.load();
  report.probes_sent = probes_sent_.load();
  report.messages_sent = messages_sent_.load();
  report.dm_pool_waits = dm_pool_ != nullptr ? dm_pool_->waits() : 0;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    report.ext_commits = ext_commits_;
    report.ext_aborts = ext_aborts_;
  }
  for (auto& driver : drivers_) {
    std::lock_guard<std::mutex> lock(driver->mu);
    TypeCounters& t = report.types[model::Index(driver->type)];
    t.present = true;
    t.commits += driver->commits;
    t.submissions += driver->submissions;
    t.aborts += driver->aborts;
    t.records_committed += driver->records_committed;
    t.response_sum_vms += driver->response_vms.Sum();
    t.lock_wait_sum_vms += driver->lock_wait_vms.Sum();
    t.remote_wait_sum_vms += driver->remote_wait_vms.Sum();
    t.commit_wait_sum_vms += driver->commit_wait_vms.Sum();
  }
  // Audit: with everything drained, every record must equal the number of
  // committed updates applied to it (atomicity + write serialization).
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    report.drained = local_.empty();
    report.audit_ok = true;
    for (db::RecordId r = 0; r < database_.num_records(); ++r) {
      if (database_.Read(r) !=
          static_cast<db::RecordValue>(shadow_[static_cast<std::size_t>(r)])) {
        report.audit_ok = false;
        break;
      }
    }
  }
  return report;
}

std::string SiteEngine::DebugSnapshot() {
  std::string out = "site " + std::to_string(options_.site) + " @" +
                    std::to_string(NowVms()) + "vms\n";
  for (const TxnId waiter : locks_.WaitingTxns()) {
    out += "  lockwait gid=" + std::to_string(waiter) + " home=" +
           std::to_string(HomeOf(waiter)) + " for=[";
    bool first = true;
    for (const TxnId holder : locks_.WaitingFor(waiter)) {
      if (!first) out += ',';
      out += std::to_string(holder);
      first = false;
    }
    out += "]\n";
  }
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    for (const auto& [gid, ct] : coord_txns_) {
      std::lock_guard<std::mutex> ct_lock(ct->mu);
      out += "  coord gid=" + std::to_string(gid) +
             " pending=" + std::to_string(ct->pending) +
             " node=" + std::to_string(ct->current_node) + " phase=" +
             ct->phase;
      if (ct->pending > 0) {
        out += " age=" + std::to_string(NowVms() - ct->phase_start_vms) +
               "vms";
      }
      out += "\n";
    }
  }
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    for (const auto& [gid, state] : local_) {
      out += "  local gid=" + std::to_string(gid) + " home=" +
             std::to_string(HomeOf(gid)) + " updated=" +
             std::to_string(state->updated.size()) + "\n";
    }
  }
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    out += "  ext_active=" + std::to_string(ext_active_) + "\n";
  }
  // Message flow and execution backlog: a verb whose tx count at the peer
  // exceeds the rx count here was lost in transit; rx ahead of handled
  // tasks means work stranded in the pool queue; large resource backlogs
  // mean the handlers are alive but queued behind scaled service demand.
  out += "  tx";
  for (int i = 0; i < kNumVerbs; ++i) {
    const std::uint64_t n = tx_verbs_[static_cast<std::size_t>(i)].load();
    if (n != 0) out += ' ' + std::string(VerbName(i)) + '=' + std::to_string(n);
  }
  out += "\n  rx";
  for (int i = 0; i < kNumVerbs; ++i) {
    const std::uint64_t n = rx_verbs_[static_cast<std::size_t>(i)].load();
    if (n != 0) out += ' ' + std::string(VerbName(i)) + '=' + std::to_string(n);
  }
  const WorkerPool::Stats pool = pool_.stats();
  out += "\n  pool queued=" + std::to_string(pool.queued) +
         " idle=" + std::to_string(pool.idle) +
         " threads=" + std::to_string(pool.threads) +
         " handled=" + std::to_string(handled_.load()) + "\n";
  out += "  backlog cpu=" + std::to_string(cpu_.BacklogVms()) + "vms db=" +
         std::to_string(db_disk_.BacklogVms()) + "vms";
  if (log_disk_ != nullptr) {
    out += " log=" + std::to_string(log_disk_->BacklogVms()) + "vms";
  }
  out += " tm_depth=" + std::to_string(tm_mutex_.Depth()) + "\n";
  return out;
}

}  // namespace carat::dist
