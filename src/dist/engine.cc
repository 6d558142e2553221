#include "dist/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
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
      loop_(options.scale),
      node_(loop_.port(), options.site, input_.sites[options.site]),
      ext_rng_(options.seed ^ 0xD15Cul ^
               (static_cast<std::uint64_t>(options.site) << 32)) {
  shadow_.assign(static_cast<std::size_t>(node_.database().num_records()), 0);
  if (options.num_sites > 1) {
    node_.locks().on_block = [this](lock::TxnId waiter,
                                    const std::vector<lock::TxnId>& holders) {
      OnBlock(waiter, holders);
    };
  }
  loop_.Start();
}

SiteEngine::~SiteEngine() { Stop(); }

void SiteEngine::Start() {
  loop_.Call([this] {
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
        ++live_users_;
        UserProcess(driver.get());
      }
    }
    if (options_.num_sites > 1) Watchdog();
    window_start_vms_ = NowVms();
  });
}

void SiteEngine::Stop() { loop_.Stop(); }

// ---------------------------------------------------------------------------
// Messages
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

void SiteEngine::HandleMessage(int from, std::string body) {
  const std::string_view verb =
      std::string_view(body).substr(0, body.find(' '));
  ++rx_verbs_[static_cast<std::size_t>(VerbIndex(verb))];
  loop_.Post([this, from, body = std::move(body)] { Dispatch(from, body); });
}

void SiteEngine::Dispatch(int from, const std::string& body) {
  wire::TokenReader reader(body);
  std::string_view verb;
  std::uint64_t gid = 0;
  if (!reader.Next(&verb) || !reader.NextU64(&gid)) return;
  if (verb == "REMDO") {
    int type_index = 0;
    std::string_view records_token;
    std::vector<db::RecordId> records;
    if (reader.NextInt(&type_index) && reader.Next(&records_token) &&
        wire::SplitRecords(records_token, &records)) {
      Remdo(from, gid, static_cast<TxnType>(type_index), std::move(records));
    }
  } else if (verb == "PREPARE") {
    Prepare(from, gid);
  } else if (verb == "COMMIT") {
    CommitLeg(from, gid);
  } else if (verb == "TABORT") {
    Tabort(from, gid);
  } else if (verb == "REMDO_K") {
    int ok = 1;
    if (!reader.NextInt(&ok)) return;
    const auto it = coord_txns_.find(gid);
    if (it == coord_txns_.end()) return;  // stale reply
    it->second.remdo_ok = ok != 0;
    SignalRound(gid);
  } else if (verb == "VOTE" || verb == "COMMIT_K" || verb == "ABORT_K") {
    LegReply(gid);
  } else if (verb == "PROBE") {
    // gid is the probe's initiator.
    std::uint64_t target = 0;
    std::uint64_t max_gid = 0;
    int initiator_site = 0;
    int hops = 0;
    if (reader.NextInt(&initiator_site) && reader.NextU64(&target) &&
        reader.NextInt(&hops) && reader.NextU64(&max_gid)) {
      Probe(gid, initiator_site, target, hops, max_gid);
    }
  } else if (verb == "VICTIM") {
    node_.locks().CancelWait(gid);
  }
}

// ---------------------------------------------------------------------------
// Coordinator registry
// ---------------------------------------------------------------------------

std::uint64_t SiteEngine::NewGid(TxnType type) {
  const std::uint64_t gid =
      next_seq_++ * static_cast<std::uint64_t>(options_.num_sites) +
      static_cast<std::uint64_t>(options_.site);
  CoordTxn& ct = coord_txns_[gid];
  ct.type = type;
  ct.current_node = options_.site;
  return gid;
}

void SiteEngine::SetCurrentNode(std::uint64_t gid, int node) {
  const auto it = coord_txns_.find(gid);
  if (it != coord_txns_.end()) it->second.current_node = node;
}

// ---------------------------------------------------------------------------
// Resident users and external transactions
// ---------------------------------------------------------------------------

sim::Process SiteEngine::UserProcess(UserDriver* driver) {
  const ClassParams& costs = HomeCosts(driver->type);
  const double think = params().think_time_ms;
  const int records_per_commit = costs.records_accessed();
  while (!stop_users_) {
    const double cycle_start = NowVms();
    PhaseAccounting acct;
    bool committed = false;
    while (!committed) {
      if (think > 0) co_await sim::Delay{node_.simulation(), think};
      // Submissions and aborts are recorded when they happen, not when the
      // cycle finally commits: the restart probability must see the aborts
      // of a still-retrying tangle inside the measurement window, and an
      // abandoned cycle's attempts must not vanish from the count.
      ++driver->submissions;
      driver->attempting = true;
      const std::uint64_t gid = NewGid(driver->type);
      const std::vector<txn::RequestSpec> plan =
          BuildPlan(driver->type, costs.local_requests, costs.remote_requests,
                    costs.records_per_request, &driver->rng);
      committed = co_await RunOnce(driver->type, gid, plan, &acct);
      driver->attempting = false;
      coord_txns_.erase(gid);
      if (committed) break;
      ++driver->aborts;
      // A stopping user abandons its cycle at the retry boundary instead of
      // insisting on one more commit: under heavy contention that commit
      // could outlast any drain deadline. The partial cycle's per-cycle sums
      // are dropped; its submissions and aborts were counted above.
      if (stop_users_) break;
    }
    if (!committed) break;
    ++driver->commits;
    driver->records_committed += records_per_commit;
    driver->response_vms.Add(NowVms() - cycle_start);
    driver->lock_wait_vms.Add(acct.lock_wait_ms);
    driver->remote_wait_vms.Add(acct.remote_wait_ms);
    driver->commit_wait_vms.Add(acct.commit_wait_ms);
  }
  // Users stop only once stop_users_ is set, so the last one to stop ends
  // the measured window.
  --live_users_;
  window_end_vms_ = NowVms();
}

void SiteEngine::SubmitExternalTxn(std::string_view type_token, int requests,
                                   TxnDone done) {
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
  loop_.Post([this, type, local_requests, remote_requests,
              done = std::move(done)]() mutable {
    ExternalTxn(type, local_requests, remote_requests, std::move(done));
  });
}

sim::Process SiteEngine::ExternalTxn(TxnType type, int local_requests,
                                     int remote_requests, TxnDone done) {
  util::Rng rng = ext_rng_.Fork();
  ++ext_active_;
  const ClassParams& costs = HomeCosts(type);
  const double start_vms = NowVms();
  std::uint64_t retries = 0;
  std::uint64_t gid = 0;
  for (;;) {
    gid = NewGid(type);
    const std::vector<txn::RequestSpec> plan =
        BuildPlan(type, local_requests, remote_requests,
                  costs.records_per_request, &rng);
    PhaseAccounting acct;
    const bool committed = co_await RunOnce(type, gid, plan, &acct);
    coord_txns_.erase(gid);
    if (committed) break;
    ++retries;
  }
  const double response_vms = NowVms() - start_vms;
  ++ext_commits_;
  ext_aborts_ += retries;
  --ext_active_;
  std::string reply = "TXN_K ";
  reply += std::to_string(gid);
  reply += " 1 ";
  reply += std::to_string(retries);
  reply += ' ';
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", response_vms);
  reply += buf;
  done(reply);
}

std::vector<txn::RequestSpec> SiteEngine::BuildPlan(TxnType type,
                                                    int local_requests,
                                                    int remote_requests,
                                                    int records_per_request,
                                                    util::Rng* rng) {
  if (records_per_request <= 0) records_per_request = 4;
  std::vector<int> remote_nodes;
  for (int j = 0; j < options_.num_sites; ++j) {
    if (j != options_.site) remote_nodes.push_back(j);
  }
  if (remote_nodes.empty()) {
    local_requests += remote_requests;
    remote_requests = 0;
  }
  std::vector<txn::RequestSpec> plan;
  int local_left = local_requests;
  int remote_left = remote_requests;
  int rr = 0;
  while (local_left > 0 || remote_left > 0) {
    txn::RequestSpec req;
    if (local_left >= remote_left) {
      req.node = options_.site;
      --local_left;
    } else {
      req.node = remote_nodes[rr++ % remote_nodes.size()];
      --remote_left;
    }
    req.update = model::IsUpdate(type);
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
// One execution attempt (home side), as in Testbed::RunOnce
// ---------------------------------------------------------------------------

sim::Task<bool> SiteEngine::RunOnce(TxnType type, std::uint64_t gid,
                                    const std::vector<txn::RequestSpec>& plan,
                                    PhaseAccounting* acct) {
  const ClassParams& costs = HomeCosts(type);
  local_[gid].coord_type = type;
  std::vector<bool> touched(static_cast<std::size_t>(options_.num_sites),
                            false);
  touched[static_cast<std::size_t>(options_.site)] = true;
  if (node_.dm_pool() != nullptr) co_await node_.dm_pool()->Acquire();
  node_.locks().StartTxn(gid);

  // INIT: TBEGIN and DBOPEN via the home TM, plus DM allocation.
  co_await node_.TmHandle(costs.tm_cpu_ms);
  co_await node_.TmHandle(costs.tm_cpu_ms);
  co_await node_.UseCpu(costs.dm_cpu_ms);

  bool aborted = false;
  int victim_node = -1;
  for (const txn::RequestSpec& req : plan) {
    co_await node_.UseCpu(costs.u_cpu_ms);     // U phase: prepare the request
    co_await node_.TmHandle(costs.tm_cpu_ms);  // home TM routes the TDO
    bool ok;
    if (req.node == options_.site) {
      ok = co_await ExecuteHere(gid, costs, req, acct);
      co_await node_.TmHandle(costs.tm_cpu_ms);  // DOSTEP_K routing
    } else {
      const double rw_start = NowVms();
      SetCurrentNode(gid, req.node);
      std::string body = "REMDO ";
      body += std::to_string(gid);
      body += ' ';
      body += std::to_string(model::Index(type));
      body += ' ';
      body += wire::JoinRecords(req.records);
      const std::vector<int> to = {req.node};
      coord_txns_.at(gid).remdo_ok = false;
      co_await Round(gid, "remdo", to, body);
      ok = coord_txns_.at(gid).remdo_ok;
      // A failed REMDO means the slave rolled back and vacated the node.
      touched[static_cast<std::size_t>(req.node)] = ok;
      SetCurrentNode(gid, options_.site);
      if (acct != nullptr) acct->remote_wait_ms += NowVms() - rw_start;
      co_await node_.TmHandle(costs.tm_cpu_ms);  // home TM, REMDO_K
    }
    if (!ok) {
      aborted = true;
      victim_node = req.node;
      break;
    }
  }

  if (aborted) {
    co_await GlobalAbort(gid, type, victim_node, touched);
  } else {
    co_await node_.TmHandle(costs.tm_cpu_ms);  // TEND
    std::vector<int> slaves;
    for (int j = 0; j < options_.num_sites; ++j) {
      if (touched[static_cast<std::size_t>(j)] && j != options_.site) {
        slaves.push_back(j);
      }
    }
    if (slaves.empty()) {
      // TC + TCIO: commit processing and the forced commit log record.
      co_await node_.UseCpu(costs.tc_cpu_ms);
      node_.log().LogCommit(gid);
      CreditCommitted(gid);
      co_await node_.LogIo(1);
      co_await node_.ReleaseLocksAt(gid, costs);
      node_.log().Forget(gid);
    } else {
      co_await Commit2pc(gid, type, slaves, acct);
    }
  }
  Vacate(gid);
  co_return !aborted;
}

sim::Task<void> SiteEngine::Round(std::uint64_t gid, const char* phase,
                                  const std::vector<int>& sites,
                                  const std::string& body) {
  CoordTxn& ct = coord_txns_.at(gid);
  sim::Gate replies(static_cast<int>(sites.size()));
  ct.round = &replies;
  ct.phase = phase;
  ct.phase_start_vms = NowVms();
  for (const int j : sites) Send(j, body);
  co_await replies.Wait();
  ct.round = nullptr;
  ct.phase = "run";
}

sim::Task<void> SiteEngine::Commit2pc(std::uint64_t gid, TxnType type,
                                      const std::vector<int>& slaves,
                                      PhaseAccounting* acct) {
  const ClassParams& costs = HomeCosts(type);
  const std::string prepare = "PREPARE " + std::to_string(gid);
  const std::string commit = "COMMIT " + std::to_string(gid);

  // Phase 1: PREPARE legs in parallel; each VOTE charges the home TM.
  const double prepare_start = NowVms();
  co_await Round(gid, "prepare", slaves, prepare);
  if (acct != nullptr) acct->commit_wait_ms += NowVms() - prepare_start;

  // Decision: force-write the commit record at the coordinator. This is the
  // audit's commit point for the home site's updates.
  co_await node_.UseCpu(costs.tc_cpu_ms);
  node_.log().LogCommit(gid);
  CreditCommitted(gid);
  co_await node_.LogIo(1);

  // Phase 2: COMMIT legs in parallel.
  const double commit_start = NowVms();
  co_await Round(gid, "commit", slaves, commit);
  if (acct != nullptr) acct->commit_wait_ms += NowVms() - commit_start;

  co_await node_.ReleaseLocksAt(gid, costs);
  node_.log().Forget(gid);
}

sim::Task<void> SiteEngine::GlobalAbort(std::uint64_t gid, TxnType type,
                                        int victim_node,
                                        const std::vector<bool>& touched) {
  const ClassParams& costs = HomeCosts(type);
  // The victim site rolled back first: remotely inside its REMDO leg, at
  // home right here.
  if (victim_node == options_.site) co_await node_.RollbackAt(gid, costs);
  const std::string tabort = "TABORT " + std::to_string(gid);
  for (int j = 0; j < options_.num_sites; ++j) {
    if (!touched[static_cast<std::size_t>(j)] || j == victim_node) continue;
    if (j == options_.site) {
      co_await node_.RollbackAt(gid, costs);
      continue;
    }
    // T_ABORT leg to a surviving slave, serially (as in the testbed).
    const std::vector<int> to = {j};
    co_await Round(gid, "tabort", to, tabort);
  }
}

// ---------------------------------------------------------------------------
// Per-site execution: txn::Node, as in the testbed
// ---------------------------------------------------------------------------

sim::Task<bool> SiteEngine::ExecuteHere(std::uint64_t gid,
                                        const ClassParams& costs,
                                        const txn::RequestSpec& request,
                                        PhaseAccounting* acct) {
  const bool ok = co_await node_.ExecuteRequest(gid, costs, request, acct);
  if (ok && request.update) {
    std::vector<db::RecordId>& updated = local_.at(gid).updated;
    updated.insert(updated.end(), request.records.begin(),
                   request.records.end());
  }
  co_return ok;
}

void SiteEngine::CreditCommitted(std::uint64_t gid) {
  const auto it = local_.find(gid);
  if (it == local_.end()) return;
  for (const db::RecordId record : it->second.updated) {
    ++shadow_[static_cast<std::size_t>(record)];
  }
  it->second.updated.clear();
}

void SiteEngine::Vacate(std::uint64_t gid) {
  node_.locks().EndTxn(gid);
  local_.erase(gid);
  if (node_.dm_pool() != nullptr) node_.dm_pool()->Release();
}

// ---------------------------------------------------------------------------
// Slave-side handlers and coordinator replies
// ---------------------------------------------------------------------------

sim::Process SiteEngine::Remdo(int from, std::uint64_t gid,
                               TxnType coord_type,
                               std::vector<db::RecordId> records) {
  const ClassParams& costs = SlaveCosts(coord_type);
  const auto [it, first] = local_.try_emplace(gid);
  if (first) {
    // First touch: lazy slave DM assignment.
    it->second.coord_type = coord_type;
    if (node_.dm_pool() != nullptr) co_await node_.dm_pool()->Acquire();
    node_.locks().StartTxn(gid);
  }
  co_await node_.TmHandle(costs.tm_cpu_ms);  // slave TM, inbound
  const txn::RequestSpec request{options_.site, model::IsUpdate(coord_type),
                                 std::move(records)};
  const bool ok = co_await ExecuteHere(gid, costs, request, nullptr);
  if (!ok) {
    // Deadlock victim at the slave: roll back and vacate the node before the
    // failure response ships home.
    co_await node_.RollbackAt(gid, costs);
    Vacate(gid);
  }
  co_await node_.TmHandle(costs.tm_cpu_ms);  // slave TM, REMDO_K
  Send(from, "REMDO_K " + std::to_string(gid) + (ok ? " 1" : " 0"));
}

sim::Process SiteEngine::Prepare(int from, std::uint64_t gid) {
  const auto it = local_.find(gid);
  if (it == local_.end()) {
    // A PREPARE for unknown state means a slave leg vanished while home
    // believed it touched this node; voting yes would commit lost updates,
    // so make the violation loud instead of silently dropping it.
    std::fprintf(stderr, "site %d: PREPARE for unknown gid %llu\n",
                 options_.site, static_cast<unsigned long long>(gid));
    co_return;
  }
  const ClassParams& costs = SlaveCosts(it->second.coord_type);
  co_await node_.TmHandle(costs.tm_cpu_ms);
  node_.log().LogPrepare(gid);
  co_await node_.LogIo(1);  // forced prepare record
  Send(from, "VOTE " + std::to_string(gid));
}

sim::Process SiteEngine::CommitLeg(int from, std::uint64_t gid) {
  const auto it = local_.find(gid);
  if (it == local_.end()) {
    // Phase 2 must always ack or the coordinator waits forever; a commit of
    // already-vacated state is trivially done.
    Send(from, "COMMIT_K " + std::to_string(gid));
    co_return;
  }
  const ClassParams& costs = SlaveCosts(it->second.coord_type);
  co_await node_.TmHandle(costs.tm_cpu_ms);
  node_.log().LogCommit(gid);
  co_await node_.LogIo(1);  // commit record
  // The coordinator's decision is already logged; COMMIT makes this slave's
  // updates durable for the audit.
  CreditCommitted(gid);
  co_await node_.ReleaseLocksAt(gid, costs);
  node_.log().Forget(gid);
  Vacate(gid);
  Send(from, "COMMIT_K " + std::to_string(gid));
}

sim::Process SiteEngine::Tabort(int from, std::uint64_t gid) {
  const auto it = local_.find(gid);
  if (it == local_.end()) {
    // Aborting already-vacated state is a no-op, but the coordinator still
    // waits on the ack: never strand it.
    Send(from, "ABORT_K " + std::to_string(gid));
    co_return;
  }
  const ClassParams& costs = SlaveCosts(it->second.coord_type);
  co_await node_.TmHandle(costs.tm_cpu_ms);
  co_await node_.RollbackAt(gid, costs);
  Vacate(gid);
  Send(from, "ABORT_K " + std::to_string(gid));
}

sim::Process SiteEngine::LegReply(std::uint64_t gid) {
  const auto it = coord_txns_.find(gid);
  if (it == coord_txns_.end()) co_return;  // stale reply
  // VOTE / COMMIT_K / ABORT_K pay the home TM handling before the
  // coordinator resumes, as the in-process 2PC legs do. (For REMDO_K the
  // coordinator itself charges the home TM after waking.)
  co_await node_.TmHandle(HomeCosts(it->second.type).tm_cpu_ms);
  SignalRound(gid);
}

void SiteEngine::SignalRound(std::uint64_t gid) {
  const auto it = coord_txns_.find(gid);
  if (it == coord_txns_.end()) return;
  sim::Gate* round = it->second.round;
  // Resumes the coordinator inline when this is the round's last reply.
  if (round != nullptr && round->remaining() > 0) round->Signal();
}

// ---------------------------------------------------------------------------
// Global deadlock probes (edge-chasing with max-gid uniqueness)
// ---------------------------------------------------------------------------

void SiteEngine::SendProbe(int to, std::uint64_t initiator,
                           int initiator_site, std::uint64_t target, int hops,
                           std::uint64_t max_gid) {
  ++probes_sent_;
  Send(to, "PROBE " + std::to_string(initiator) + ' ' +
               std::to_string(initiator_site) + ' ' + std::to_string(target) +
               ' ' + std::to_string(hops) + ' ' + std::to_string(max_gid));
}

sim::Process SiteEngine::OnBlock(lock::TxnId waiter,
                                 std::vector<lock::TxnId> holders) {
  co_await ProbeHolders(waiter, holders);
}

sim::Task<void> SiteEngine::ProbeHolders(
    lock::TxnId waiter, const std::vector<lock::TxnId>& holders) {
  for (const lock::TxnId holder : holders) {
    if (node_.locks().IsWaiting(holder) || HomeOf(holder) == options_.site) {
      co_await HandleProbe(waiter, options_.site, holder, 1, waiter);
    } else {
      SendProbe(HomeOf(holder), waiter, options_.site, holder, 1, waiter);
    }
  }
}

sim::Process SiteEngine::Probe(std::uint64_t initiator, int initiator_site,
                               std::uint64_t target, int hops,
                               std::uint64_t max_gid) {
  co_await HandleProbe(initiator, initiator_site, target, hops, max_gid);
}

sim::Task<void> SiteEngine::HandleProbe(std::uint64_t initiator,
                                        int initiator_site,
                                        std::uint64_t target, int hops,
                                        std::uint64_t max_gid) {
  if (hops > options_.max_probe_hops) co_return;
  co_await node_.TmHandle(options_.probe_cpu_ms);  // relay/evaluation
  lock::LockManager& locks = node_.locks();
  if (!locks.IsWaiting(target)) {
    // Not blocked here. If this is the target's home, forward to wherever it
    // currently operates; otherwise the probe is stale.
    if (HomeOf(target) != options_.site) co_return;
    const auto it = coord_txns_.find(target);
    if (it == coord_txns_.end()) co_return;  // ended
    const int current = it->second.current_node;
    if (current == options_.site) co_return;  // running here
    SendProbe(current, initiator, initiator_site, target, hops + 1, max_gid);
    co_return;
  }
  // Evaluate: the target waits here; chase each transaction it waits for.
  const std::uint64_t new_max = std::max(max_gid, target);
  const std::vector<lock::TxnId> holders = locks.WaitingFor(target);
  for (const lock::TxnId holder : holders) {
    if (holder == initiator) {
      // Cycle closed. Only the probe initiated by the cycle's largest gid
      // declares, so exactly one victim dies per cycle.
      if (initiator >= new_max) {
        ++global_deadlocks_;
        if (initiator_site == options_.site) {
          locks.CancelWait(initiator);
        } else {
          Send(initiator_site, "VICTIM " + std::to_string(initiator));
        }
      }
      continue;
    }
    if (locks.IsWaiting(holder) || HomeOf(holder) == options_.site) {
      co_await HandleProbe(initiator, initiator_site, holder, hops + 1,
                           new_max);
    } else {
      SendProbe(HomeOf(holder), initiator, initiator_site, holder, hops + 1,
                new_max);
    }
  }
}

sim::Process SiteEngine::Watchdog() {
  for (;;) {
    co_await sim::Delay{node_.simulation(), options_.reprobe_interval_vms};
    // Re-probe every blocked transaction: probes are stateless, so lost or
    // early (pre-cycle) journeys are simply retried. The sweep runs its
    // local journeys itself, so the next one starts an interval after this
    // one ends.
    const std::vector<lock::TxnId> waiters = node_.locks().WaitingTxns();
    for (const lock::TxnId waiter : waiters) {
      const std::vector<lock::TxnId> holders =
          node_.locks().WaitingFor(waiter);
      co_await ProbeHolders(waiter, holders);
    }
  }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

void SiteEngine::ResetStats() {
  loop_.Call([this] {
    node_.ResetStats();
    messages_sent_ = 0;
    probes_sent_ = 0;
    global_deadlocks_ = 0;
    for (auto& driver : drivers_) {
      // An attempt in flight ends inside the window, as a commit or an
      // abort, so the window counts its submission too: the restart
      // probability then compares attempts that ended in one window.
      driver->submissions = driver->attempting ? 1 : 0;
      driver->commits = driver->aborts = 0;
      driver->records_committed = 0;
      driver->response_vms.Reset();
      driver->lock_wait_vms.Reset();
      driver->remote_wait_vms.Reset();
      driver->commit_wait_vms.Reset();
    }
    ext_commits_ = ext_aborts_ = 0;
    window_start_vms_ = NowVms();
    window_end_vms_ = window_start_vms_;
  });
}

void SiteEngine::StopUsers() {
  bool stopped = false;
  if (!loop_.Call([&] {
        stop_users_ = true;
        if (live_users_ == 0) window_end_vms_ = NowVms();
        stopped = live_users_ == 0;
      })) {
    return;
  }
  while (!stopped) {
    RtClock::SleepRealMs(5);
    if (!loop_.Call([&] { stopped = live_users_ == 0; })) return;
  }
}

bool SiteEngine::Drain(double timeout_real_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::duration<double, std::milli>(
                                timeout_real_ms));
  for (;;) {
    bool idle = false;
    if (!loop_.Call([&] { idle = local_.empty() && ext_active_ == 0; })) {
      return false;
    }
    if (idle) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    RtClock::SleepRealMs(10);
  }
}

EngineReport SiteEngine::Collect() {
  EngineReport report;
  loop_.Call([&] {
    report.measured_vms = window_end_vms_ - window_start_vms_;
    report.cpu_busy_vms = node_.cpu().BusyMs();
    report.db_busy_vms = node_.db_disk().BusyMs();
    report.dio = node_.db_disk().completions();
    if (node_.has_separate_log_disk()) {
      report.log_busy_vms = node_.log_disk().BusyMs();
      report.dio += node_.log_disk().completions();
    }
    const lock::LockManager& locks = node_.locks();
    report.lock_requests = locks.requests();
    report.lock_blocks = locks.blocks();
    report.local_deadlocks = locks.local_deadlocks();
    report.cancelled_waits = locks.cancelled_waits();
    report.global_deadlocks = global_deadlocks_;
    report.probes_sent = probes_sent_;
    report.messages_sent = messages_sent_;
    report.dm_pool_waits =
        node_.dm_pool() != nullptr ? node_.dm_pool()->waits() : 0;
    report.ext_commits = ext_commits_;
    report.ext_aborts = ext_aborts_;
    for (const auto& driver : drivers_) {
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
    const db::Database& database = node_.database();
    report.drained = local_.empty();
    report.audit_ok = true;
    for (db::RecordId r = 0; r < database.num_records(); ++r) {
      if (database.Read(r) !=
          static_cast<db::RecordValue>(shadow_[static_cast<std::size_t>(r)])) {
        report.audit_ok = false;
        break;
      }
    }
  });
  return report;
}

std::string SiteEngine::DebugSnapshot() {
  std::promise<std::string> result;
  std::future<std::string> snapshot = result.get_future();
  loop_.Post([this, result = std::move(result)]() mutable {
    result.set_value(Snapshot());
  });
  if (snapshot.wait_for(std::chrono::seconds(2)) ==
      std::future_status::ready) {
    try {
      return snapshot.get();
    } catch (const std::future_error&) {
      // The loop stopped before taking the request.
    }
  }
  return "site " + std::to_string(options_.site) +
         ": loop did not answer; inbox=" +
         std::to_string(loop_.inbox_depth()) + "\n";
}

std::string SiteEngine::Snapshot() {
  std::string out = "site " + std::to_string(options_.site) + " @" +
                    std::to_string(NowVms()) + "vms\n";
  for (const lock::TxnId waiter : node_.locks().WaitingTxns()) {
    out += "  lockwait gid=" + std::to_string(waiter) + " home=" +
           std::to_string(HomeOf(waiter)) + " for=[";
    bool first = true;
    for (const lock::TxnId holder : node_.locks().WaitingFor(waiter)) {
      if (!first) out += ',';
      out += std::to_string(holder);
      first = false;
    }
    out += "]\n";
  }
  for (const auto& [gid, ct] : coord_txns_) {
    const int pending = ct.round != nullptr ? ct.round->remaining() : 0;
    out += "  coord gid=" + std::to_string(gid) +
           " pending=" + std::to_string(pending) +
           " node=" + std::to_string(ct.current_node) + " phase=" + ct.phase;
    if (pending > 0) {
      out += " age=" + std::to_string(NowVms() - ct.phase_start_vms) + "vms";
    }
    out += "\n";
  }
  for (const auto& [gid, state] : local_) {
    out += "  local gid=" + std::to_string(gid) + " home=" +
           std::to_string(HomeOf(gid)) + " updated=" +
           std::to_string(state.updated.size()) + "\n";
  }
  out += "  ext_active=" + std::to_string(ext_active_) + "\n";
  // Message flow and queued work: a verb whose tx count at the peer exceeds
  // the rx count here was lost in transit; posts in the inbox and events
  // pending on the kernel are work that has arrived but not yet run.
  out += "  tx";
  for (int i = 0; i < kNumVerbs; ++i) {
    const std::uint64_t n = tx_verbs_[static_cast<std::size_t>(i)];
    if (n != 0) out += ' ' + std::string(VerbName(i)) + '=' + std::to_string(n);
  }
  out += "\n  rx";
  for (int i = 0; i < kNumVerbs; ++i) {
    const std::uint64_t n = rx_verbs_[static_cast<std::size_t>(i)].load();
    if (n != 0) out += ' ' + std::string(VerbName(i)) + '=' + std::to_string(n);
  }
  out += "\n  loop inbox=" + std::to_string(loop_.inbox_depth()) +
         " events=" + std::to_string(loop_.pending_events()) + "\n";
  return out;
}

}  // namespace carat::dist
