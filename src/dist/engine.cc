#include "dist/engine.h"

#include <algorithm>
#include <cstdio>
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
      protocol_(input_, node_, *this),
      ext_rng_(options.seed ^ 0xD15Cul ^
               (static_cast<std::uint64_t>(options.site) << 32)) {
  shadow_.assign(static_cast<std::size_t>(node_.database().num_records()), 0);
}

SiteEngine::~SiteEngine() { Stop(); }

void SiteEngine::Start(double warmup_real_ms, double measure_real_ms,
                       std::function<void()> users_stopped) {
  users_stopped_ = std::move(users_stopped);
  const double warmup_vms = warmup_real_ms / options_.scale;
  const double measure_vms = measure_real_ms / options_.scale;
  loop_.Arrive([this, warmup_vms, measure_vms] {
    if (options_.spawn_users) {
      const model::SiteParams& site = params();
      util::Rng root(options_.seed ^
                     (0x5173ull + static_cast<std::uint64_t>(options_.site)));
      for (TxnType t : {TxnType::kLRO, TxnType::kLU, TxnType::kDROC,
                        TxnType::kDUC}) {
        for (int u = 0; u < site.Class(t).population; ++u) {
          auto driver = std::make_unique<txn::UserDriver>();
          driver->home = options_.site;
          driver->type = t;
          driver->rng = root.Fork();
          drivers_.push_back(std::move(driver));
        }
      }
      for (auto& driver : drivers_) {
        ++live_users_;
        UserLoop(driver.get());
      }
    }
    protocol_.StartWatchdog();
    window_start_vms_ = NowVms();
    loop_.port().Schedule(warmup_vms, [this] { ResetStats(); });
    loop_.port().Schedule(warmup_vms + measure_vms, [this] { StopUsers(); });
  });
}

void SiteEngine::Stop() { loop_.Stop(); }

// ---------------------------------------------------------------------------
// Wire encode / decode and dispatch
// ---------------------------------------------------------------------------

namespace {

// Request and reply verbs of each leg kind, indexed by txn::Leg::Kind.
constexpr std::array<std::string_view, 4> kLegVerbs = {"REMDO", "PREPARE",
                                                        "COMMIT", "TABORT"};
constexpr std::array<std::string_view, 4> kReplyVerbs = {"REMDO_K", "VOTE",
                                                          "COMMIT_K",
                                                          "ABORT_K"};

int KindOf(const std::array<std::string_view, 4>& verbs,
           std::string_view verb) {
  for (std::size_t k = 0; k < verbs.size(); ++k) {
    if (verbs[k] == verb) return static_cast<int>(k);
  }
  return -1;
}

}  // namespace

int SiteEngine::VerbIndex(std::string_view verb) {
  for (int i = 0; i < kNumVerbs - 1; ++i) {
    if (verb == VerbName(i)) return i;
  }
  return kNumVerbs - 1;
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
  loop_.Arrive([this, from, body = std::move(body)] { Dispatch(from, body); });
}

sim::Task<bool> SiteEngine::Ship(const txn::Leg& leg) {
  // "<verb> <gid> <type>", and for REMDO "<first> <records> [<upfront>]".
  std::string body(kLegVerbs[static_cast<std::size_t>(leg.kind)]);
  body += ' ' + std::to_string(leg.gid) + ' ' +
          std::to_string(model::Index(leg.type));
  if (leg.kind == txn::Leg::Kind::kRemdo) {
    body += leg.first ? " 1 " : " 0 ";
    body += wire::JoinRecords(leg.request->records);
    if (leg.upfront != nullptr) body += ' ' + wire::JoinRecords(*leg.upfront);
  }
  PendingLeg pending;
  pending.kind = leg.kind;
  pending.since_vms = NowVms();
  const std::pair<std::uint64_t, int> key{leg.gid, leg.node};
  legs_[key] = &pending;
  Send(leg.node, body);
  co_await pending.reply.Wait();
  legs_.erase(key);
  co_return pending.ok;
}

void SiteEngine::ShipProbe(int site, const txn::Probe& probe) {
  if (probe.stage == txn::Probe::Stage::kVictim) {
    Send(site, "VICTIM " + std::to_string(probe.initiator));
    return;
  }
  Send(site, "PROBE " + std::to_string(probe.initiator) + ' ' +
                 std::to_string(probe.initiator_site) + ' ' +
                 std::to_string(probe.target) + ' ' +
                 std::to_string(probe.hops) + ' ' +
                 std::to_string(probe.max_id) +
                 (probe.stage == txn::Probe::Stage::kEvaluate ? " 1" : " 0"));
}

void SiteEngine::Dispatch(int from, const std::string& body) {
  wire::TokenReader reader(body);
  std::string_view verb;
  std::uint64_t gid = 0;
  if (!reader.Next(&verb) || !reader.NextU64(&gid)) return;
  if (const int kind = KindOf(kLegVerbs, verb); kind >= 0) {
    LegMessage message;
    txn::Leg& leg = message.leg;
    int type_index = 0;
    if (!reader.NextInt(&type_index) || type_index < 0 ||
        type_index >= model::kNumTxnTypes) {
      return;
    }
    leg.kind = static_cast<txn::Leg::Kind>(kind);
    leg.gid = gid;
    leg.type = static_cast<TxnType>(type_index);
    leg.home = from;
    leg.node = options_.site;
    if (leg.kind == txn::Leg::Kind::kRemdo) {
      int first = 0;
      std::string_view records;
      if (!reader.NextInt(&first) || !reader.Next(&records) ||
          !wire::SplitRecords(records, &message.request.records)) {
        return;
      }
      leg.first = first != 0;
      message.request.node = options_.site;
      message.request.update = model::IsUpdate(leg.type);
      std::string_view upfront;
      if (reader.Next(&upfront)) {
        if (!wire::SplitRecords(upfront, &message.upfront)) return;
        message.has_upfront = true;
      }
      const db::RecordId num_records = node_.database().num_records();
      const auto out_of_range = [num_records](db::RecordId r) {
        return r < 0 || r >= num_records;
      };
      if (std::any_of(message.request.records.begin(),
                      message.request.records.end(), out_of_range) ||
          std::any_of(message.upfront.begin(), message.upfront.end(),
                      out_of_range)) {
        return;
      }
    }
    ServeLeg(from, std::move(message));
  } else if (const int reply = KindOf(kReplyVerbs, verb); reply >= 0) {
    const auto it = legs_.find({gid, from});
    if (it == legs_.end()) return;  // stale reply
    PendingLeg* pending = it->second;
    if (reply == static_cast<int>(txn::Leg::Kind::kRemdo)) {
      int ok = 1;
      if (!reader.NextInt(&ok)) return;
      pending->ok = ok != 0;
    }
    pending->reply.Signal();  // resumes the shipping coroutine inline
  } else if (verb == "PROBE") {
    txn::Probe probe;
    probe.initiator = gid;
    int evaluate = 0;
    if (reader.NextInt(&probe.initiator_site) &&
        reader.NextU64(&probe.target) && reader.NextInt(&probe.hops) &&
        reader.NextU64(&probe.max_id) && reader.NextInt(&evaluate)) {
      probe.stage = evaluate != 0 ? txn::Probe::Stage::kEvaluate
                                  : txn::Probe::Stage::kRelay;
      protocol_.detector().Receive(probe);
    }
  } else if (verb == "VICTIM") {
    txn::Probe probe;
    probe.stage = txn::Probe::Stage::kVictim;
    probe.initiator = gid;
    probe.initiator_site = options_.site;
    protocol_.detector().Receive(probe);
  }
}

sim::Process SiteEngine::ServeLeg(int from, LegMessage message) {
  txn::Leg& leg = message.leg;
  leg.request = &message.request;
  leg.upfront = message.has_upfront ? &message.upfront : nullptr;
  std::string reply(kReplyVerbs[static_cast<std::size_t>(leg.kind)]);
  reply += ' ' + std::to_string(leg.gid);
  // A slave leg is resident here from its first REMDO until its COMMIT or
  // T_ABORT step is done, or its REMDO fails.
  if (leg.kind == txn::Leg::Kind::kRemdo) {
    slaves_.try_emplace(leg.gid);
  } else if (!slaves_.contains(leg.gid)) {
    // A peer out of step: no step runs on state this site does not hold.
    // Voting yes would commit lost updates, so a PREPARE gets no vote and
    // the stuck round shows in the coordinator's DUMP; a COMMIT or T_ABORT
    // of vacated state is trivially done and must not strand the home.
    std::fprintf(stderr, "site %d: %s for unknown gid %llu\n", options_.site,
                 std::string(kLegVerbs[static_cast<std::size_t>(leg.kind)])
                     .c_str(),
                 static_cast<unsigned long long>(leg.gid));
    if (leg.kind != txn::Leg::Kind::kPrepare) Send(from, reply);
    co_return;
  }
  const bool ok = co_await protocol_.Serve(leg);
  switch (leg.kind) {
    case txn::Leg::Kind::kRemdo:
      if (!ok) {
        slaves_.erase(leg.gid);
      } else if (message.request.update) {
        std::vector<db::RecordId>& updated = slaves_[leg.gid];
        updated.insert(updated.end(), message.request.records.begin(),
                       message.request.records.end());
      }
      reply += ok ? " 1" : " 0";
      break;
    case txn::Leg::Kind::kPrepare:
      break;
    case txn::Leg::Kind::kCommit: {
      // The coordinator's decision is already logged; COMMIT makes this
      // slave's updates durable for the audit.
      const auto it = slaves_.find(leg.gid);
      if (it != slaves_.end()) {
        for (const db::RecordId r : it->second) {
          ++shadow_[static_cast<std::size_t>(r)];
        }
        slaves_.erase(it);
      }
      break;
    }
    case txn::Leg::Kind::kAbort:
      slaves_.erase(leg.gid);
      break;
  }
  Send(from, reply);
  CheckDrained();
}

void SiteEngine::CommitPoint(const std::vector<txn::RequestSpec>& plan) {
  // The home part of the audit; each slave credits its own at COMMIT.
  for (const txn::RequestSpec& req : plan) {
    if (req.node != options_.site || !req.update) continue;
    for (const db::RecordId r : req.records) {
      ++shadow_[static_cast<std::size_t>(r)];
    }
  }
}

// ---------------------------------------------------------------------------
// Resident users and external transactions
// ---------------------------------------------------------------------------

sim::Process SiteEngine::UserLoop(txn::UserDriver* driver) {
  co_await protocol_.RunUser(driver, &stop_users_);
  // Users stop only once stop_users_ is set, so the last one to stop ends
  // the measured window.
  --live_users_;
  window_end_vms_ = NowVms();
  if (live_users_ == 0 && users_stopped_) std::exchange(users_stopped_, {})();
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
  loop_.Arrive([this, type, local_requests, remote_requests,
                done = std::move(done)]() mutable {
    ExternalTxn(type, local_requests, remote_requests, std::move(done));
  });
}

sim::Process SiteEngine::ExternalTxn(TxnType type, int local_requests,
                                     int remote_requests, TxnDone done) {
  util::Rng rng = ext_rng_.Fork();
  ++ext_active_;
  int records_per_request = params().Class(type).records_per_request;
  if (records_per_request <= 0) records_per_request = 4;
  const double start_vms = NowVms();
  std::uint64_t retries = 0;
  std::uint64_t gid = 0;
  int remote_rr = 0;
  for (;;) {
    std::vector<txn::RequestSpec> plan =
        protocol_.BuildPlan(type, local_requests, remote_requests,
                            records_per_request, &remote_rr, &rng);
    txn::Node::PhaseAccounting acct;
    const bool committed = co_await protocol_.Attempt(type, plan, &acct, &gid);
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
  CheckDrained();
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

void SiteEngine::ResetStats() {
  node_.ResetStats();
  messages_sent_ = 0;
  protocol_.detector().ResetStats();
  for (auto& driver : drivers_) {
    driver->ResetStats();
    // An attempt in flight ends inside the window, as a commit or an
    // abort, so the window counts its submission too: the restart
    // probability then compares attempts that ended in one window.
    if (driver->attempting) driver->submissions = 1;
  }
  ext_commits_ = ext_aborts_ = 0;
  window_start_vms_ = NowVms();
  window_end_vms_ = window_start_vms_;
}

void SiteEngine::StopUsers() {
  stop_users_ = true;
  if (live_users_ != 0) return;  // the last user to stop ends the window
  window_end_vms_ = NowVms();
  if (users_stopped_) std::exchange(users_stopped_, {})();
}

void SiteEngine::Drain(double timeout_real_ms,
                       std::function<void(bool drained)> done) {
  drained_ = std::move(done);
  loop_.Arrive([this, timeout_vms = timeout_real_ms / options_.scale] {
    CheckDrained();
    loop_.port().Schedule(timeout_vms, [this] {
      if (drained_) std::exchange(drained_, {})(false);
    });
  });
}

void SiteEngine::CheckDrained() {
  if (drained_ && slaves_.empty() && ext_active_ == 0) {
    std::exchange(drained_, {})(true);
  }
}

EngineReport SiteEngine::Collect() {
  EngineReport report;
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
  report.global_deadlocks = protocol_.detector().global_deadlocks();
  report.probes_sent = protocol_.detector().probes_sent();
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
    t.response_sum_vms += driver->response_ms.Sum();
    t.lock_wait_sum_vms += driver->lock_wait_ms.Sum();
    t.remote_wait_sum_vms += driver->remote_wait_ms.Sum();
    t.commit_wait_sum_vms += driver->commit_wait_ms.Sum();
  }
  // Audit: with everything drained, every record must equal the number of
  // committed updates applied to it (atomicity + write serialization).
  const db::Database& database = node_.database();
  report.drained = slaves_.empty();
  report.audit_ok = true;
  for (db::RecordId r = 0; r < database.num_records(); ++r) {
    if (database.Read(r) !=
        static_cast<db::RecordValue>(shadow_[static_cast<std::size_t>(r)])) {
      report.audit_ok = false;
      break;
    }
  }
  return report;
}

std::string SiteEngine::DebugSnapshot() {
  if (loop_.stopped()) {
    return "site " + std::to_string(options_.site) + ": loop stopped\n";
  }
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
  for (const auto& [gid, node] : protocol_.registry().current_nodes()) {
    out += "  coord gid=" + std::to_string(gid) +
           " node=" + std::to_string(node) + "\n";
  }
  for (const auto& [key, pending] : legs_) {
    out += "  leg gid=" + std::to_string(key.first) +
           " to=" + std::to_string(key.second) + " verb=" +
           std::string(kLegVerbs[static_cast<std::size_t>(pending->kind)]) +
           " age=" + std::to_string(NowVms() - pending->since_vms) + "vms\n";
  }
  for (const auto& [gid, updated] : slaves_) {
    out += "  slave gid=" + std::to_string(gid) + " home=" +
           std::to_string(HomeOf(gid)) + " updated=" +
           std::to_string(updated.size()) + "\n";
  }
  out += "  ext_active=" + std::to_string(ext_active_) + "\n";
  // Message flow and queued work: a verb whose tx count at the peer exceeds
  // the rx count here was lost in transit; events pending on the kernel are
  // work that has arrived or been timed but not yet run.
  out += "  tx";
  for (int i = 0; i < kNumVerbs; ++i) {
    const std::uint64_t n = tx_verbs_[static_cast<std::size_t>(i)];
    if (n != 0) out += ' ' + std::string(VerbName(i)) + '=' + std::to_string(n);
  }
  out += "\n  rx";
  for (int i = 0; i < kNumVerbs; ++i) {
    const std::uint64_t n = rx_verbs_[static_cast<std::size_t>(i)];
    if (n != 0) out += ' ' + std::string(VerbName(i)) + '=' + std::to_string(n);
  }
  out += "\n  loop events=" + std::to_string(loop_.pending_events()) + "\n";
  return out;
}

}  // namespace carat::dist
