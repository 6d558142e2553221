#include "txn/protocol.h"

#include <algorithm>

#include "cc/cc.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace carat::txn {

namespace {

using model::ClassParams;
using model::TxnType;

// Detached 2PC leg: run the task, then signal the join gate. The leg's last
// step is a home-site await, so the gate fires in home-site context.
sim::Process RunLeg(sim::Task<void> task, sim::Gate* gate) {
  co_await task;
  gate->Signal();
}

// The granules the queue backend locks up front at a node: those of every
// record the plan touches there, ascending and without repeats.
std::vector<db::GranuleId> UpfrontGranules(
    const db::Database& database, const std::vector<db::RecordId>& records) {
  std::vector<db::GranuleId> granules;
  granules.reserve(records.size());
  for (const db::RecordId r : records) granules.push_back(database.GranuleOf(r));
  std::sort(granules.begin(), granules.end());
  granules.erase(std::unique(granules.begin(), granules.end()),
                 granules.end());
  return granules;
}

}  // namespace

void UserDriver::ResetStats() {
  commits = submissions = aborts = records_committed = 0;
  response_ms.Reset();
  lock_wait_ms.Reset();
  remote_wait_ms.Reset();
  commit_wait_ms.Reset();
}

SiteProtocol::SiteProtocol(const model::ModelInput& input, Node& node,
                           Runtime& runtime)
    : input_(input),
      node_(node),
      runtime_(runtime),
      registry_(node.index(), static_cast<int>(input.sites.size())),
      detector_(node, registry_, static_cast<int>(input.sites.size()),
                runtime, GlobalDeadlockDetector::Options()) {
  switch (input.cc_backend) {
    case cc::BackendKind::kNoWait:
      node.locks().set_conflict_policy(lock::ConflictPolicy::kAbortRequester);
      break;
    case cc::BackendKind::kWaitDie:
      node.locks().set_conflict_policy(lock::ConflictPolicy::kWaitDie);
      break;
    case cc::BackendKind::k2PL:
      // Only 2PL can form wait-for cycles; the other backends are
      // deadlock-free by construction, so their waits never feed the
      // global probe machinery.
      node.locks().on_block = [this](GlobalTxnId waiter,
                                     const std::vector<GlobalTxnId>& holders) {
        detector_.OnBlock(waiter, holders);
      };
      break;
    case cc::BackendKind::kQueue:
      break;  // ConflictPolicy::kWait: FIFO queues, the 2PL default
  }
}

void SiteProtocol::StartWatchdog() {
  if (input_.cc_backend == cc::BackendKind::k2PL) detector_.StartWatchdog();
}

// ---- user cycle -------------------------------------------------------------

sim::Task<void> SiteProtocol::RunUser(UserDriver* u, const bool* stop) {
  const sim::SitePort port = node_.simulation();
  const ClassParams& costs = HomeCosts(u->type);
  const double think = node_.params().think_time_ms;
  const int records_per_commit = costs.records_accessed();
  while (stop == nullptr || !*stop) {
    const double cycle_start = port.now();
    bool committed = false;
    Node::PhaseAccounting acct;  // accumulated across retries
    for (;;) {
      if (think > 0) co_await sim::Delay{port, think};
      // Submissions and aborts are counted when they happen, not when the
      // cycle finally commits, so an abandoned cycle's attempts still count.
      ++u->submissions;
      u->attempting = true;
      std::vector<RequestSpec> plan =
          BuildPlan(u->type, costs.local_requests, costs.remote_requests,
                    costs.records_per_request, &u->remote_rr, &u->rng);
      committed = co_await Attempt(u->type, plan, &acct, nullptr);
      u->attempting = false;
      if (committed) break;
      ++u->aborts;
      // A stopping user abandons its cycle at the retry boundary instead of
      // insisting on one more commit, which under heavy contention could
      // outlast any drain deadline.
      if (stop != nullptr && *stop) break;
      if (cc::IsRestartOriented(input_.cc_backend)) {
        // Restart backoff, uniform in [0.5, 1.5) x the mean, drawn from this
        // user's own stream so nobody else's record picks shift. Credited as
        // lock wait: it is the restart backends' substitute for queueing at
        // the lock.
        const double backoff =
            input_.restart_backoff_ms * (0.5 + u->rng.NextDouble());
        acct.lock_wait_ms += backoff;
        co_await sim::Delay{port, backoff};
      }
    }
    if (!committed) break;
    ++u->commits;
    u->records_committed += records_per_commit;
    u->response_ms.Add(port.now() - cycle_start);
    u->lock_wait_ms.Add(acct.lock_wait_ms);
    u->remote_wait_ms.Add(acct.remote_wait_ms);
    u->commit_wait_ms.Add(acct.commit_wait_ms);
  }
}

std::vector<RequestSpec> SiteProtocol::BuildPlan(TxnType type, int local,
                                                 int remote,
                                                 int records_per_request,
                                                 int* remote_rr,
                                                 util::Rng* rng) const {
  const int num_sites = static_cast<int>(input_.sites.size());
  std::vector<int> remote_nodes;
  for (int j = 0; j < num_sites; ++j) {
    if (j != site()) remote_nodes.push_back(j);
  }
  std::vector<RequestSpec> plan;
  while (local > 0 || remote > 0) {
    RequestSpec req;
    if (local >= remote) {
      req.node = site();
      --local;
    } else {
      req.node = remote_nodes[static_cast<std::size_t>((*remote_rr)++) %
                              remote_nodes.size()];
      --remote;
    }
    req.update = model::IsUpdate(type);
    req.records = PickRecords(input_.sites[static_cast<std::size_t>(req.node)],
                              records_per_request, rng);
    plan.push_back(std::move(req));
  }
  return plan;
}

// ---- home side of an attempt --------------------------------------------

sim::Task<bool> SiteProtocol::Attempt(TxnType type,
                                      std::vector<RequestSpec>& plan,
                                      Node::PhaseAccounting* acct,
                                      GlobalTxnId* gid_out) {
  const ClassParams& costs = HomeCosts(type);
  const int home = site();
  const GlobalTxnId gid = registry_.NewTxn();
  if (gid_out != nullptr) *gid_out = gid;

  const std::size_t num_sites = input_.sites.size();
  std::vector<bool> touched(num_sites, false);
  touched[static_cast<std::size_t>(home)] = true;
  // A DM server is allocated to the transaction for its lifetime at each
  // node it touches (CARAT's fixed startup pool).
  if (node_.dm_pool() != nullptr) co_await node_.dm_pool()->Acquire();
  node_.locks().StartTxn(gid);

  // Queue-oriented backend: run the plan in ascending node order and take
  // all granule locks a node needs, ascending, on first arrival there.
  // Every transaction then acquires along the same global (node, granule)
  // order, so no wait-for cycle can ever form and no abort ever happens.
  const bool queued = input_.cc_backend == cc::BackendKind::kQueue;
  std::vector<std::vector<db::RecordId>> upfront;
  std::vector<bool> upfront_done;
  if (queued) {
    std::stable_sort(plan.begin(), plan.end(),
                     [](const RequestSpec& a, const RequestSpec& b) {
                       return a.node < b.node;
                     });
    upfront.resize(num_sites);
    upfront_done.assign(num_sites, false);
    for (const RequestSpec& req : plan) {
      std::vector<db::RecordId>& records =
          upfront[static_cast<std::size_t>(req.node)];
      records.insert(records.end(), req.records.begin(), req.records.end());
    }
  }

  // INIT phase: TBEGIN and DBOPEN handling by the home TM plus DM-server
  // allocation. (Remote DM allocation folds into the first REMDO: CARAT
  // assigns slaves lazily.)
  co_await node_.TmHandle(costs.tm_cpu_ms);
  co_await node_.TmHandle(costs.tm_cpu_ms);
  co_await node_.UseCpu(costs.dm_cpu_ms);

  bool aborted = false;
  int victim_node = -1;
  for (const RequestSpec& req : plan) {
    const auto j = static_cast<std::size_t>(req.node);
    // U phase: the user process prepares the request.
    co_await node_.UseCpu(costs.u_cpu_ms);
    // Home TM routes the TDO.
    co_await node_.TmHandle(costs.tm_cpu_ms);

    const bool lock_up_front = queued && !upfront_done[j];
    if (queued) upfront_done[j] = true;
    bool ok = true;
    if (req.node == home) {
      if (lock_up_front) {
        const std::vector<db::GranuleId> granules =
            UpfrontGranules(node_.database(), upfront[j]);
        ok = co_await node_.AcquireGranules(gid, granules, req.update, acct);
      }
      if (ok) {
        ok = co_await node_.ExecuteRequest(gid, costs, req, acct,
                                           /*acquire_locks=*/!queued);
      }
      co_await node_.TmHandle(costs.tm_cpu_ms);  // DOSTEP_K routing
    } else {
      // RW span: from shipping the REMDO until its response is back home.
      // Like the model's Eq. 21, the slave's lock waits stay *inside* the
      // coordinator's remote wait (so the slave exec gets no accounting;
      // the driver's LW covers home-site waits only).
      const double rw_start = node_.simulation().now();
      registry_.SetCurrentNode(gid, req.node);  // probe routing
      Leg leg;
      leg.kind = Leg::Kind::kRemdo;
      leg.gid = gid;
      leg.type = type;
      leg.home = home;
      leg.node = req.node;
      leg.first = !touched[j];
      leg.request = &req;
      leg.upfront = lock_up_front ? &upfront[j] : nullptr;
      ok = co_await runtime_.Ship(leg);
      // A failed REMDO means the slave rolled back and vacated the node.
      touched[j] = ok;
      registry_.SetCurrentNode(gid, home);
      if (acct != nullptr) {
        acct->remote_wait_ms += node_.simulation().now() - rw_start;
      }
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
    co_await Commit(gid, type, touched, plan, acct);
  }

  // Slaves were vacated inside their commit/abort legs; only the home
  // residue remains.
  Vacate(gid);
  registry_.EndTxn(gid);
  co_return !aborted;
}

// Rollback everywhere after `gid` was chosen as a deadlock victim at
// `victim_node` (T_ABORT message flow). A remote victim node already rolled
// back inside its request leg; the home site and the surviving slaves are
// handled here, serially, from home-site context.
sim::Task<void> SiteProtocol::GlobalAbort(GlobalTxnId gid, TxnType type,
                                          int victim_node,
                                          const std::vector<bool>& touched) {
  const ClassParams& costs = HomeCosts(type);
  const int home = site();
  // The victim site rolls back first (its DM got the abort outcome).
  if (victim_node == home) co_await node_.RollbackAt(gid, costs);
  for (std::size_t j = 0; j < touched.size(); ++j) {
    const int node = static_cast<int>(j);
    if (!touched[j] || node == victim_node) continue;
    if (node == home) {
      co_await node_.RollbackAt(gid, costs);
      continue;
    }
    co_await LegAndReply(Leg::Kind::kAbort, gid, type, node);
  }
}

// Commit: direct for local transactions, centralized 2PC for distributed.
sim::Task<void> SiteProtocol::Commit(GlobalTxnId gid, TxnType type,
                                     const std::vector<bool>& touched,
                                     const std::vector<RequestSpec>& plan,
                                     Node::PhaseAccounting* acct) {
  const ClassParams& costs = HomeCosts(type);
  const sim::SitePort port = node_.simulation();
  std::vector<int> slaves;
  for (std::size_t j = 0; j < touched.size(); ++j) {
    if (touched[j] && static_cast<int>(j) != site()) slaves.push_back(j);
  }

  if (slaves.empty()) {
    // TC + TCIO: commit processing and the forced commit log record.
    co_await node_.UseCpu(costs.tc_cpu_ms);
    node_.log().LogCommit(gid);
    runtime_.CommitPoint(plan);
    co_await node_.LogIo(1);
    co_await node_.ReleaseLocksAt(gid, costs);
    node_.log().Forget(gid);
    co_return;
  }

  // --- phase 1: PREPARE (parallel legs) -------------------------------------
  const double prepare_start = port.now();
  sim::Gate prepared(static_cast<int>(slaves.size()));
  for (const int j : slaves) {
    RunLeg(LegAndReply(Leg::Kind::kPrepare, gid, type, j), &prepared);
  }
  co_await prepared.Wait();
  if (acct != nullptr) acct->commit_wait_ms += port.now() - prepare_start;

  // Decision: force-write the commit record at the coordinator.
  co_await node_.UseCpu(costs.tc_cpu_ms);
  node_.log().LogCommit(gid);
  runtime_.CommitPoint(plan);
  co_await node_.LogIo(1);

  // --- phase 2: COMMIT (parallel legs) --------------------------------------
  const double commit_start = port.now();
  sim::Gate committed(static_cast<int>(slaves.size()));
  for (const int j : slaves) {
    RunLeg(LegAndReply(Leg::Kind::kCommit, gid, type, j), &committed);
  }
  co_await committed.Wait();
  if (acct != nullptr) acct->commit_wait_ms += port.now() - commit_start;

  co_await node_.ReleaseLocksAt(gid, costs);
  node_.log().Forget(gid);
}

sim::Task<void> SiteProtocol::LegAndReply(Leg::Kind kind, GlobalTxnId gid,
                                          TxnType type, int node) {
  Leg leg;
  leg.kind = kind;
  leg.gid = gid;
  leg.type = type;
  leg.home = site();
  leg.node = node;
  co_await runtime_.Ship(leg);
  co_await node_.TmHandle(HomeCosts(type).tm_cpu_ms);  // VOTE/COMMIT_K/ABORT_K
}

void SiteProtocol::Vacate(GlobalTxnId gid) {
  node_.locks().EndTxn(gid);
  if (node_.dm_pool() != nullptr) node_.dm_pool()->Release();
}

// ---- slave steps ------------------------------------------------------------

sim::Task<bool> SiteProtocol::Serve(const Leg& leg) {
  const ClassParams& costs = node_.params().Class(model::SlaveOf(leg.type));
  const GlobalTxnId gid = leg.gid;
  switch (leg.kind) {
    case Leg::Kind::kRemdo: {
      if (leg.first) {
        // First touch: lazy slave DM assignment, at the slave itself.
        if (node_.dm_pool() != nullptr) co_await node_.dm_pool()->Acquire();
        node_.locks().StartTxn(gid);
      }
      co_await node_.TmHandle(costs.tm_cpu_ms);  // slave TM, inbound
      const bool queued = input_.cc_backend == cc::BackendKind::kQueue;
      bool ok = true;
      if (leg.upfront != nullptr) {
        // The slave's upfront waits stay inside the coordinator's remote
        // wait, like Eq. 21 treats slave lock waits.
        const std::vector<db::GranuleId> granules =
            UpfrontGranules(node_.database(), *leg.upfront);
        ok = co_await node_.AcquireGranules(gid, granules, leg.request->update,
                                            nullptr);
      }
      if (ok) {
        ok = co_await node_.ExecuteRequest(gid, costs, *leg.request, nullptr,
                                           /*acquire_locks=*/!queued);
      }
      if (!ok) {
        // Deadlock victim at the slave: its DM rolls back and vacates the
        // node before the failure response ships home (T_ABORT, local
        // part). The coordinator then aborts the surviving nodes.
        co_await node_.RollbackAt(gid, costs);
        Vacate(gid);
      }
      co_await node_.TmHandle(costs.tm_cpu_ms);  // slave TM, REMDO_K
      co_return ok;
    }
    case Leg::Kind::kPrepare:
      co_await node_.TmHandle(costs.tm_cpu_ms);
      node_.log().LogPrepare(gid);
      co_await node_.LogIo(1);  // forced prepare record, then the YES vote
      co_return true;
    case Leg::Kind::kCommit:
      co_await node_.TmHandle(costs.tm_cpu_ms);
      node_.log().LogCommit(gid);
      co_await node_.LogIo(1);  // commit record
      co_await node_.ReleaseLocksAt(gid, costs);
      node_.log().Forget(gid);
      Vacate(gid);  // the slave's part of the txn is over
      co_return true;
    case Leg::Kind::kAbort:
      co_await node_.TmHandle(costs.tm_cpu_ms);
      co_await node_.RollbackAt(gid, costs);
      Vacate(gid);
      co_return true;
  }
  co_return true;
}

}  // namespace carat::txn
