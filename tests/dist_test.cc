// Tests for the distributed testbed subsystem (src/dist): the real-time
// execution primitives (reservation-ledger FCFS resource, FIFO ticket
// mutex, DM semaphore), the thread-blocking front over the shared 2PL lock
// table (cancellable waits, local cycle detection), the wire vocabulary
// round trips, and — under the `dist` ctest label — full multi-process
// loopback runs: the coordinator spawns real carat_sited processes, walks
// the handshake, cross-checks the aggregate against the in-process
// RunTestbed reference, and drives the open-loop load generator against the
// live sites.
//
// The e2e tests are wall-clock bound (each site scales virtual time by
// `scale` real ms per virtual ms), so windows are kept short and the
// tolerance work is delegated to the coordinator's calibrated bounds:
//   ctest -L dist

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cc/cc.h"
#include "dist/coordinator.h"
#include "dist/engine.h"
#include "dist/loadgen.h"
#include "dist/runtime.h"
#include "dist/wire.h"
#include "lock/lock_manager.h"
#include "model/types.h"

namespace carat {
namespace {

using lock::LockMode;
using lock::LockOutcome;

// ---- RtResource: the reservation-ledger FCFS server ------------------------

TEST(RtResource, LedgerDeliversExactVirtualDemand) {
  // Four threads contend for one server; the ledger serializes them, and the
  // delivered busy time is *exactly* the summed virtual demand — scheduler
  // overshoot must not leak into the measurement.
  dist::RtClock clock(0.01);  // 100x real time: the whole test is ~0.8 ms
  dist::RtResource server(&clock);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] { server.Use(5.0); });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(server.BusyVirtualMs(), 20.0);
  EXPECT_EQ(server.completions(), 4u);

  server.ResetStats();
  EXPECT_DOUBLE_EQ(server.BusyVirtualMs(), 0.0);
  EXPECT_EQ(server.completions(), 0u);
}

TEST(RtResource, QueueingStretchesWallClockBeyondOneService) {
  // Two 10 vms services through one server take >= 20 vms of wall clock:
  // the second reservation starts where the first ends, never alongside it.
  dist::RtClock clock(0.01);
  dist::RtResource server(&clock);
  const auto start = std::chrono::steady_clock::now();
  std::thread other([&] { server.Use(10.0); });
  server.Use(10.0);
  other.join();
  const std::chrono::duration<double, std::milli> real =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(real.count(), 20.0 * 0.01 * 0.95);  // 5% timer slack
}

// ---- RtFifoMutex: the serially reusable TM server --------------------------

TEST(RtFifoMutex, ServesWaitersInArrivalOrder) {
  dist::RtFifoMutex tm;
  std::vector<int> order;
  tm.Lock();  // hold while the waiters enqueue, staggered far apart
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&tm, &order, i] {
      dist::RtClock::SleepRealMs(80.0 * i);
      tm.Lock();
      order.push_back(i);
      tm.Unlock();
    });
  }
  dist::RtClock::SleepRealMs(80.0 * 3);
  tm.Unlock();
  for (auto& t : threads) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Regression: the ticket-lock implementation woke every waiter per release
// (O(queue) wakeups per service), which livelocked a site once the watchdog's
// probe storm queued a few thousand TmHandle calls. The handoff version wakes
// exactly one; a deep queue must drain while preserving mutual exclusion.
TEST(RtFifoMutex, DrainsADeepQueueWithoutCollapse) {
  dist::RtFifoMutex tm;
  int counter = 0;  // non-atomic on purpose: races would corrupt it
  constexpr int kThreads = 64;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        tm.Lock();
        ++counter;
        tm.Unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kRounds);
  EXPECT_EQ(tm.Depth(), 0u);
}

// ---- RtSemaphore: the DM pool ----------------------------------------------

TEST(RtSemaphore, CountsAcquisitionsThatHadToWait) {
  dist::RtSemaphore pool(1);
  pool.Acquire();
  EXPECT_EQ(pool.waits(), 0u);
  std::thread blocked([&] { pool.Acquire(); });
  dist::RtClock::SleepRealMs(50.0);
  pool.Release();
  blocked.join();
  EXPECT_EQ(pool.waits(), 1u);
  pool.Release();
  pool.ResetStats();
  EXPECT_EQ(pool.waits(), 0u);
}

// ---- WorkerPool: spawn-on-demand must never strand a queued task -----------

// Regression: Submit used to trust `idle_ > 0` and notify_one, but a waiter
// already released for an earlier task still counts as idle, so the second
// notify could be lost and the task sat queued until the first handler
// finished. With handler A blocking until handler B runs (a REMDO waiting on
// the VICTIM cancel that only a later message delivers), that was a deadlock.
TEST(WorkerPool, RunsAQueuedTaskWhileAnEarlierTaskBlocks) {
  dist::WorkerPool pool;

  // Park one worker in the idle state so Submit takes the notify path.
  {
    std::promise<void> warm;
    pool.Submit([&] { warm.set_value(); });
    warm.get_future().wait();
  }
  dist::RtClock::SleepRealMs(50.0);

  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::promise<void> unblocked;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return released; });
    unblocked.set_value();
  });
  pool.Submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  });

  auto done = unblocked.get_future();
  const bool ok =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!ok) {
    // Unblock manually so the pool destructor can join instead of hanging.
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
  EXPECT_TRUE(ok) << "second task stranded behind a blocked worker";
}

// A burst that blocks several handlers at once spawns that many workers;
// once the burst resolves the extra workers must retire instead of parking
// forever (a contended run was observed stranding thousands).
TEST(WorkerPool, IdleWorkersRetireAfterABurst) {
  dist::WorkerPool pool;
  {
    std::mutex mu;
    std::condition_variable cv;
    bool released = false;
    std::vector<std::future<void>> running;
    for (int i = 0; i < 8; ++i) {
      auto started = std::make_shared<std::promise<void>>();
      running.push_back(started->get_future());
      pool.Submit([&, started] {
        started->set_value();
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return released; });
      });
    }
    for (auto& f : running) f.wait();
    EXPECT_GE(pool.stats().threads, 8u);
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
  // Retirement triggers after ~2s idle; poll rather than assume scheduling.
  std::size_t live = 0;
  for (int i = 0; i < 100; ++i) {
    live = pool.stats().threads;
    if (live <= 1) break;
    dist::RtClock::SleepRealMs(100.0);
  }
  EXPECT_LE(live, 1u) << "idle workers never retired";
}

// ---- RtLockFront: lock::LockManager with thread-blocking waits -------------

TEST(RtLockFront, SharedHoldersCoexistAndExclusiveWaits) {
  dist::RtLockFront locks;
  EXPECT_EQ(locks.Acquire(1, 7, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 7, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_EQ(locks.HeldCount(1), 1u);
  EXPECT_EQ(locks.HeldCount(2), 1u);

  LockOutcome outcome = LockOutcome::kAborted;
  std::thread writer([&] { outcome = locks.Acquire(3, 7, LockMode::kExclusive); });
  while (!locks.IsWaiting(3)) dist::RtClock::SleepRealMs(1.0);
  const auto blocked_on = locks.WaitingFor(3);
  EXPECT_EQ(blocked_on.size(), 2u);  // both shared holders

  locks.EndTxn(1);
  dist::RtClock::SleepRealMs(20.0);
  EXPECT_TRUE(locks.IsWaiting(3));  // one conflicting holder remains
  locks.EndTxn(2);
  writer.join();
  EXPECT_EQ(outcome, LockOutcome::kGranted);
  EXPECT_EQ(locks.blocks(), 1u);
  locks.EndTxn(3);
}

TEST(RtLockFront, LocalCycleKillsTheRequesterThatClosesIt) {
  dist::RtLockFront locks;
  ASSERT_EQ(locks.Acquire(1, 10, LockMode::kExclusive), LockOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 20, LockMode::kExclusive), LockOutcome::kGranted);

  LockOutcome waiter_outcome = LockOutcome::kAborted;
  std::thread waiter([&] {
    waiter_outcome = locks.Acquire(2, 10, LockMode::kExclusive);
  });
  while (!locks.IsWaiting(2)) dist::RtClock::SleepRealMs(1.0);

  // 1 -> 2 would close the 1 -> 2 -> 1 cycle: the requester dies on the
  // spot, without ever joining the queue.
  EXPECT_EQ(locks.Acquire(1, 20, LockMode::kExclusive), LockOutcome::kAborted);
  EXPECT_EQ(locks.local_deadlocks(), 1u);
  EXPECT_EQ(locks.blocks(), 2u);  // the aborted conflict counts too

  locks.EndTxn(1);  // victim rolls back; the survivor's wait resolves
  waiter.join();
  EXPECT_EQ(waiter_outcome, LockOutcome::kGranted);
  locks.EndTxn(2);
}

TEST(RtLockFront, CancelWaitResumesTheWaiterWithAborted) {
  dist::RtLockFront locks;
  ASSERT_EQ(locks.Acquire(1, 5, LockMode::kExclusive), LockOutcome::kGranted);
  LockOutcome outcome = LockOutcome::kGranted;
  std::thread waiter([&] { outcome = locks.Acquire(2, 5, LockMode::kShared); });
  while (!locks.IsWaiting(2)) dist::RtClock::SleepRealMs(1.0);

  EXPECT_TRUE(locks.CancelWait(2));  // a global VICTIM message lands here
  waiter.join();
  EXPECT_EQ(outcome, LockOutcome::kAborted);
  EXPECT_EQ(locks.cancelled_waits(), 1u);
  EXPECT_FALSE(locks.CancelWait(2));  // nothing pending any more
  EXPECT_EQ(locks.HeldCount(2), 0u);
  locks.EndTxn(1);
}

TEST(RtLockFront, OnBlockReportsTheConflictingHolders) {
  dist::RtLockFront locks;
  std::mutex mu;
  std::condition_variable cv;
  dist::TxnId blocked_waiter = 0;
  std::vector<dist::TxnId> blocked_holders;
  locks.on_block = [&](dist::TxnId waiter, std::vector<dist::TxnId> holders) {
    std::lock_guard<std::mutex> guard(mu);
    blocked_waiter = waiter;
    blocked_holders = std::move(holders);
    cv.notify_all();
  };

  ASSERT_EQ(locks.Acquire(9, 3, LockMode::kExclusive), LockOutcome::kGranted);
  std::thread waiter([&] { locks.Acquire(11, 3, LockMode::kExclusive); });
  {
    std::unique_lock<std::mutex> guard(mu);
    ASSERT_TRUE(cv.wait_for(guard, std::chrono::seconds(5),
                            [&] { return blocked_waiter != 0; }));
  }
  EXPECT_EQ(blocked_waiter, 11u);
  EXPECT_EQ(blocked_holders, (std::vector<dist::TxnId>{9}));
  locks.EndTxn(9);
  waiter.join();
  locks.EndTxn(11);
}

// ---- Wire vocabulary -------------------------------------------------------

TEST(Wire, TokenReaderWalksTypedTokens) {
  dist::wire::TokenReader reader("REMDO 42 DU 1,2,3 -7 2.5");
  std::string_view verb;
  ASSERT_TRUE(reader.Next(&verb));
  EXPECT_EQ(verb, "REMDO");
  std::uint64_t gid = 0;
  ASSERT_TRUE(reader.NextU64(&gid));
  EXPECT_EQ(gid, 42u);
  std::string_view type;
  ASSERT_TRUE(reader.Next(&type));
  EXPECT_EQ(type, "DU");
  std::string_view records;
  ASSERT_TRUE(reader.Next(&records));
  int negative = 0;
  ASSERT_TRUE(reader.NextInt(&negative));
  EXPECT_EQ(negative, -7);
  double fraction = 0.0;
  ASSERT_TRUE(reader.NextDouble(&fraction));
  EXPECT_DOUBLE_EQ(fraction, 2.5);
  std::string_view end;
  EXPECT_FALSE(reader.Next(&end));
}

TEST(Wire, RecordListsRoundTripAndRejectGarbage) {
  const std::vector<db::RecordId> records{5, 0, 999};
  const std::string joined = dist::wire::JoinRecords(records);
  std::vector<db::RecordId> back;
  ASSERT_TRUE(dist::wire::SplitRecords(joined, &back));
  EXPECT_EQ(back, records);
  EXPECT_FALSE(dist::wire::SplitRecords("1,,2", &back));
  EXPECT_FALSE(dist::wire::SplitRecords("1,x", &back));
}

TEST(Wire, DistConfigSurvivesTheControlChannel) {
  dist::wire::DistConfig config;
  config.workload = "ub6";
  config.cc = "waitdie";
  config.requests_per_txn = 6;
  config.sites = 4;
  config.num_granules = 48;
  config.records_per_granule = 3;
  config.dm_pool_size = 5;
  config.think_time_ms = 12.5;
  config.seed = 987654321;
  config.scale = 0.05;
  config.spawn_users = false;
  config.probe_cpu_ms = 1.25;
  config.reprobe_interval_ms = 333.0;
  config.max_probe_hops = 17;

  dist::wire::DistConfig decoded;
  std::string error;
  ASSERT_TRUE(dist::wire::DistConfig::Decode(config.Encode(), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.workload, config.workload);
  EXPECT_EQ(decoded.cc, config.cc);
  EXPECT_EQ(decoded.requests_per_txn, config.requests_per_txn);
  EXPECT_EQ(decoded.sites, config.sites);
  EXPECT_EQ(decoded.num_granules, config.num_granules);
  EXPECT_EQ(decoded.records_per_granule, config.records_per_granule);
  EXPECT_EQ(decoded.dm_pool_size, config.dm_pool_size);
  EXPECT_DOUBLE_EQ(decoded.think_time_ms, config.think_time_ms);
  EXPECT_EQ(decoded.seed, config.seed);
  EXPECT_DOUBLE_EQ(decoded.scale, config.scale);
  EXPECT_EQ(decoded.spawn_users, config.spawn_users);
  EXPECT_DOUBLE_EQ(decoded.probe_cpu_ms, config.probe_cpu_ms);
  EXPECT_DOUBLE_EQ(decoded.reprobe_interval_ms, config.reprobe_interval_ms);
  EXPECT_EQ(decoded.max_probe_hops, config.max_probe_hops);

  // The shipped config must reconstruct the same workload on every site,
  // including the concurrency-control backend.
  const auto spec = decoded.ToSpec();
  EXPECT_EQ(spec.cc_backend, cc::BackendKind::kWaitDie);
  EXPECT_EQ(spec.ToModelInput().sites.size(), 4u);
}

TEST(Wire, DistConfigWithoutCcMeansTwoPhaseLocking) {
  // Pre-backend coordinators never send a cc token; the decoder must treat
  // that as 2PL so old and new binaries interoperate.
  dist::wire::DistConfig decoded;
  std::string error;
  const std::string body =
      " workload=mb8 n=8 sites=2 granules=3000 rpg=6 dm_pool=0 think_ms=0"
      " seed=1 scale=0.1 users=1 probe_cpu=1 reprobe_ms=200 max_hops=64";
  ASSERT_TRUE(dist::wire::DistConfig::Decode(body, &decoded, &error)) << error;
  EXPECT_EQ(decoded.cc, "2pl");
  EXPECT_EQ(decoded.ToSpec().cc_backend, cc::BackendKind::k2PL);
}

TEST(Wire, DistConfigRejectsUnknownCcBackend) {
  dist::wire::DistConfig config;
  config.cc = "optimistic";
  dist::wire::DistConfig decoded;
  std::string error;
  EXPECT_FALSE(dist::wire::DistConfig::Decode(config.Encode(), &decoded,
                                              &error));
  EXPECT_NE(error.find("unknown cc backend"), std::string::npos) << error;
}

TEST(Wire, CheckMeshBackendsRejectsMixedMeshes) {
  EXPECT_EQ(dist::wire::CheckMeshBackends({"2pl", "2pl"}, "2pl"), "");
  EXPECT_EQ(dist::wire::CheckMeshBackends({"queue", "queue"}, "queue"), "");
  const std::string mixed =
      dist::wire::CheckMeshBackends({"2pl", "queue"}, "2pl");
  EXPECT_NE(mixed.find("mixed-backend mesh"), std::string::npos) << mixed;
  EXPECT_NE(mixed.find("site 1"), std::string::npos) << mixed;
  // A homogeneous mesh that disagrees with the coordinator's config is just
  // as broken: the sites would execute a different protocol than CONFIG
  // describes.
  const std::string wrong =
      dist::wire::CheckMeshBackends({"nowait", "nowait"}, "2pl");
  EXPECT_NE(wrong.find("mixed-backend mesh"), std::string::npos) << wrong;
}

TEST(Wire, EngineReportSurvivesTheReportChannel) {
  dist::EngineReport report;
  report.measured_vms = 5000.25;
  report.cpu_busy_vms = 1234.5;
  report.db_busy_vms = 678.0;
  report.log_busy_vms = 90.0;
  report.dio = 4321;
  report.lock_requests = 999;
  report.lock_blocks = 55;
  report.local_deadlocks = 3;
  report.cancelled_waits = 2;
  report.global_deadlocks = 7;
  report.probes_sent = 41;
  report.messages_sent = 1234;
  report.dm_pool_waits = 11;
  report.ext_commits = 17;
  report.ext_aborts = 4;
  report.drained = true;
  report.audit_ok = true;
  auto& lu = report.types[model::Index(model::TxnType::kLU)];
  lu.present = true;
  lu.commits = 120;
  lu.submissions = 130;
  lu.aborts = 10;
  lu.records_committed = 960;
  lu.response_sum_vms = 43210.5;
  lu.lock_wait_sum_vms = 1000.25;
  lu.remote_wait_sum_vms = 0.0;
  lu.commit_wait_sum_vms = 420.75;

  dist::EngineReport decoded;
  ASSERT_TRUE(dist::EngineReport::Decode(report.Encode(), &decoded));
  EXPECT_DOUBLE_EQ(decoded.measured_vms, report.measured_vms);
  EXPECT_DOUBLE_EQ(decoded.cpu_busy_vms, report.cpu_busy_vms);
  EXPECT_DOUBLE_EQ(decoded.db_busy_vms, report.db_busy_vms);
  EXPECT_DOUBLE_EQ(decoded.log_busy_vms, report.log_busy_vms);
  EXPECT_EQ(decoded.dio, report.dio);
  EXPECT_EQ(decoded.lock_requests, report.lock_requests);
  EXPECT_EQ(decoded.lock_blocks, report.lock_blocks);
  EXPECT_EQ(decoded.local_deadlocks, report.local_deadlocks);
  EXPECT_EQ(decoded.cancelled_waits, report.cancelled_waits);
  EXPECT_EQ(decoded.global_deadlocks, report.global_deadlocks);
  EXPECT_EQ(decoded.probes_sent, report.probes_sent);
  EXPECT_EQ(decoded.messages_sent, report.messages_sent);
  EXPECT_EQ(decoded.dm_pool_waits, report.dm_pool_waits);
  EXPECT_EQ(decoded.ext_commits, report.ext_commits);
  EXPECT_EQ(decoded.ext_aborts, report.ext_aborts);
  EXPECT_TRUE(decoded.drained);
  EXPECT_TRUE(decoded.audit_ok);
  const auto& lu2 = decoded.types[model::Index(model::TxnType::kLU)];
  EXPECT_TRUE(lu2.present);
  EXPECT_EQ(lu2.commits, lu.commits);
  EXPECT_EQ(lu2.submissions, lu.submissions);
  EXPECT_EQ(lu2.aborts, lu.aborts);
  EXPECT_EQ(lu2.records_committed, lu.records_committed);
  EXPECT_DOUBLE_EQ(lu2.response_sum_vms, lu.response_sum_vms);
  EXPECT_DOUBLE_EQ(lu2.lock_wait_sum_vms, lu.lock_wait_sum_vms);
  EXPECT_DOUBLE_EQ(lu2.commit_wait_sum_vms, lu.commit_wait_sum_vms);
  EXPECT_FALSE(decoded.types[model::Index(model::TxnType::kDUC)].present);
}

// ---- Multi-process loopback runs (ctest -L dist) ---------------------------

dist::DistRunOptions BaseE2eOptions() {
  dist::DistRunOptions options;
  options.config.scale = 0.1;
  options.config.seed = 20260808;
  options.warmup_real_ms = 800.0;
  options.measure_real_ms = 2500.0;
  options.sited_bin = dist::ResolveSitedBinary();
  return options;
}

// The cross-check's inputs and errors, so a failure keeps its numbers.
std::string CrossCheckNumbers(const dist::DistRunResult& r) {
  std::ostringstream out;
  out << "txn/s " << r.dist_txn_per_s << " vs reference " << r.ref_txn_per_s
      << " (rel err " << r.throughput_rel_err << "), response ms "
      << r.dist_response_ms << " vs " << r.ref_response_ms << " (rel err "
      << r.response_rel_err << "), restart ratio " << r.dist_restart_prob
      << " vs " << r.ref_restart_prob << " (abs err " << r.restart_abs_err
      << ")";
  return out.str();
}

TEST(DistE2e, TwoSiteCrossCheckAgainstTheReference) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 2;

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);
  EXPECT_GT(result.commits, 0u);
  EXPECT_GT(result.messages_sent, 0u);  // mb8 crosses sites
  EXPECT_GT(result.alpha_virtual_ms, 0.0);
  ASSERT_TRUE(result.checked);
  EXPECT_TRUE(result.within_tolerance) << CrossCheckNumbers(result);
}

TEST(DistE2e, FourSiteAllLocalWorkloadStaysQuiet) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "lb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 4;
  options.measure_real_ms = 2000.0;

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);
  EXPECT_GT(result.commits, 0u);
  EXPECT_EQ(result.global_deadlocks, 0u);  // all-local: no cross-site cycles
  ASSERT_TRUE(result.checked);
  EXPECT_TRUE(result.within_tolerance) << CrossCheckNumbers(result);
}

TEST(DistE2e, ContendedRunDetectsGlobalDeadlocksAndStaysConsistent) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 2;
  // Small database: cross-site cycles form reliably (4-14 per run across
  // seeds) while the drain cascade still resolves in a couple of seconds.
  // Far smaller databases (e.g. 48 granules) wind up so hard that victim
  // rollback + re-probe cascades can outlast the coordinator's DRAINED
  // deadline on a loaded machine.
  options.config.num_granules = 160;
  options.measure_real_ms = 2000.0;
  options.check = false;  // the reference tolerance is calibrated uncontended

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);  // every probe victim rolled back cleanly
  EXPECT_GT(result.global_deadlocks, 0u);
  EXPECT_GT(result.dist_restart_prob, 0.0);
}

TEST(DistE2e, LoadgenDrivesOpenLoopTrafficWithMergedHistograms) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 2;
  options.config.spawn_users = false;  // external traffic only
  options.check = false;
  options.measure_real_ms = 2500.0;

  dist::LoadgenResult load;
  options.during_measure = [&](const std::vector<std::string>& endpoints) {
    // Let every site pass its warm-up ResetStats first, so the sites'
    // ext_commits counters see the whole load-generator run.
    dist::RtClock::SleepRealMs(options.warmup_real_ms + 300.0);
    dist::LoadgenOptions lg;
    lg.targets = endpoints;
    lg.connections = 2;
    lg.ops_per_txn = 4;
    lg.type = "mix";
    lg.rate_per_s = 60.0;
    lg.duration_s = 1.5;
    load = dist::RunLoadgen(lg);
  };

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);
  EXPECT_EQ(result.commits, 0u);  // no resident users were spawned

  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_GT(load.scheduled, 0u);
  EXPECT_EQ(load.completed, load.scheduled);
  EXPECT_EQ(load.errors, 0u);
  EXPECT_GT(load.committed, 0u);
  EXPECT_EQ(load.histogram.count(), load.completed);
  EXPECT_GT(load.p50_ms, 0.0);
  EXPECT_GE(load.p99_ms, load.p50_ms);
  // Sites account the external transactions they served.
  EXPECT_EQ(result.ext_commits, load.committed);
}

}  // namespace
}  // namespace carat
