// Tests for the distributed testbed subsystem (src/dist): the real-time
// site loop (posts from other threads, wall-clock pacing of virtual time,
// exact virtual-time queueing, teardown), the TM server, DM pool and lock
// table driven on that loop, the wire vocabulary round trips,
// and — under the `dist` ctest label — full multi-process
// loopback runs: the coordinator spawns real carat_sited processes, walks
// the handshake, cross-checks the aggregate against the in-process
// RunTestbed reference, and drives the open-loop load generator against the
// live sites.
//
// The e2e tests are wall-clock bound (each site scales virtual time by
// `scale` real ms per virtual ms), so windows are kept short and the
// tolerance work is delegated to the coordinator's calibrated bounds:
//   ctest -L dist

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
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
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/sync.h"

namespace carat {
namespace {

using lock::LockMode;
using lock::LockOutcome;

// ---- RtSiteLoop: one site's kernel driven by the wall clock --------------

// Spins until `done` or ~5 s pass; the loop runs on its own thread.
bool WaitFor(const std::atomic<bool>& done) {
  for (int i = 0; i < 5000 && !done.load(); ++i) {
    dist::RtClock::SleepRealMs(1.0);
  }
  return done.load();
}

TEST(RtSiteLoop, PostedClosureRunsOnTheLoopAtWallVirtualTime) {
  dist::RtSiteLoop loop(0.1);
  loop.Start();
  dist::RtClock::SleepRealMs(20.0);  // let the loop's wall clock move on

  std::atomic<bool> ran{false};
  std::thread::id ran_on;
  std::thread::id posted_on;
  double ran_at = -1.0;
  const double posted_at = loop.clock().NowVirtualMs();
  std::thread poster([&] {
    posted_on = std::this_thread::get_id();
    loop.Post([&] {
      ran_on = std::this_thread::get_id();
      ran_at = loop.port().now();
      ran = true;
    });
  });
  poster.join();
  ASSERT_TRUE(WaitFor(ran));
  const double returned_at = loop.clock().NowVirtualMs();
  loop.Stop();

  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_NE(ran_on, posted_on);
  // Not before it was posted, and no later than it was seen to have run.
  EXPECT_GE(ran_at, posted_at);
  EXPECT_LE(ran_at, returned_at);
}

sim::Process DelayOnLoop(sim::SitePort port, double delay_vms,
                         std::chrono::steady_clock::time_point* woke,
                         std::atomic<bool>* done) {
  co_await sim::Delay{port, delay_vms};
  *woke = std::chrono::steady_clock::now();
  *done = true;
}

TEST(RtSiteLoop, DelayTakesAtLeastItsScaledRealTime) {
  constexpr double kScale = 0.5;
  constexpr double kDelayVms = 60.0;
  dist::RtSiteLoop loop(kScale);
  loop.Start();
  std::atomic<bool> done{false};
  std::chrono::steady_clock::time_point woke;
  const auto posted = std::chrono::steady_clock::now();
  loop.Post([&] { DelayOnLoop(loop.port(), kDelayVms, &woke, &done); });
  ASSERT_TRUE(WaitFor(done));
  loop.Stop();
  const std::chrono::duration<double, std::milli> real = woke - posted;
  EXPECT_GE(real.count(), kDelayVms * kScale);
}

TEST(RtSiteLoop, FcfsResourceDeliversExactVirtualDemand) {
  // Four threads post one 5 vms service each to one server: the loop
  // serializes them, and the busy time is exactly the summed virtual demand,
  // whatever the wall clock's jitter.
  dist::RtSiteLoop loop(0.01);
  sim::FcfsResource server(loop.port(), "cpu");
  loop.Start();
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      loop.Call([&] {
        [](sim::FcfsResource& res, std::atomic<int>& count) -> sim::Process {
          co_await res.Use(5.0);
          ++count;
        }(server, finished);
      });
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 5000 && finished.load() < 4; ++i) {
    dist::RtClock::SleepRealMs(1.0);
  }
  double busy = 0.0;
  std::uint64_t completions = 0;
  ASSERT_TRUE(loop.Call([&] {
    busy = server.BusyMs();
    completions = server.completions();
  }));
  loop.Stop();
  EXPECT_EQ(finished.load(), 4);
  EXPECT_DOUBLE_EQ(busy, 20.0);
  EXPECT_EQ(completions, 4u);
}

TEST(RtSiteLoop, QueueingStretchesWallClockBeyondOneService) {
  // Two 10 vms services through one server take >= 20 vms of wall clock:
  // the second starts where the first ends, never alongside it.
  constexpr double kScale = 0.5;
  dist::RtSiteLoop loop(kScale);
  sim::FcfsResource server(loop.port(), "disk");
  loop.Start();
  std::atomic<int> finished{0};
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 2; ++i) {
    loop.Post([&] {
      [](sim::FcfsResource& res, std::atomic<int>& count) -> sim::Process {
        co_await res.Use(10.0);
        ++count;
      }(server, finished);
    });
  }
  for (int i = 0; i < 5000 && finished.load() < 2; ++i) {
    dist::RtClock::SleepRealMs(0.5);
  }
  const std::chrono::duration<double, std::milli> real =
      std::chrono::steady_clock::now() - start;
  loop.Stop();
  ASSERT_EQ(finished.load(), 2);
  EXPECT_GE(real.count(), 20.0 * kScale);
}

struct SetOnDestroy {
  std::atomic<bool>* destroyed;
  ~SetOnDestroy() { *destroyed = true; }
};

sim::Process ParkOnGate(sim::Gate* gate, std::atomic<bool>* destroyed) {
  SetOnDestroy guard{destroyed};
  co_await gate->Wait();
}

TEST(RtSiteLoop, StopDestroysParkedProcessesAndRunsNothingAfter) {
  dist::RtSiteLoop loop(1.0);
  loop.Start();
  sim::Gate never(1);
  std::atomic<bool> destroyed{false};
  std::atomic<bool> late_event_ran{false};
  std::atomic<bool> late_post_ran{false};
  ASSERT_TRUE(loop.Call([&] {
    ParkOnGate(&never, &destroyed);
    // Due 30 real ms from now: after Stop below.
    loop.port().Schedule(30.0, [&] { late_event_ran = true; });
  }));
  EXPECT_FALSE(destroyed.load());
  loop.Stop();
  EXPECT_TRUE(destroyed.load());
  loop.Post([&] { late_post_ran = true; });
  EXPECT_FALSE(loop.Call([] {}));
  dist::RtClock::SleepRealMs(60.0);
  EXPECT_FALSE(late_event_ran.load());
  EXPECT_FALSE(late_post_ran.load());
}

// ---- TM server, DM pool and lock table on the real-time loop ---------------
//
// A site serves its TM, DM pool and lock table with the testbed's
// sim::FifoMutex, sim::CountingSemaphore and lock::LockManager, run as
// coroutines on its RtSiteLoop. Requests come in as posts from other threads
// (mesh readers, control); these cases drive each one that way and read its
// state back on the loop.

// Evaluates `pred` on the loop until it holds or ~5 s pass.
template <typename Pred>
bool PollOnLoop(dist::RtSiteLoop& loop, Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    bool holds = false;
    if (!loop.Call([&] { holds = pred(); })) return false;
    if (holds) return true;
    dist::RtClock::SleepRealMs(1.0);
  }
  return false;
}

sim::Process HoldUntilReleased(sim::FifoMutex& tm, sim::Gate& release) {
  co_await tm.Lock();
  co_await release.Wait();
  tm.Unlock();
}

struct TmRoundCounts {
  int served = 0;
  int holders = 0;
  int max_holders = 0;
};

sim::Process TakeTmRounds(sim::FifoMutex& tm, sim::SitePort port, int rounds,
                          TmRoundCounts* counts) {
  for (int r = 0; r < rounds; ++r) {
    co_await tm.Lock();
    counts->max_holders = std::max(counts->max_holders, ++counts->holders);
    co_await sim::Delay{port, 1.0};
    --counts->holders;
    ++counts->served;
    tm.Unlock();
  }
}

TEST(RtFifoMutex, DrainsADeepQueueWithoutCollapse) {
  // 64 threads each post a user that takes the TM 50 times. All 64 queue
  // behind a holder first, so the server drains a queue 64 deep.
  constexpr int kThreads = 64;
  constexpr int kRounds = 50;
  dist::RtSiteLoop loop(0.01);
  sim::FifoMutex tm(loop.port());
  sim::Gate release(1);
  TmRoundCounts counts;
  loop.Start();
  ASSERT_TRUE(loop.Call([&] { HoldUntilReleased(tm, release); }));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      loop.Post([&] { TakeTmRounds(tm, loop.port(), kRounds, &counts); });
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(PollOnLoop(loop, [&] { return tm.waiters() == kThreads; }));
  ASSERT_TRUE(loop.Call([&] { release.Signal(); }));
  EXPECT_TRUE(PollOnLoop(loop, [&] {
    return counts.served == kThreads * kRounds && !tm.locked();
  }));
  std::size_t left_waiting = 1;
  ASSERT_TRUE(loop.Call([&] { left_waiting = tm.waiters(); }));
  loop.Stop();
  EXPECT_EQ(counts.served, kThreads * kRounds);
  EXPECT_EQ(counts.max_holders, 1);
  EXPECT_EQ(left_waiting, 0u);
}

sim::Process HoldPermit(sim::CountingSemaphore& pool, sim::Gate& release,
                        bool* done) {
  co_await pool.Acquire();
  co_await release.Wait();
  pool.Release();
  *done = true;
}

TEST(RtSemaphore, CountsAcquisitionsThatHadToWait) {
  dist::RtSiteLoop loop(0.1);
  sim::CountingSemaphore pool(loop.port(), 1);
  sim::Gate first_release(1);
  sim::Gate second_release(1);
  bool first_done = false;
  bool second_done = false;
  std::uint64_t waits = 99;
  loop.Start();
  ASSERT_TRUE(loop.Call([&] {
    HoldPermit(pool, first_release, &first_done);
    waits = pool.waits();
  }));
  EXPECT_EQ(waits, 0u);
  std::thread other([&] {
    loop.Post([&] { HoldPermit(pool, second_release, &second_done); });
  });
  other.join();
  ASSERT_TRUE(PollOnLoop(loop, [&] { return pool.waiting() == 1; }));
  ASSERT_TRUE(loop.Call([&] { first_release.Signal(); }));
  ASSERT_TRUE(
      PollOnLoop(loop, [&] { return first_done && pool.waiting() == 0; }));
  ASSERT_TRUE(loop.Call([&] {
    waits = pool.waits();
    second_release.Signal();
  }));
  EXPECT_EQ(waits, 1u);
  ASSERT_TRUE(PollOnLoop(loop, [&] { return second_done; }));
  int available = 0;
  ASSERT_TRUE(loop.Call([&] {
    pool.ResetStats();
    waits = pool.waits();
    available = pool.available();
  }));
  loop.Stop();
  EXPECT_EQ(waits, 0u);
  EXPECT_EQ(available, 1);
}

struct LockResult {
  bool resumed = false;
  LockOutcome outcome = LockOutcome::kGranted;
};

sim::Process RequestLock(lock::LockManager& locks, lock::TxnId txn,
                         db::GranuleId granule, LockMode mode,
                         LockResult* out) {
  out->outcome = co_await locks.Acquire(txn, granule, mode);
  out->resumed = true;
}

TEST(RtLockFront, SharedHoldersCoexistAndExclusiveWaits) {
  dist::RtSiteLoop loop(0.1);
  lock::LockManager locks(loop.port());
  LockResult r1, r2, r3;
  loop.Start();
  ASSERT_TRUE(loop.Call([&] {
    for (lock::TxnId t : {1, 2, 3}) locks.StartTxn(t);
    RequestLock(locks, 1, 7, LockMode::kShared, &r1);
    RequestLock(locks, 2, 7, LockMode::kShared, &r2);
  }));
  ASSERT_TRUE(PollOnLoop(loop, [&] { return r1.resumed && r2.resumed; }));
  EXPECT_EQ(r1.outcome, LockOutcome::kGranted);
  EXPECT_EQ(r2.outcome, LockOutcome::kGranted);
  std::size_t held1 = 0;
  std::size_t held2 = 0;
  ASSERT_TRUE(loop.Call([&] {
    held1 = locks.HeldCount(1);
    held2 = locks.HeldCount(2);
  }));
  EXPECT_EQ(held1, 1u);
  EXPECT_EQ(held2, 1u);

  loop.Post([&] { RequestLock(locks, 3, 7, LockMode::kExclusive, &r3); });
  ASSERT_TRUE(PollOnLoop(loop, [&] { return locks.IsWaiting(3); }));
  std::vector<lock::TxnId> blocked_on;
  ASSERT_TRUE(loop.Call([&] {
    blocked_on = locks.WaitingFor(3);
    locks.ReleaseAll(1);
    locks.EndTxn(1);
  }));
  EXPECT_EQ(blocked_on.size(), 2u);  // both shared holders

  dist::RtClock::SleepRealMs(20.0);
  bool still_waiting = false;
  ASSERT_TRUE(loop.Call([&] {
    still_waiting = locks.IsWaiting(3) && !r3.resumed;
    locks.ReleaseAll(2);
    locks.EndTxn(2);
  }));
  EXPECT_TRUE(still_waiting);  // one conflicting holder remained
  ASSERT_TRUE(PollOnLoop(loop, [&] { return r3.resumed; }));
  EXPECT_EQ(r3.outcome, LockOutcome::kGranted);
  std::uint64_t blocks = 0;
  ASSERT_TRUE(loop.Call([&] {
    blocks = locks.blocks();
    locks.ReleaseAll(3);
    locks.EndTxn(3);
  }));
  loop.Stop();
  EXPECT_EQ(blocks, 1u);
}

TEST(RtLockFront, LocalCycleKillsTheRequesterThatClosesIt) {
  dist::RtSiteLoop loop(0.1);
  lock::LockManager locks(loop.port());
  LockResult h1, h2, w1, w2;
  loop.Start();
  ASSERT_TRUE(loop.Call([&] {
    locks.StartTxn(1);
    locks.StartTxn(2);
    RequestLock(locks, 1, 10, LockMode::kExclusive, &h1);
    RequestLock(locks, 2, 20, LockMode::kExclusive, &h2);
  }));
  ASSERT_TRUE(PollOnLoop(loop, [&] { return h1.resumed && h2.resumed; }));
  loop.Post([&] { RequestLock(locks, 2, 10, LockMode::kExclusive, &w2); });
  ASSERT_TRUE(PollOnLoop(loop, [&] { return locks.IsWaiting(2); }));

  // 1 -> 2 would close the 1 -> 2 -> 1 cycle: the requester dies on the
  // spot, without ever joining the queue.
  loop.Post([&] { RequestLock(locks, 1, 20, LockMode::kExclusive, &w1); });
  ASSERT_TRUE(PollOnLoop(loop, [&] { return w1.resumed; }));
  EXPECT_EQ(w1.outcome, LockOutcome::kAborted);
  bool victim_queued = true;
  std::uint64_t deadlocks = 0;
  std::uint64_t blocks = 0;
  ASSERT_TRUE(loop.Call([&] {
    victim_queued = locks.IsWaiting(1);
    deadlocks = locks.local_deadlocks();
    blocks = locks.blocks();
    locks.ReleaseAll(1);  // the victim rolls back; the survivor's wait ends
    locks.EndTxn(1);
  }));
  EXPECT_FALSE(victim_queued);
  EXPECT_EQ(deadlocks, 1u);
  EXPECT_EQ(blocks, 2u);  // the aborted conflict counts too
  ASSERT_TRUE(PollOnLoop(loop, [&] { return w2.resumed; }));
  EXPECT_EQ(w2.outcome, LockOutcome::kGranted);
  ASSERT_TRUE(loop.Call([&] {
    locks.ReleaseAll(2);
    locks.EndTxn(2);
  }));
  loop.Stop();
}

TEST(RtLockFront, CancelWaitResumesTheWaiterWithAborted) {
  dist::RtSiteLoop loop(0.1);
  lock::LockManager locks(loop.port());
  LockResult holder, waiter;
  loop.Start();
  ASSERT_TRUE(loop.Call([&] {
    locks.StartTxn(1);
    locks.StartTxn(2);
    RequestLock(locks, 1, 5, LockMode::kExclusive, &holder);
  }));
  loop.Post([&] { RequestLock(locks, 2, 5, LockMode::kShared, &waiter); });
  ASSERT_TRUE(PollOnLoop(loop, [&] { return locks.IsWaiting(2); }));

  bool cancelled = false;
  // A global VICTIM message lands here.
  ASSERT_TRUE(loop.Call([&] { cancelled = locks.CancelWait(2); }));
  EXPECT_TRUE(cancelled);
  ASSERT_TRUE(PollOnLoop(loop, [&] { return waiter.resumed; }));
  EXPECT_EQ(waiter.outcome, LockOutcome::kAborted);
  std::uint64_t cancelled_waits = 0;
  bool cancelled_again = true;
  std::size_t held = 1;
  ASSERT_TRUE(loop.Call([&] {
    cancelled_waits = locks.cancelled_waits();
    cancelled_again = locks.CancelWait(2);  // nothing pending any more
    held = locks.HeldCount(2);
    locks.EndTxn(2);
    locks.ReleaseAll(1);
    locks.EndTxn(1);
  }));
  loop.Stop();
  EXPECT_EQ(cancelled_waits, 1u);
  EXPECT_FALSE(cancelled_again);
  EXPECT_EQ(held, 0u);
}

TEST(RtLockFront, OnBlockReportsTheConflictingHolders) {
  dist::RtSiteLoop loop(0.1);
  lock::LockManager locks(loop.port());
  lock::TxnId blocked_waiter = 0;
  std::vector<lock::TxnId> blocked_holders;
  locks.on_block = [&](lock::TxnId waiter,
                       const std::vector<lock::TxnId>& holders) {
    blocked_waiter = waiter;
    blocked_holders = holders;
  };
  LockResult holder, waiter;
  loop.Start();
  ASSERT_TRUE(loop.Call([&] {
    locks.StartTxn(9);
    locks.StartTxn(11);
    RequestLock(locks, 9, 3, LockMode::kExclusive, &holder);
  }));
  loop.Post([&] { RequestLock(locks, 11, 3, LockMode::kExclusive, &waiter); });
  ASSERT_TRUE(PollOnLoop(loop, [&] { return blocked_waiter != 0; }));
  EXPECT_EQ(blocked_waiter, 11u);
  EXPECT_EQ(blocked_holders, (std::vector<lock::TxnId>{9}));
  ASSERT_TRUE(loop.Call([&] {
    locks.ReleaseAll(9);
    locks.EndTxn(9);
  }));
  ASSERT_TRUE(PollOnLoop(loop, [&] { return waiter.resumed; }));
  EXPECT_EQ(waiter.outcome, LockOutcome::kGranted);
  ASSERT_TRUE(loop.Call([&] {
    locks.ReleaseAll(11);
    locks.EndTxn(11);
  }));
  loop.Stop();
}

// ---- SiteEngine: DUMP diagnostics -----------------------------------------

TEST(SiteEngine, DebugSnapshotShowsWaitStateAndTheLoopQueue) {
  dist::wire::DistConfig config;
  config.workload = "lb8";
  config.sites = 1;
  dist::EngineOptions options;
  options.scale = 0.1;
  dist::SiteEngine engine(config.ToModelInput(), options,
                          [](int, const std::string&) {});
  engine.Start();
  dist::RtClock::SleepRealMs(50.0);
  const std::string live = engine.DebugSnapshot();
  EXPECT_EQ(live.rfind("site 0 @", 0), 0u) << live;
  EXPECT_NE(live.find("coord gid="), std::string::npos) << live;
  EXPECT_NE(live.find("loop inbox="), std::string::npos) << live;
  EXPECT_NE(live.find(" events="), std::string::npos) << live;

  engine.Stop();
  const std::string stopped = engine.DebugSnapshot();
  EXPECT_NE(stopped.find("loop did not answer"), std::string::npos)
      << stopped;
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
      " seed=1 scale=0.1 users=1";
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

TEST(DistE2e, EveryBackendRunsOnTheSharedProtocol) {
  // The sites run txn::SiteProtocol, so the restart backends and the queue
  // backend need no dist code of their own: each site only sets its lock
  // table's policy, and the queue backend's REMDO carries its upfront plan.
  for (const char* cc : {"nowait", "waitdie", "queue"}) {
    auto options = BaseE2eOptions();
    if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
    options.config.workload = "mb8";
    options.config.requests_per_txn = 8;
    options.config.sites = 2;
    options.config.cc = cc;
    options.check = false;  // the reference tolerances are calibrated on 2PL

    const auto result = dist::RunDistributed(options);
    ASSERT_TRUE(result.ok) << cc << ": " << result.error;
    EXPECT_TRUE(result.all_drained) << cc;
    EXPECT_TRUE(result.all_audits_ok) << cc;
    EXPECT_GT(result.commits, 0u) << cc;
    if (std::string(cc) == "queue") {
      // Ordered upfront locking: no wait-for cycle, so nothing to abort or
      // probe.
      std::uint64_t probes = 0;
      for (const dist::EngineReport& r : result.reports) {
        probes += r.probes_sent;
      }
      EXPECT_EQ(result.aborts, 0u);
      EXPECT_EQ(probes, 0u);
    }
  }
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
