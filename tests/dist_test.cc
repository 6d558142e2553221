// Tests for the distributed testbed subsystem (src/dist): the real-time
// site loop (socket arrivals, wall-clock pacing of virtual time, exact
// virtual-time queueing, teardown, a stalled peer), the TM server, DM pool
// and lock table driven on that loop, the wire vocabulary round trips,
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

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
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
#include "rpc/client.h"
#include "rpc/connection_set.h"
#include "rpc/framing.h"
#include "model/types.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/sync.h"

namespace carat {
namespace {

using lock::LockMode;
using lock::LockOutcome;

// ---- RtSiteLoop: one site's kernel driven by the wall clock --------------
//
// The loop runs on the thread that calls Run, as in a carat_sited, so these
// cases drive it from the test's own thread: work enters through Arrive (as
// a frame off a socket does) and state is read between runs.

using ConnId = rpc::ConnectionSet::ConnId;

void IgnoreClose(ConnId, const std::string&) {}

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// Runs the loop until `pred` holds; false if it ran out of events first.
template <typename Pred>
bool RunUntil(dist::RtSiteLoop& loop, Pred pred) {
  loop.Run(nullptr, [&] { return pred(); });
  return pred();
}

TEST(RtSiteLoop, SocketFrameRunsNoEarlierThanItsWallClockArrival) {
  dist::RtSiteLoop loop(0.1);
  bool ran = false;
  double ran_at = -1.0;
  std::thread::id ran_on;
  rpc::ConnectionSet net(
      [&](ConnId, const std::string&, const std::string& body) {
        loop.Arrive([&, body] {
          ran_on = std::this_thread::get_id();
          ran_at = loop.port().now();
          ran = body == "VOTE 7";
        });
      },
      IgnoreClose);
  std::string error;
  ASSERT_TRUE(net.Listen(&error)) << error;
  rpc::Client::ConnectOptions copts;
  copts.framing = rpc::FramingKind::kBinary;
  rpc::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port(), &error, copts));
  SleepMs(20.0);  // the wall clock moves on; the kernel not

  const double sent_at = loop.clock().NowVirtualMs();
  ASSERT_TRUE(client.SendLine("0 VOTE 7"));
  loop.Run(&net, [&] { return ran; });
  const double returned_at = loop.clock().NowVirtualMs();

  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // Not before it was sent, and no later than it was seen to have run.
  EXPECT_GE(ran_at, sent_at);
  EXPECT_LE(ran_at, returned_at);
}

sim::Process DelayOnLoop(sim::SitePort port, double delay_vms,
                         std::chrono::steady_clock::time_point* woke,
                         bool* done) {
  co_await sim::Delay{port, delay_vms};
  *woke = std::chrono::steady_clock::now();
  *done = true;
}

TEST(RtSiteLoop, DelayTakesAtLeastItsScaledRealTime) {
  constexpr double kScale = 0.5;
  constexpr double kDelayVms = 60.0;
  dist::RtSiteLoop loop(kScale);
  bool done = false;
  std::chrono::steady_clock::time_point woke;
  const auto posted = std::chrono::steady_clock::now();
  loop.Arrive([&] { DelayOnLoop(loop.port(), kDelayVms, &woke, &done); });
  ASSERT_TRUE(RunUntil(loop, [&] { return done; }));
  const std::chrono::duration<double, std::milli> real = woke - posted;
  EXPECT_GE(real.count(), kDelayVms * kScale);
}

sim::Process UseOnce(sim::FcfsResource& res, double vms, int* count) {
  co_await res.Use(vms);
  ++*count;
}

TEST(RtSiteLoop, FcfsResourceDeliversExactVirtualDemand) {
  // Four arrivals of one 5 vms service each at one server: the loop
  // serializes them, and the busy time is exactly the summed virtual demand,
  // whatever the wall clock's jitter.
  dist::RtSiteLoop loop(0.01);
  sim::FcfsResource server(loop.port(), "cpu");
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    loop.Arrive([&] { UseOnce(server, 5.0, &finished); });
  }
  ASSERT_TRUE(RunUntil(loop, [&] { return finished == 4; }));
  EXPECT_DOUBLE_EQ(server.BusyMs(), 20.0);
  EXPECT_EQ(server.completions(), 4u);
}

TEST(RtSiteLoop, QueueingStretchesWallClockBeyondOneService) {
  // Two 10 vms services through one server take >= 20 vms of wall clock:
  // the second starts where the first ends, never alongside it.
  constexpr double kScale = 0.5;
  dist::RtSiteLoop loop(kScale);
  sim::FcfsResource server(loop.port(), "disk");
  int finished = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 2; ++i) {
    loop.Arrive([&] { UseOnce(server, 10.0, &finished); });
  }
  ASSERT_TRUE(RunUntil(loop, [&] { return finished == 2; }));
  const std::chrono::duration<double, std::milli> real =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(real.count(), 20.0 * kScale);
}

struct SetOnDestroy {
  bool* destroyed;
  ~SetOnDestroy() { *destroyed = true; }
};

sim::Process ParkOnGate(sim::Gate* gate, bool* destroyed) {
  SetOnDestroy guard{destroyed};
  co_await gate->Wait();
}

TEST(RtSiteLoop, StopDestroysParkedProcessesAndRunsNothingAfter) {
  dist::RtSiteLoop loop(1.0);
  sim::Gate never(1);
  bool parked = false;
  bool destroyed = false;
  bool late_event_ran = false;
  bool late_arrival_ran = false;
  loop.Arrive([&] {
    ParkOnGate(&never, &destroyed);
    // Due 30 real ms from now: after Stop below.
    loop.port().Schedule(30.0, [&] { late_event_ran = true; });
    parked = true;
  });
  ASSERT_TRUE(RunUntil(loop, [&] { return parked; }));
  EXPECT_FALSE(destroyed);
  loop.Stop();
  EXPECT_TRUE(destroyed);
  loop.Arrive([&] { late_arrival_ran = true; });
  SleepMs(60.0);
  loop.Run(nullptr, [] { return false; });  // returns at once: stopped
  EXPECT_FALSE(late_event_ran);
  EXPECT_FALSE(late_arrival_ran);
}

// A timer on the loop that sends a large frame down a link every tick and
// records how late each tick ran against its wall-clock deadline.
struct StallProbe {
  dist::RtSiteLoop* loop = nullptr;
  rpc::ConnectionSet* net = nullptr;
  ConnId link = 0;
  std::string chunk;
  std::string failure;  ///< the link's close reason, once reported
  std::size_t sent_bytes = 0;
  int ticks_after_failure = 0;
  double worst_lateness_ms = 0.0;
};

sim::Process Tick(StallProbe* probe, double every_vms) {
  for (;;) {
    co_await sim::Delay{probe->loop->port(), every_vms};
    const std::chrono::duration<double, std::milli> late =
        std::chrono::steady_clock::now() -
        probe->loop->clock().WallTime(probe->loop->port().now());
    probe->worst_lateness_ms = std::max(probe->worst_lateness_ms, late.count());
    if (!probe->failure.empty()) {
      ++probe->ticks_after_failure;
    } else if (probe->net->Send(probe->link, "0", probe->chunk)) {
      probe->sent_bytes += probe->chunk.size();
    }
  }
}

TEST(RtSiteLoop, StalledPeerCannotFreezeTheLoop) {
  // The peer is a listener nobody ever serves: the kernel completes the
  // handshake and buffers what it can, then takes nothing more. The loop
  // keeps sending 256 KiB a tick. Sends never block, so every tick keeps its
  // wall-clock deadline; once the link's unsent output passes the bound the
  // link fails, its close is reported, and the ticks go on.
  dist::RtSiteLoop loop(0.1);
  StallProbe probe;
  rpc::ConnectionSet net([](ConnId, const std::string&, const std::string&) {},
                         [&](ConnId conn, const std::string& reason) {
                           if (conn == probe.link) probe.failure = reason;
                         });
  rpc::ConnectionSet stalled(
      [](ConnId, const std::string&, const std::string&) {}, IgnoreClose);
  std::string error;
  ASSERT_TRUE(stalled.Listen(&error)) << error;
  probe.loop = &loop;
  probe.net = &net;
  probe.link = net.Dial("127.0.0.1", stalled.port(), &error);
  ASSERT_NE(probe.link, 0u) << error;
  probe.chunk.assign(256 << 10, 'x');
  loop.Arrive([&] { Tick(&probe, 10.0); });  // every 1 real ms

  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  loop.Run(&net, [&] {
    return probe.ticks_after_failure >= 50 ||
           std::chrono::steady_clock::now() > give_up;
  });
  loop.Stop();
  EXPECT_NE(probe.failure.find("outbound buffer over"), std::string::npos)
      << "link never failed: " << probe.failure;
  EXPECT_GT(probe.sent_bytes, rpc::ConnectionSet::kMaxOutboundBytes);
  EXPECT_GE(probe.ticks_after_failure, 50);
  // Generous for loaded and sanitized hosts; a blocking send never returns.
  EXPECT_LT(probe.worst_lateness_ms, 500.0);
}

// ---- TM server, DM pool and lock table on the real-time loop ---------------
//
// A site serves its TM, DM pool and lock table with the testbed's
// sim::FifoMutex, sim::CountingSemaphore and lock::LockManager, run as
// coroutines on its RtSiteLoop. Requests come in as arrivals (mesh frames,
// control verbs); these cases drive each one that way and read its state
// between runs.

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
  // 64 users arrive, each taking the TM 50 times. All 64 queue behind a
  // holder first, so the server drains a queue 64 deep.
  constexpr int kUsers = 64;
  constexpr int kRounds = 50;
  dist::RtSiteLoop loop(0.01);
  sim::FifoMutex tm(loop.port());
  sim::Gate release(1);
  TmRoundCounts counts;
  loop.Arrive([&] { HoldUntilReleased(tm, release); });
  for (int i = 0; i < kUsers; ++i) {
    loop.Arrive([&] { TakeTmRounds(tm, loop.port(), kRounds, &counts); });
  }
  ASSERT_TRUE(RunUntil(loop, [&] { return tm.waiters() == kUsers; }));
  loop.Arrive([&] { release.Signal(); });
  EXPECT_TRUE(RunUntil(loop, [&] {
    return counts.served == kUsers * kRounds && !tm.locked();
  }));
  EXPECT_EQ(counts.served, kUsers * kRounds);
  EXPECT_EQ(counts.max_holders, 1);
  EXPECT_EQ(tm.waiters(), 0u);
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
  loop.Arrive([&] { HoldPermit(pool, first_release, &first_done); });
  ASSERT_TRUE(RunUntil(loop, [&] { return pool.available() == 0; }));
  EXPECT_EQ(pool.waits(), 0u);
  loop.Arrive([&] { HoldPermit(pool, second_release, &second_done); });
  ASSERT_TRUE(RunUntil(loop, [&] { return pool.waiting() == 1; }));
  loop.Arrive([&] { first_release.Signal(); });
  ASSERT_TRUE(
      RunUntil(loop, [&] { return first_done && pool.waiting() == 0; }));
  EXPECT_EQ(pool.waits(), 1u);
  loop.Arrive([&] { second_release.Signal(); });
  ASSERT_TRUE(RunUntil(loop, [&] { return second_done; }));
  pool.ResetStats();
  EXPECT_EQ(pool.waits(), 0u);
  EXPECT_EQ(pool.available(), 1);
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
  loop.Arrive([&] {
    for (lock::TxnId t : {1, 2, 3}) locks.StartTxn(t);
    RequestLock(locks, 1, 7, LockMode::kShared, &r1);
    RequestLock(locks, 2, 7, LockMode::kShared, &r2);
  });
  ASSERT_TRUE(RunUntil(loop, [&] { return r1.resumed && r2.resumed; }));
  EXPECT_EQ(r1.outcome, LockOutcome::kGranted);
  EXPECT_EQ(r2.outcome, LockOutcome::kGranted);
  EXPECT_EQ(locks.HeldCount(1), 1u);
  EXPECT_EQ(locks.HeldCount(2), 1u);

  loop.Arrive([&] { RequestLock(locks, 3, 7, LockMode::kExclusive, &r3); });
  ASSERT_TRUE(RunUntil(loop, [&] { return locks.IsWaiting(3); }));
  EXPECT_EQ(locks.WaitingFor(3).size(), 2u);  // both shared holders
  bool released = false;
  loop.Arrive([&] {
    locks.ReleaseAll(1);
    locks.EndTxn(1);
    released = true;
  });
  ASSERT_TRUE(RunUntil(loop, [&] { return released; }));

  SleepMs(20.0);
  loop.Run(nullptr, [] { return true; });  // one more round
  EXPECT_TRUE(locks.IsWaiting(3) && !r3.resumed);  // one holder remained
  loop.Arrive([&] {
    locks.ReleaseAll(2);
    locks.EndTxn(2);
  });
  ASSERT_TRUE(RunUntil(loop, [&] { return r3.resumed; }));
  EXPECT_EQ(r3.outcome, LockOutcome::kGranted);
  EXPECT_EQ(locks.blocks(), 1u);
  locks.ReleaseAll(3);
  locks.EndTxn(3);
}

TEST(RtLockFront, LocalCycleKillsTheRequesterThatClosesIt) {
  dist::RtSiteLoop loop(0.1);
  lock::LockManager locks(loop.port());
  LockResult h1, h2, w1, w2;
  loop.Arrive([&] {
    locks.StartTxn(1);
    locks.StartTxn(2);
    RequestLock(locks, 1, 10, LockMode::kExclusive, &h1);
    RequestLock(locks, 2, 20, LockMode::kExclusive, &h2);
  });
  ASSERT_TRUE(RunUntil(loop, [&] { return h1.resumed && h2.resumed; }));
  loop.Arrive([&] { RequestLock(locks, 2, 10, LockMode::kExclusive, &w2); });
  ASSERT_TRUE(RunUntil(loop, [&] { return locks.IsWaiting(2); }));

  // 1 -> 2 would close the 1 -> 2 -> 1 cycle: the requester dies on the
  // spot, without ever joining the queue.
  loop.Arrive([&] { RequestLock(locks, 1, 20, LockMode::kExclusive, &w1); });
  ASSERT_TRUE(RunUntil(loop, [&] { return w1.resumed; }));
  EXPECT_EQ(w1.outcome, LockOutcome::kAborted);
  EXPECT_FALSE(locks.IsWaiting(1));
  EXPECT_EQ(locks.local_deadlocks(), 1u);
  EXPECT_EQ(locks.blocks(), 2u);  // the aborted conflict counts too
  loop.Arrive([&] {
    locks.ReleaseAll(1);  // the victim rolls back; the survivor's wait ends
    locks.EndTxn(1);
  });
  ASSERT_TRUE(RunUntil(loop, [&] { return w2.resumed; }));
  EXPECT_EQ(w2.outcome, LockOutcome::kGranted);
  locks.ReleaseAll(2);
  locks.EndTxn(2);
}

TEST(RtLockFront, CancelWaitResumesTheWaiterWithAborted) {
  dist::RtSiteLoop loop(0.1);
  lock::LockManager locks(loop.port());
  LockResult holder, waiter;
  loop.Arrive([&] {
    locks.StartTxn(1);
    locks.StartTxn(2);
    RequestLock(locks, 1, 5, LockMode::kExclusive, &holder);
  });
  loop.Arrive([&] { RequestLock(locks, 2, 5, LockMode::kShared, &waiter); });
  ASSERT_TRUE(RunUntil(loop, [&] { return locks.IsWaiting(2); }));

  bool cancelled = false;
  // A global VICTIM message lands here.
  loop.Arrive([&] { cancelled = locks.CancelWait(2); });
  ASSERT_TRUE(RunUntil(loop, [&] { return waiter.resumed; }));
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(waiter.outcome, LockOutcome::kAborted);
  EXPECT_EQ(locks.cancelled_waits(), 1u);
  EXPECT_FALSE(locks.CancelWait(2));  // nothing pending any more
  EXPECT_EQ(locks.HeldCount(2), 0u);
  locks.EndTxn(2);
  locks.ReleaseAll(1);
  locks.EndTxn(1);
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
  loop.Arrive([&] {
    locks.StartTxn(9);
    locks.StartTxn(11);
    RequestLock(locks, 9, 3, LockMode::kExclusive, &holder);
  });
  loop.Arrive([&] { RequestLock(locks, 11, 3, LockMode::kExclusive, &waiter); });
  ASSERT_TRUE(RunUntil(loop, [&] { return blocked_waiter != 0; }));
  EXPECT_EQ(blocked_waiter, 11u);
  EXPECT_EQ(blocked_holders, (std::vector<lock::TxnId>{9}));
  loop.Arrive([&] {
    locks.ReleaseAll(9);
    locks.EndTxn(9);
  });
  ASSERT_TRUE(RunUntil(loop, [&] { return waiter.resumed; }));
  EXPECT_EQ(waiter.outcome, LockOutcome::kGranted);
  locks.ReleaseAll(11);
  locks.EndTxn(11);
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
  engine.Start(/*warmup_real_ms=*/60'000.0, /*measure_real_ms=*/60'000.0,
               nullptr);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  engine.Run(nullptr,
             [&] { return std::chrono::steady_clock::now() >= until; });
  const std::string live = engine.DebugSnapshot();
  EXPECT_EQ(live.rfind("site 0 @", 0), 0u) << live;
  EXPECT_NE(live.find("coord gid="), std::string::npos) << live;
  EXPECT_NE(live.find("loop events="), std::string::npos) << live;

  engine.Stop();
  const std::string stopped = engine.DebugSnapshot();
  EXPECT_NE(stopped.find("loop stopped"), std::string::npos) << stopped;
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
    SleepMs(options.warmup_real_ms + 300.0);
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

// ---- One carat_sited against a stand-in coordinator (ctest -L dist) --------

// Plays coordinator to one carat_sited child: listens for its control link,
// spawns it with stderr captured to a file, and records its control frames.
class SitedHarness {
 public:
  SitedHarness()
      : net_(
            [this](ConnId conn, const std::string&, const std::string& body) {
              if (body.rfind("HELLO", 0) == 0) control_ = conn;
              if (conn == control_) control_frames_.push_back(body);
            },
            [this](ConnId conn, const std::string&) {
              closed_.push_back(conn);
            }) {}

  ~SitedHarness() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (!log_path_.empty()) ::unlink(log_path_.c_str());
  }

  /// Spawns site `site` and waits for its HELLO; false (with a message) if
  /// the binary is missing or the site never says hello.
  bool Spawn(int site, std::string* error) {
    const std::string sited = dist::ResolveSitedBinary();
    if (sited.empty()) {
      *error = "carat_sited not built";
      return false;
    }
    if (!net_.Listen(error)) return false;
    log_path_ = testing::TempDir() + "sited_" + std::to_string(::getpid()) +
                "_" + std::to_string(site) + ".log";
    const std::string coord = "127.0.0.1:" + std::to_string(net_.port());
    const std::string site_arg = std::to_string(site);
    pid_ = ::fork();
    if (pid_ == 0) {
      const int log = ::open(log_path_.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) ::dup2(log, 2);
      ::execl(sited.c_str(), "carat_sited", "--coordinator", coord.c_str(),
              "--site", site_arg.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    if (!PumpUntil([&] { return control_ != 0; }, 10'000)) {
      *error = "no HELLO from the site";
      return false;
    }
    const auto kv = dist::wire::ParseKv(control_frames_.front());
    int port = 0;
    dist::wire::KvInt(kv, "port", &port);
    mesh_port_ = static_cast<std::uint16_t>(port);
    return true;
  }

  /// CONFIG (an mb8 mesh of `sites`, no resident users) and PEERS, naming
  /// the site under test's own endpoint for every index.
  void Configure(int sites) {
    dist::wire::DistConfig config;
    config.sites = sites;
    config.spawn_users = false;
    SendControl("CONFIG" + config.Encode());
    std::string peers = "PEERS";
    for (int i = 0; i < sites; ++i) {
      peers += " 127.0.0.1:" + std::to_string(mesh_port_);
    }
    SendControl(peers);
  }

  void SendControl(const std::string& body) { net_.Send(control_, "0", body); }

  /// Dials the site's mesh port and sends `body` on the new link.
  ConnId DialMesh(const std::string& body) {
    std::string error;
    const ConnId conn = net_.Dial("127.0.0.1", mesh_port_, &error);
    net_.Send(conn, "0", body);
    return conn;
  }

  /// Serves the sockets until `done()` holds or `timeout_ms` pass.
  template <typename Done>
  bool PumpUntil(Done done, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      net_.Poll(deadline);
    }
    return done();
  }

  bool SawControl(const std::string& verb) const {
    return std::any_of(
        control_frames_.begin(), control_frames_.end(),
        [&](const std::string& f) { return f.rfind(verb, 0) == 0; });
  }
  bool Closed(ConnId conn) const {
    return std::find(closed_.begin(), closed_.end(), conn) != closed_.end();
  }

  /// The child's exit status once it has exited, serving the sockets while
  /// waiting; -1 if it is still running after `timeout_ms`.
  int WaitExit(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    int status = 0;
    // The child's sockets close before it can be reaped, so the sockets are
    // served in short slices between reap attempts.
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (std::chrono::steady_clock::now() >= deadline) return -1;
      net_.Poll(std::min(deadline, std::chrono::steady_clock::now() +
                                       std::chrono::milliseconds(10)));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  std::uint16_t mesh_port() const { return mesh_port_; }
  std::string Log() const {
    std::ifstream in(log_path_);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

 private:
  rpc::ConnectionSet net_;
  pid_t pid_ = -1;
  ConnId control_ = 0;
  std::uint16_t mesh_port_ = 0;
  std::string log_path_;
  std::vector<std::string> control_frames_;
  std::vector<ConnId> closed_;
};

TEST(DistSite, OnlyALowerIndexedSiteClaimCountsTowardTheBarrier) {
  // Site 1 of 2 waits for site 0 to dial in before it reports ALPHA. A
  // stray that claims the site's own index must not stand in for site 0.
  SitedHarness site;
  std::string error;
  if (!site.Spawn(1, &error)) {
    if (error == "carat_sited not built") GTEST_SKIP() << error;
    FAIL() << error;
  }
  site.Configure(2);
  const ConnId bogus = site.DialMesh("SITE 1");
  ASSERT_TRUE(site.PumpUntil([&] { return site.Closed(bogus); }, 5'000))
      << "the bogus claimant's link stayed open";
  site.PumpUntil([] { return false; }, 300);
  EXPECT_FALSE(site.SawControl("ALPHA")) << "ALPHA before site 0 dialed in";

  const ConnId real = site.DialMesh("SITE 0");
  ASSERT_TRUE(site.PumpUntil([&] { return site.SawControl("ALPHA"); }, 10'000));
  // A second claim of slot 0 is a duplicate: closed, and site 0's link
  // keeps the slot.
  const ConnId duplicate = site.DialMesh("SITE 0");
  ASSERT_TRUE(site.PumpUntil([&] { return site.Closed(duplicate); }, 5'000));
  EXPECT_FALSE(site.Closed(real));

  site.SendControl("SHUTDOWN");
  EXPECT_EQ(site.WaitExit(10'000), 0) << site.Log();
}

TEST(DistSite, StalledPeerFailsTheSiteInsteadOfFreezingIt) {
  // A stand-in for site 0 identifies itself, then floods PINGs and never
  // reads a PONG. The site answers every PING without blocking, so its
  // unsent PONGs pile up until the link's bound overflows: the site must
  // then log the failed link and exit non-zero, not wedge on a send.
  SitedHarness site;
  std::string error;
  if (!site.Spawn(1, &error)) {
    if (error == "carat_sited not built") GTEST_SKIP() << error;
    FAIL() << error;
  }
  site.Configure(2);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(site.mesh_port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string wire(1, rpc::kBinaryFramingByte);
  const auto framing = rpc::Framing::Create(rpc::FramingKind::kBinary);
  framing->Encode("0", "SITE 0", &wire);
  const std::string ping = "PING " + std::string(512 << 10, 'p');
  std::size_t sent = 0;
  int exit_code = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (exit_code < 0 && std::chrono::steady_clock::now() < deadline) {
    if (sent == wire.size()) {
      wire.clear();
      sent = 0;
      framing->Encode("0", ping, &wire);
    }
    // Never block: a site that stopped reading must fail this test, not
    // hang it.
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 10) == 1) {
      const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    exit_code = site.WaitExit(0);
  }
  ::close(fd);
  EXPECT_EQ(exit_code, 1) << site.Log();
  EXPECT_NE(site.Log().find("mesh link to site 0 failed: outbound buffer"),
            std::string::npos)
      << site.Log();
}

// The carat_sited children of this process, with their site indices and
// the coordinator endpoint they dial.
struct SitedChild {
  pid_t pid = 0;
  int site = -1;
  std::string coordinator;
};

std::string ReadProcFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<SitedChild> SitedChildren() {
  std::vector<SitedChild> children;
  const std::string self = std::to_string(::getpid());
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::string status = ReadProcFile(entry.path() / "status");
    if (status.find("\nPPid:\t" + self + "\n") == std::string::npos) continue;
    // argv: carat_sited --coordinator HOST:PORT --site N ...
    std::vector<std::string> argv;
    std::istringstream cmdline(ReadProcFile(entry.path() / "cmdline"));
    for (std::string arg; std::getline(cmdline, arg, '\0');) {
      argv.push_back(arg);
    }
    if (argv.empty() || argv[0] != "carat_sited") continue;
    SitedChild child;
    child.pid = static_cast<pid_t>(std::stol(name));
    for (std::size_t i = 0; i + 1 < argv.size(); ++i) {
      if (argv[i] == "--site") child.site = std::stoi(argv[i + 1]);
      if (argv[i] == "--coordinator") child.coordinator = argv[i + 1];
    }
    children.push_back(child);
  }
  std::sort(children.begin(), children.end(),
            [](const SitedChild& a, const SitedChild& b) {
              return a.site < b.site;
            });
  return children;
}

int ThreadsOf(pid_t pid) {
  const std::string status =
      ReadProcFile("/proc/" + std::to_string(pid) + "/status");
  const std::size_t at = status.find("\nThreads:\t");
  return at == std::string::npos ? -1 : std::atoi(status.c_str() + at + 10);
}

TEST(DistRun, EverySiteRunsOneThreadDuringTheWindow) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.sites = 3;
  options.measure_real_ms = 1500.0;
  options.check = false;
  std::vector<int> threads;
  std::vector<int> sites;
  options.during_measure = [&](const std::vector<std::string>&) {
    SleepMs(options.warmup_real_ms + 500.0);
    for (const SitedChild& child : SitedChildren()) {
      sites.push_back(child.site);
      threads.push_back(ThreadsOf(child.pid));
    }
  };
  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(sites, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(threads, std::vector<int>(3, 1));
  EXPECT_GT(result.messages_sent, 0u);  // the mesh carried traffic meanwhile
}

TEST(DistRun, ASiteKilledMidWindowFailsTheRunAtOnce) {
  // The coordinator sees site 1's control link close before its REPORT and
  // ends the run right away, naming the site, instead of waiting out the
  // DRAINED deadline (window + 60 s). Site 0 only logs its lost mesh link,
  // so it is still up to answer the DUMP.
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.sites = 2;
  options.check = false;
  std::chrono::steady_clock::time_point killed_at;
  bool killed = false;
  options.during_measure = [&](const std::vector<std::string>&) {
    SleepMs(options.warmup_real_ms + 500.0);
    for (const SitedChild& child : SitedChildren()) {
      if (child.site != 1) continue;
      killed = ::kill(child.pid, SIGKILL) == 0;
      killed_at = std::chrono::steady_clock::now();
    }
  };
  const auto result = dist::RunDistributed(options);
  const std::chrono::duration<double, std::milli> took =
      std::chrono::steady_clock::now() - killed_at;
  ASSERT_TRUE(killed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("site 1 control link closed before REPORT"),
            std::string::npos)
      << result.error;
  // The DUMP grace (1.5 s) and the reap dominate; the old deadline was over
  // a minute.
  EXPECT_LT(took.count(), 10'000.0);
}

TEST(DistRun, StrayHellosDoNotTakeASitesControlLink) {
  // Mid-window, strays send the coordinator a HELLO for a registered site
  // and one with port 0. Both must be refused: a stray that took site 0's
  // control link would get its FINISH, and the run would never see site 0's
  // REPORT.
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.sites = 2;
  options.measure_real_ms = 1000.0;
  options.drain_timeout_ms = 5'000.0;
  options.check = false;
  std::vector<std::unique_ptr<rpc::Client>> strays;
  options.during_measure = [&](const std::vector<std::string>&) {
    const std::vector<SitedChild> children = SitedChildren();
    ASSERT_FALSE(children.empty());
    const std::string& coordinator = children.front().coordinator;
    const auto port = static_cast<std::uint16_t>(
        std::stoi(coordinator.substr(coordinator.rfind(':') + 1)));
    rpc::Client::ConnectOptions copts;
    copts.framing = rpc::FramingKind::kBinary;
    for (const char* hello : {"0 HELLO site=0 port=1 cc=2pl",
                              "0 HELLO site=1 port=0 cc=2pl"}) {
      auto stray = std::make_unique<rpc::Client>();
      std::string error;
      ASSERT_TRUE(stray->Connect("127.0.0.1", port, &error, copts)) << error;
      ASSERT_TRUE(stray->SendLine(hello));
      strays.push_back(std::move(stray));
    }
  };
  const auto result = dist::RunDistributed(options);
  ASSERT_EQ(strays.size(), 2u);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.reports.size(), 2u);
}

}  // namespace
}  // namespace carat
