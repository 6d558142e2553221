#include <gtest/gtest.h>

#include <vector>

#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace carat::sim {
namespace {

Process HoldPermit(Simulation& sim, CountingSemaphore& sem, double hold_ms,
                   std::vector<double>* acquired_at) {
  co_await sem.Acquire();
  acquired_at->push_back(sim.now());
  co_await Delay{sim, hold_ms};
  sem.Release();
}

TEST(CountingSemaphore, LimitsConcurrency) {
  Simulation sim;
  CountingSemaphore sem(sim, 2);
  std::vector<double> acquired;
  for (int i = 0; i < 4; ++i) HoldPermit(sim, sem, 10.0, &acquired);
  sim.RunUntil(100.0);
  ASSERT_EQ(acquired.size(), 4u);
  EXPECT_DOUBLE_EQ(acquired[0], 0.0);
  EXPECT_DOUBLE_EQ(acquired[1], 0.0);
  EXPECT_DOUBLE_EQ(acquired[2], 10.0);  // waited for a release
  EXPECT_DOUBLE_EQ(acquired[3], 10.0);
  EXPECT_EQ(sem.available(), 2);
  EXPECT_EQ(sem.acquires(), 4u);
  EXPECT_EQ(sem.waits(), 2u);
}

TEST(CountingSemaphore, FifoHandoff) {
  Simulation sim;
  CountingSemaphore sem(sim, 1);
  std::vector<double> acquired;
  HoldPermit(sim, sem, 5.0, &acquired);
  HoldPermit(sim, sem, 5.0, &acquired);
  HoldPermit(sim, sem, 5.0, &acquired);
  sim.RunUntil(100.0);
  EXPECT_EQ(acquired, (std::vector<double>{0.0, 5.0, 10.0}));
}

TEST(CountingSemaphore, ReleaseWithoutWaitersRestoresPermit) {
  Simulation sim;
  CountingSemaphore sem(sim, 1);
  std::vector<double> acquired;
  HoldPermit(sim, sem, 1.0, &acquired);
  sim.RunUntil(10.0);
  EXPECT_EQ(sem.available(), 1);
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(CountingSemaphore, StatsReset) {
  Simulation sim;
  CountingSemaphore sem(sim, 1);
  std::vector<double> acquired;
  HoldPermit(sim, sem, 1.0, &acquired);
  HoldPermit(sim, sem, 1.0, &acquired);
  sim.RunUntil(10.0);
  EXPECT_GT(sem.acquires(), 0u);
  sem.ResetStats();
  EXPECT_EQ(sem.acquires(), 0u);
  EXPECT_EQ(sem.waits(), 0u);
}

Process LockUnlock(Simulation& sim, FifoMutex& mu, int* active, int* max_seen) {
  co_await mu.Lock();
  ++*active;
  *max_seen = std::max(*max_seen, *active);
  co_await Delay{sim, 3.0};
  --*active;
  mu.Unlock();
}

TEST(FifoMutex, NeverTwoHolders) {
  Simulation sim;
  FifoMutex mu(sim);
  int active = 0, max_seen = 0;
  for (int i = 0; i < 10; ++i) LockUnlock(sim, mu, &active, &max_seen);
  sim.RunUntil(1'000.0);
  EXPECT_EQ(max_seen, 1);
  EXPECT_EQ(active, 0);
  EXPECT_FALSE(mu.locked());
}

Process LockAfter(Simulation& sim, FifoMutex& mu, double arrive_ms, int id,
                  std::vector<int>* order) {
  co_await Delay{sim, arrive_ms};
  co_await mu.Lock();
  order->push_back(id);
  co_await Delay{sim, 1.0};
  mu.Unlock();
}

// The TM server: waiters are served in arrival order, whatever order they
// were spawned in, while the holder keeps the mutex past every arrival.
TEST(FifoMutex, ServesWaitersInArrivalOrder) {
  Simulation sim;
  FifoMutex mu(sim);
  std::vector<int> order;
  LockAfter(sim, mu, 0.0, 0, &order);   // holds [0, 1)
  LockAfter(sim, mu, 0.6, 3, &order);
  LockAfter(sim, mu, 0.2, 1, &order);
  LockAfter(sim, mu, 0.4, 2, &order);
  sim.RunUntil(100.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(mu.locked());
}

TEST(Gate, ManySignalsBeforeWait) {
  Simulation sim;
  Gate gate(2);
  gate.Signal();
  gate.Signal();
  bool done = false;
  [](Gate& g, bool* flag) -> Process {
    co_await g.Wait();
    *flag = true;
  }(gate, &done);
  EXPECT_TRUE(done);  // already open: awaits without suspending
}

}  // namespace
}  // namespace carat::sim
