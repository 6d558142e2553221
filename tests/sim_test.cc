#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/channel.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace carat::sim {
namespace {

TEST(Simulation, ExecutesEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(5.0, [&] { order.push_back(2); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(9.0, [&] { order.push_back(3); });
  sim.RunUntil(100.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulation, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.Schedule(3.0, [&order, i] { order.push_back(i); });
  sim.RunUntil(3.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, RunUntilLeavesLaterEventsPending) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(10.0, [&] { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  sim.RunUntil(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 10) sim.Schedule(1.0, chain);
  };
  sim.Schedule(0.0, chain);
  sim.RunUntil(100.0);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.events_executed(), 10u);
}

Process DelayTwice(Simulation& sim, double d, std::vector<double>* marks) {
  co_await Delay{sim, d};
  marks->push_back(sim.now());
  co_await Delay{sim, d};
  marks->push_back(sim.now());
}

TEST(Delay, SuspendsForRequestedTime) {
  Simulation sim;
  std::vector<double> marks;
  DelayTwice(sim, 7.0, &marks);
  sim.RunUntil(100.0);
  EXPECT_EQ(marks, (std::vector<double>{7.0, 14.0}));
}

Process Consume(Simulation& sim, Channel<int>& ch, std::vector<int>* got,
                int count) {
  for (int i = 0; i < count; ++i) {
    got->push_back(co_await ch.Receive());
  }
  (void)sim;
}

TEST(Channel, DeliversInFifoOrder) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  Consume(sim, ch, &got, 3);
  ch.Send(1);
  ch.Send(2);
  ch.Send(3);
  sim.RunUntil(1.0);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, ReceiverBlocksUntilSend) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  Consume(sim, ch, &got, 1);
  sim.RunUntil(5.0);
  EXPECT_TRUE(got.empty());
  ch.Send(42);
  sim.RunUntil(6.0);
  EXPECT_EQ(got, std::vector<int>{42});
}

Process UseResource(FcfsResource& res, double service, std::vector<double>* done,
                    Simulation& sim) {
  co_await res.Use(service);
  done->push_back(sim.now());
}

TEST(FcfsResource, SerializesAndTracksUtilization) {
  Simulation sim;
  FcfsResource res(sim, "disk");
  std::vector<double> done;
  UseResource(res, 10.0, &done, sim);
  UseResource(res, 10.0, &done, sim);
  UseResource(res, 10.0, &done, sim);
  sim.RunUntil(100.0);
  EXPECT_EQ(done, (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_EQ(res.completions(), 3u);
  EXPECT_DOUBLE_EQ(res.BusyMs(), 30.0);
}

TEST(FcfsResource, ResetDropsHistoryButKeepsInFlight) {
  Simulation sim;
  FcfsResource res(sim, "disk");
  std::vector<double> done;
  UseResource(res, 10.0, &done, sim);
  UseResource(res, 10.0, &done, sim);
  sim.RunUntil(15.0);  // first done, second mid-service
  res.ResetStats();
  EXPECT_EQ(res.completions(), 0u);
  sim.RunUntil(100.0);
  EXPECT_EQ(res.completions(), 1u);
  EXPECT_DOUBLE_EQ(res.BusyMs(), 5.0);  // the tail of the second service
}

Task<int> AddLater(Simulation& sim, int a, int b) {
  co_await Delay{sim, 3.0};
  co_return a + b;
}

Task<int> Twice(Simulation& sim, int a, int b) {
  const int first = co_await AddLater(sim, a, b);
  const int second = co_await AddLater(sim, first, first);
  co_return second;
}

Process Driver(Simulation& sim, int* out) {
  *out = co_await Twice(sim, 2, 3);
}

TEST(Task, ComposesAndReturnsValues) {
  Simulation sim;
  int out = 0;
  Driver(sim, &out);
  sim.RunUntil(100.0);
  EXPECT_EQ(out, 10);         // (2+3) + (5+5) -> 10
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

Process CriticalSection(Simulation& sim, FifoMutex& mu, double hold,
                        std::vector<std::pair<double, double>>* spans) {
  co_await mu.Lock();
  const double start = sim.now();
  co_await Delay{sim, hold};
  spans->emplace_back(start, sim.now());
  mu.Unlock();
}

TEST(FifoMutex, SerializesCriticalSections) {
  Simulation sim;
  FifoMutex mu(sim);
  std::vector<std::pair<double, double>> spans;
  for (int i = 0; i < 3; ++i) CriticalSection(sim, mu, 5.0, &spans);
  sim.RunUntil(100.0);
  ASSERT_EQ(spans.size(), 3u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].first, spans[i - 1].second);  // no overlap
  }
  EXPECT_FALSE(mu.locked());
}

Process GateWaiter(Gate& gate, bool* done) {
  co_await gate.Wait();
  *done = true;
}

TEST(Gate, OpensAfterAllSignals) {
  Simulation sim;
  Gate gate(3);
  bool done = false;
  GateWaiter(gate, &done);
  gate.Signal();
  gate.Signal();
  EXPECT_FALSE(done);
  gate.Signal();
  EXPECT_TRUE(done);
}

TEST(Gate, ZeroCountIsOpen) {
  Simulation sim;
  Gate gate(0);
  bool done = false;
  GateWaiter(gate, &done);
  EXPECT_TRUE(done);
}

// Sets *flag when destroyed: observes whether a coroutine frame's locals ran
// their destructors.
struct SetOnDestroy {
  bool* flag;
  ~SetOnDestroy() { *flag = true; }
};

Process ParkForever(Gate& gate, bool* destroyed) {
  SetOnDestroy guard{destroyed};
  co_await gate.Wait();
}

Process ParkBehindDelay(Simulation& sim, bool* destroyed) {
  SetOnDestroy guard{destroyed};
  co_await Delay{sim, 1e9};
}

TEST(Simulation, DestroysParkedProcessesAtTeardown) {
  Gate gate(1);  // never signalled; outlives the kernel
  bool parked_at_setup = false;
  bool parked_in_event = false;
  bool parked_on_delay = false;
  std::vector<double> marks;
  {
    Simulation sim;
    ParkForever(gate, &parked_at_setup);
    sim.Schedule(1.0, [&] { ParkBehindDelay(sim, &parked_in_event); });
    ParkBehindDelay(sim, &parked_on_delay);
    DelayTwice(sim, 2.0, &marks);  // finishes: its frame is already gone
    sim.RunUntil(10.0);
    EXPECT_FALSE(parked_at_setup);
    EXPECT_FALSE(parked_in_event);
    EXPECT_FALSE(parked_on_delay);
  }
  EXPECT_EQ(marks, (std::vector<double>{2.0, 4.0}));
  EXPECT_TRUE(parked_at_setup);
  EXPECT_TRUE(parked_in_event);
  EXPECT_TRUE(parked_on_delay);
}

}  // namespace
}  // namespace carat::sim
