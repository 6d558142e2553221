#include <gtest/gtest.h>

#include "carat/testbed.h"
#include "workload/spec.h"

namespace carat {
namespace {

using model::TxnType;

TestbedOptions FastOptions(std::uint64_t seed = 1) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.warmup_ms = 20'000;
  opts.measure_ms = 200'000;
  return opts;
}

TEST(Testbed, RejectsInvalidInput) {
  const TestbedResult r = RunTestbed(model::ModelInput{}, FastOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(Testbed, Lb8RunsConsistently) {
  const auto input = workload::MakeLB8(8).ToModelInput();
  const TestbedResult r = RunTestbed(input, FastOptions());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.database_consistent);
  ASSERT_EQ(r.nodes.size(), 2u);
  for (const NodeResult& n : r.nodes) {
    EXPECT_GT(n.txn_per_s, 0.0);
    EXPECT_GT(n.cpu_utilization, 0.0);
    EXPECT_LE(n.cpu_utilization, 1.0);
    EXPECT_GT(n.db_disk_utilization, 0.5);  // disk-bound workload
    EXPECT_LE(n.db_disk_utilization, 1.0);
    EXPECT_GT(n.dio_per_s, 0.0);
    EXPECT_TRUE(n.Type(TxnType::kLRO).present);
    EXPECT_TRUE(n.Type(TxnType::kLU).present);
    EXPECT_FALSE(n.Type(TxnType::kDROC).present);
  }
  // Local-only workload sends no messages and finds no global deadlocks.
  EXPECT_EQ(r.network_messages, 0u);
  EXPECT_EQ(r.global_deadlocks, 0u);
}

TEST(Testbed, Mb4ExercisesDistributedPaths) {
  const auto input = workload::MakeMB4(8).ToModelInput();
  const TestbedResult r = RunTestbed(input, FastOptions());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.database_consistent);
  EXPECT_GT(r.network_messages, 0u);
  for (const NodeResult& n : r.nodes) {
    EXPECT_TRUE(n.Type(TxnType::kDROC).present);
    EXPECT_TRUE(n.Type(TxnType::kDUC).present);
    EXPECT_GT(n.Type(TxnType::kDROC).commits, 0u);
    EXPECT_GT(n.Type(TxnType::kDUC).commits, 0u);
  }
}

TEST(Testbed, DeterministicForSameSeed) {
  const auto input = workload::MakeMB4(8).ToModelInput();
  const TestbedResult a = RunTestbed(input, FastOptions(7));
  const TestbedResult b = RunTestbed(input, FastOptions(7));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.events, b.events);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes[i].txn_per_s, b.nodes[i].txn_per_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].cpu_utilization, b.nodes[i].cpu_utilization);
  }
}

TEST(Testbed, DifferentSeedsDiffer) {
  const auto input = workload::MakeMB4(8).ToModelInput();
  const TestbedResult a = RunTestbed(input, FastOptions(1));
  const TestbedResult b = RunTestbed(input, FastOptions(2));
  EXPECT_NE(a.events, b.events);
}

TEST(TestbedDeterminism, DifferentSeedsStillDiffer) {
  // Guards against a fingerprint that ignores the interesting fields.
  auto wl = workload::MakeMB4(8, 4);
  wl.comm_delay_ms = 5.0;
  const auto input = wl.ToModelInput();
  TestbedOptions opts;
  opts.warmup_ms = 10'000;
  opts.measure_ms = 100'000;
  opts.seed = 3;
  const TestbedResult a = RunTestbed(input, opts);
  opts.seed = 4;
  const TestbedResult b = RunTestbed(input, opts);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(TestbedResultFingerprint(a), TestbedResultFingerprint(b));
}

TEST(Testbed, RefusesMoreThanOneShard) {
  // A run has one thread; `shards` survives only as a field that must be 1.
  TestbedOptions opts = FastOptions();
  opts.shards = 4;
  const TestbedResult r =
      RunTestbed(workload::MakeLB8(8, 4).ToModelInput(), opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("shards"), std::string::npos) << r.error;
  EXPECT_TRUE(r.nodes.empty());
}

TEST(Testbed, FasterDiskYieldsMoreThroughput) {
  const auto input = workload::MakeLB8(8).ToModelInput();
  const TestbedResult r = RunTestbed(input, FastOptions());
  ASSERT_TRUE(r.ok);
  // Node A (28 ms/block) must beat Node B (40 ms/block).
  EXPECT_GT(r.nodes[0].txn_per_s, r.nodes[1].txn_per_s);
}

TEST(Testbed, ReadOnlyBeatsUpdates) {
  const auto input = workload::MakeMB8(8).ToModelInput();
  const TestbedResult r = RunTestbed(input, FastOptions());
  ASSERT_TRUE(r.ok);
  for (const NodeResult& n : r.nodes) {
    EXPECT_GT(n.Type(TxnType::kLRO).throughput_per_s,
              n.Type(TxnType::kLU).throughput_per_s);
  }
}

TEST(Testbed, DeadlocksAppearAtHighContention) {
  const auto input = workload::MakeMB8(16).ToModelInput();
  TestbedOptions opts = FastOptions();
  opts.measure_ms = 600'000;
  const TestbedResult r = RunTestbed(input, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.database_consistent);
  std::uint64_t aborts = 0, local = 0;
  for (const NodeResult& n : r.nodes) {
    local += n.local_deadlocks;
    for (const TypeResult& t : n.types) aborts += t.aborts;
  }
  EXPECT_GT(aborts, 0u);
  EXPECT_GT(local + r.global_deadlocks, 0u);
  // Every abort traces back to a detected deadlock of one kind or another.
  EXPECT_GE(aborts, r.global_deadlocks);
}

TEST(Testbed, GlobalDeadlocksDetectedInDistributedUpdateMix) {
  // Distributed updates crossing two nodes with long transactions create
  // cross-site cycles that only the probe machinery can break; the run
  // finishing at all (with consistent state) shows detection works.
  workload::WorkloadSpec wl = workload::MakeMB8(20);
  const auto input = wl.ToModelInput();
  TestbedOptions opts = FastOptions();
  opts.measure_ms = 1'000'000;
  const TestbedResult r = RunTestbed(input, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.database_consistent);
  EXPECT_GT(r.probes_sent, 0u);
  EXPECT_GT(r.global_deadlocks, 0u);
  EXPECT_GT(r.TotalTxnPerSec(), 0.0);  // no livelock
}

TEST(Testbed, SeparateLogDiskImprovesUpdateThroughput) {
  workload::WorkloadSpec shared = workload::MakeLB8(8);
  workload::WorkloadSpec split = shared;
  split.separate_log_disk = true;
  const TestbedResult a = RunTestbed(shared.ToModelInput(), FastOptions());
  const TestbedResult b = RunTestbed(split.ToModelInput(), FastOptions());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_GT(b.TotalTxnPerSec(), a.TotalTxnPerSec() * 0.99);
  EXPECT_GT(b.nodes[0].log_disk_utilization, 0.0);
  EXPECT_DOUBLE_EQ(a.nodes[0].log_disk_utilization, 0.0);
}

TEST(Testbed, VictimPolicyVariantsRunConsistently) {
  const auto input = workload::MakeMB8(12).ToModelInput();
  for (const lock::VictimPolicy policy :
       {lock::VictimPolicy::kRequester, lock::VictimPolicy::kYoungest,
        lock::VictimPolicy::kOldest}) {
    TestbedOptions opts = FastOptions();
    opts.victim_policy = policy;
    const TestbedResult r = RunTestbed(input, opts);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.database_consistent);
    EXPECT_GT(r.TotalTxnPerSec(), 0.0);
  }
}

TEST(Testbed, ThinkTimeReducesUtilization) {
  workload::WorkloadSpec busy = workload::MakeLB8(8);
  workload::WorkloadSpec lazy = busy;
  lazy.think_time_ms = 2'000.0;
  const TestbedResult a = RunTestbed(busy.ToModelInput(), FastOptions());
  const TestbedResult b = RunTestbed(lazy.ToModelInput(), FastOptions());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_LT(b.nodes[0].db_disk_utilization, a.nodes[0].db_disk_utilization);
  EXPECT_LT(b.TotalTxnPerSec(), a.TotalTxnPerSec());
}

TEST(Testbed, CommunicationDelaySlowsDistributedWork) {
  workload::WorkloadSpec fast = workload::MakeMB4(8);
  workload::WorkloadSpec slow = fast;
  slow.comm_delay_ms = 50.0;
  const TestbedResult a = RunTestbed(fast.ToModelInput(), FastOptions());
  const TestbedResult b = RunTestbed(slow.ToModelInput(), FastOptions());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  const double fast_dro = a.nodes[0].Type(TxnType::kDROC).throughput_per_s;
  const double slow_dro = b.nodes[0].Type(TxnType::kDROC).throughput_per_s;
  EXPECT_LT(slow_dro, fast_dro);
}

TEST(Testbed, PhaseAccountingMatchesTransactionShape) {
  const auto input = workload::MakeMB8(12).ToModelInput();
  TestbedOptions opts = FastOptions();
  opts.measure_ms = 600'000;
  const TestbedResult r = RunTestbed(input, opts);
  ASSERT_TRUE(r.ok);
  for (const NodeResult& node : r.nodes) {
    // Locals never wait remotely or in 2PC.
    EXPECT_DOUBLE_EQ(node.Type(TxnType::kLRO).remote_wait_ms, 0.0);
    EXPECT_DOUBLE_EQ(node.Type(TxnType::kLU).commit_wait_ms, 0.0);
    // Distributed coordinators always pay remote and commit waits.
    EXPECT_GT(node.Type(TxnType::kDROC).remote_wait_ms, 0.0);
    EXPECT_GT(node.Type(TxnType::kDUC).commit_wait_ms, 0.0);
    // Updates contend: lock wait per commit must be visible at n = 12.
    EXPECT_GT(node.Type(TxnType::kLU).lock_wait_ms, 0.0);
    // Waits are bounded by the full response time.
    for (const TypeResult& t : node.types) {
      if (!t.present) continue;
      EXPECT_LE(t.lock_wait_ms + t.remote_wait_ms + t.commit_wait_ms,
                t.response_ms + 1e-9);
    }
  }
}

// Consistency audit across the full workload/size grid.
class TestbedGridTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TestbedGridTest, ConsistentAcrossGrid) {
  const int which = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  workload::WorkloadSpec wl;
  switch (which) {
    case 0: wl = workload::MakeLB8(n); break;
    case 1: wl = workload::MakeMB4(n); break;
    case 2: wl = workload::MakeMB8(n); break;
    default: wl = workload::MakeUB6(n); break;
  }
  TestbedOptions opts = FastOptions(static_cast<std::uint64_t>(which * 100 + n));
  const TestbedResult r = RunTestbed(wl.ToModelInput(), opts);
  ASSERT_TRUE(r.ok) << wl.name << " n=" << n << ": " << r.error;
  EXPECT_TRUE(r.database_consistent) << wl.name << " n=" << n;
  EXPECT_GT(r.TotalTxnPerSec(), 0.0) << wl.name << " n=" << n;
  for (const NodeResult& node : r.nodes) {
    EXPECT_LE(node.cpu_utilization, 1.0);
    EXPECT_LE(node.db_disk_utilization, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadGrid, TestbedGridTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(4, 12, 20)));

}  // namespace
}  // namespace carat
