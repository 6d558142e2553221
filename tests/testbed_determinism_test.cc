// The sharded kernel's load-bearing invariant: for the same seed, the
// testbed's results are byte-identical at ANY shard count request. Event
// delivery order is fixed by (time, origin site, origin sequence) — never by
// heap insertion order — so shards 1, 2, and 4 must produce bit-equal
// fingerprints on every standard workload. A local-only workload (LB8) runs
// one free-running thread per shard. A distributed workload sends messages
// between sites, so a sharded request on it runs serially, at alpha = 5 ms
// as at the paper's alpha = 0; either way it must fingerprint-match an
// explicit shards = 1 run.

#include <gtest/gtest.h>

#include <string>

#include "carat/testbed.h"
#include "workload/spec.h"

namespace carat {
namespace {

TestbedResult RunWith(const model::ModelInput& input, int shards,
                      std::uint64_t seed = 3) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.warmup_ms = 10'000;
  opts.measure_ms = 100'000;
  opts.shards = shards;
  return RunTestbed(input, opts);
}

void ExpectShardCountInvariant(const model::ModelInput& input) {
  const TestbedResult serial = RunWith(input, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_TRUE(serial.database_consistent);
  const std::string want = TestbedResultFingerprint(serial);
  for (const int shards : {2, 4}) {
    const TestbedResult sharded = RunWith(input, shards);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    EXPECT_EQ(TestbedResultFingerprint(sharded), want)
        << "shards=" << shards << " diverged from the serial run";
  }
}

TEST(TestbedDeterminism, Lb8IsShardCountInvariant) {
  // Local-only: no cross-site messages, so every shard runs on its own
  // thread.
  ExpectShardCountInvariant(workload::MakeLB8(8, 4).ToModelInput());
}

TEST(TestbedDeterminism, Mb4IsShardCountInvariant) {
  auto wl = workload::MakeMB4(8, 4);
  wl.comm_delay_ms = 5.0;  // distributed with alpha > 0: still serial
  ExpectShardCountInvariant(wl.ToModelInput());
}

TEST(TestbedDeterminism, Mb8IsShardCountInvariant) {
  auto wl = workload::MakeMB8(8, 4);
  wl.comm_delay_ms = 5.0;
  ExpectShardCountInvariant(wl.ToModelInput());
}

TEST(TestbedDeterminism, Ub6IsShardCountInvariant) {
  auto wl = workload::MakeUB6(6, 4);
  wl.comm_delay_ms = 5.0;
  ExpectShardCountInvariant(wl.ToModelInput());
}

TEST(TestbedDeterminism, ZeroCommDelayForcesSerialAndStaysIdentical) {
  // alpha = 0 (the paper's Ethernet assumption): a multi-shard request on a
  // distributed workload runs on the serial kernel — and must be bit-equal
  // to shards = 1.
  const auto input = workload::MakeMB4(8, 4).ToModelInput();
  const TestbedResult serial = RunWith(input, 1);
  const TestbedResult requested4 = RunWith(input, 4);
  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_TRUE(requested4.ok) << requested4.error;
  EXPECT_EQ(TestbedResultFingerprint(requested4),
            TestbedResultFingerprint(serial));
}

TEST(TestbedDeterminism, DifferentSeedsStillDiffer) {
  // Guards against a fingerprint that ignores the interesting fields.
  auto wl = workload::MakeMB4(8, 4);
  wl.comm_delay_ms = 5.0;
  const auto input = wl.ToModelInput();
  const TestbedResult a = RunWith(input, 2, /*seed=*/3);
  const TestbedResult b = RunWith(input, 2, /*seed=*/4);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(TestbedResultFingerprint(a), TestbedResultFingerprint(b));
}

}  // namespace
}  // namespace carat
