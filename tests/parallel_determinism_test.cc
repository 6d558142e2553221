// The parallel sweep must be numerically indistinguishable from the serial
// one: each (workload, n, seed) point is solved and simulated from its own
// state. The test compares results bit for bit (memcmp on the doubles, not
// EXPECT_DOUBLE_EQ).

#include <cstring>

#include <gtest/gtest.h>

#include "model/solver.h"
#include "repro_common.h"
#include "workload/spec.h"

namespace carat {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdentical(const model::ModelSolution& a,
                     const model::ModelSolution& b) {
  ASSERT_EQ(a.ok, b.ok);
  ASSERT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  EXPECT_TRUE(SameBits(a.comm_delay_ms, b.comm_delay_ms));
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    const model::SiteSolution& sa = a.sites[i];
    const model::SiteSolution& sb = b.sites[i];
    EXPECT_TRUE(SameBits(sa.cpu_utilization, sb.cpu_utilization));
    EXPECT_TRUE(SameBits(sa.db_disk_utilization, sb.db_disk_utilization));
    EXPECT_TRUE(SameBits(sa.log_disk_utilization, sb.log_disk_utilization));
    EXPECT_TRUE(SameBits(sa.dio_per_s, sb.dio_per_s));
    EXPECT_TRUE(SameBits(sa.txn_per_s, sb.txn_per_s));
    EXPECT_TRUE(SameBits(sa.records_per_s, sb.records_per_s));
    for (model::TxnType t : model::kAllTxnTypes) {
      const model::ClassSolution& ca = sa.Class(t);
      const model::ClassSolution& cb = sb.Class(t);
      ASSERT_EQ(ca.present, cb.present);
      EXPECT_TRUE(SameBits(ca.throughput_per_s, cb.throughput_per_s));
      EXPECT_TRUE(SameBits(ca.response_ms, cb.response_ms));
      EXPECT_TRUE(SameBits(ca.pa, cb.pa));
      EXPECT_TRUE(SameBits(ca.pb, cb.pb));
      EXPECT_TRUE(SameBits(ca.pd, cb.pd));
      EXPECT_TRUE(SameBits(ca.lh, cb.lh));
      EXPECT_TRUE(SameBits(ca.r_lw_ms, cb.r_lw_ms));
      EXPECT_TRUE(SameBits(ca.r_rw_ms, cb.r_rw_ms));
      EXPECT_TRUE(SameBits(ca.r_cw_ms, cb.r_cw_ms));
      EXPECT_TRUE(SameBits(ca.d_lw_ms, cb.d_lw_ms));
      EXPECT_TRUE(SameBits(ca.d_rw_ms, cb.d_rw_ms));
      EXPECT_TRUE(SameBits(ca.d_cw_ms, cb.d_cw_ms));
    }
  }
}

workload::WorkloadSpec MakeWorkload(const std::string& name, int n) {
  if (name == "lb8") return workload::MakeLB8(n);
  if (name == "mb4") return workload::MakeMB4(n);
  if (name == "mb8") return workload::MakeMB8(n);
  return workload::MakeUB6(n);
}

TEST(ParallelSweep, JobsOneAndJobsEightAreBitIdentical) {
  // Short simulated windows keep this fast; determinism does not depend on
  // the window length (each point owns its RNG, seeded identically).
  for (const char* name : {"lb8", "mb4", "mb8", "ub6"}) {
    const std::string workload = name;
    const auto make = [&workload](int n) { return MakeWorkload(workload, n); };
    const std::vector<int> sizes = {4, 8, 12, 16};
    const std::vector<bench::SweepPoint> serial =
        bench::RunSweep(make, sizes, /*measure_ms=*/20'000, /*seed=*/3,
                        /*jobs=*/1);
    const std::vector<bench::SweepPoint> pooled =
        bench::RunSweep(make, sizes, /*measure_ms=*/20'000, /*seed=*/3,
                        /*jobs=*/8);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(serial[i].n));
      ASSERT_EQ(serial[i].n, pooled[i].n);
      ExpectIdentical(serial[i].model, pooled[i].model);
      ASSERT_TRUE(serial[i].sim.ok) << serial[i].sim.error;
      ASSERT_TRUE(pooled[i].sim.ok) << pooled[i].sim.error;
      ASSERT_EQ(serial[i].sim.events, pooled[i].sim.events);
      ASSERT_EQ(serial[i].sim.nodes.size(), pooled[i].sim.nodes.size());
      for (std::size_t j = 0; j < serial[i].sim.nodes.size(); ++j) {
        EXPECT_TRUE(SameBits(serial[i].sim.nodes[j].txn_per_s,
                             pooled[i].sim.nodes[j].txn_per_s));
        EXPECT_TRUE(SameBits(serial[i].sim.nodes[j].cpu_utilization,
                             pooled[i].sim.nodes[j].cpu_utilization));
        EXPECT_TRUE(SameBits(serial[i].sim.nodes[j].dio_per_s,
                             pooled[i].sim.nodes[j].dio_per_s));
        EXPECT_EQ(serial[i].sim.nodes[j].lock_requests,
                  pooled[i].sim.nodes[j].lock_requests);
      }
    }
  }
}

}  // namespace
}  // namespace carat
