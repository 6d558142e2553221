// The CARAT distributed database testbed, reproduced as a discrete-event
// simulation (the paper's "measurement" substrate; see DESIGN.md for the
// hardware substitution rationale).
//
// RunTestbed executes the same workload specification the analytical model
// consumes (model::ModelInput) on a full protocol stack: user TR processes,
// serialized TM servers, DM request execution, two-phase locking with local
// wait-for-graph deadlock detection and probe-based global detection,
// before-image journaling with real rollback, and centralized two-phase
// commit with forced log writes. The result carries the measurements the
// paper reports (TR-XPUT, Total-CPU, Total-DIO, per-type throughput) plus
// protocol-level counters and an end-of-run atomicity audit.

#ifndef CARAT_CARAT_TESTBED_H_
#define CARAT_CARAT_TESTBED_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "model/params.h"

namespace carat {

struct TestbedOptions {
  std::uint64_t seed = 1;

  /// Simulated warm-up discarded from the measurements (ms).
  double warmup_ms = 100'000;

  /// Simulated measurement window (ms).
  double measure_ms = 1'000'000;

  /// Not a setting: a run has one thread, and RunTestbed refuses any value
  /// but 1. Kept only because existing callers assign 1; parallelism lives
  /// across independent runs (bench::RunSweep).
  int shards = 1;

  lock::VictimPolicy victim_policy = lock::VictimPolicy::kRequester;
};

/// Measurements for one transaction type at its home node.
struct TypeResult {
  bool present = false;
  std::uint64_t commits = 0;
  std::uint64_t submissions = 0;  ///< executions including aborted ones
  std::uint64_t aborts = 0;
  double throughput_per_s = 0.0;  ///< commits per second
  double abort_prob = 0.0;        ///< aborts / submissions (estimates P_a)
  double response_ms = 0.0;       ///< mean commit-cycle time (incl. retries)
  // Mean synchronization time per commit cycle, the measured counterparts
  // of the model's delay-center demands D_LW / D_RW / D_CW.
  double lock_wait_ms = 0.0;
  double remote_wait_ms = 0.0;
  double commit_wait_ms = 0.0;
};

struct NodeResult {
  std::string name;
  double cpu_utilization = 0.0;
  double db_disk_utilization = 0.0;
  double log_disk_utilization = 0.0;
  double dio_per_s = 0.0;    ///< block I/Os per second across both disks
  double txn_per_s = 0.0;    ///< TR-XPUT: commits/s of locally-homed txns
  double records_per_s = 0.0;///< normalized record throughput
  std::uint64_t lock_requests = 0;
  std::uint64_t lock_blocks = 0;
  std::uint64_t local_deadlocks = 0;
  double buffer_hit_ratio = 0.0;  ///< 0 when the node has no buffer
  std::uint64_t dm_pool_waits = 0;  ///< times a txn waited for a DM server
  /// Per-user-type results (LRO / LU / DROC / DUC slots are used).
  std::array<TypeResult, model::kNumTxnTypes> types;

  const TypeResult& Type(model::TxnType t) const { return types[Index(t)]; }
};

struct TestbedResult {
  bool ok = false;
  std::string error;
  std::vector<NodeResult> nodes;
  double measured_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t network_messages = 0;
  std::uint64_t global_deadlocks = 0;
  std::uint64_t probes_sent = 0;

  /// End-of-run audit: after undoing in-flight transactions, every record
  /// must equal the number of committed updates applied to it (atomicity +
  /// write serialization).
  bool database_consistent = false;

  double TotalTxnPerSec() const;
  double TotalRecordsPerSec() const;
};

/// Runs the testbed on `input` (the same structure the analytical model
/// consumes; see workload::WorkloadSpec::ToModelInput). Populations of the
/// LRO/LU/DROC/DUC classes define the user processes; slave-class cost
/// parameters are used when remote requests execute at a node.
TestbedResult RunTestbed(const model::ModelInput& input,
                         const TestbedOptions& options = {});

/// Bit-exact textual digest of every field of `result` (doubles rendered as
/// hex bit patterns). Two results are byte-identical iff their fingerprints
/// compare equal; used to pin results across runs, builds and threads.
std::string TestbedResultFingerprint(const TestbedResult& result);

}  // namespace carat

#endif  // CARAT_CARAT_TESTBED_H_
