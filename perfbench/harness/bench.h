// Shared declarations of the carat_bench harness: options, the result of a
// run, the seeded input generators, the four workloads and the per-layer
// measurements of the traced run. README.md in this directory explains
// why each workload exists and which end-to-end metric each layer moves.

#ifndef PERFBENCH_HARNESS_BENCH_H_
#define PERFBENCH_HARNESS_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "carat/testbed.h"
#include "harness/trace.h"
#include "model/params.h"
#include "util/random.h"

namespace perfbench {

class ServedProcess;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string served_binary;  ///< path of the carat_served to spawn
  std::string trace_dir;      ///< where the traced run writes its spans
  /// > 0: every Nth what-if request is the malformed query "lb9 4" (the
  /// self-test checks it shows up in error_rate at exactly its share).
  int inject_every = 0;
};

// Fixed shape of every workload; README.md gives the reasons.
inline constexpr int kClientConnections = 4;
inline constexpr int kServerJobs = 2;
inline constexpr int kServerReactors = 1;
inline constexpr int kSweepWorkers = 2;
inline constexpr int kSweepThinkPoints = 32;
inline constexpr double kTestbedWarmupMs = 20'000;
inline constexpr double kTestbedMeasureMs = 20'000;
inline constexpr int kTestbedSeeds = 64;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t injected = 0;  ///< malformed requests sent on purpose
  Metrics metrics;             ///< what the final JSON line reports
  /// Extra facts for the report line (already JSON values).
  std::map<std::string, std::string> report;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void Fail(const std::string& why);
};

// ---- seeded inputs -------------------------------------------------------

/// The 80 cached what-if queries: lb8/mb4/mb8/ub6 x n in {4,8,...,20} x the
/// four cc backends.
std::vector<std::string> CachedQuerySet();

/// Distinct what-if queries over workload, n, think, comm and cc; a quarter
/// carry mva=approx.
class FreshQueryGen {
 public:
  explicit FreshQueryGen(std::uint64_t seed) : rng_(seed) {}
  std::string Next();

 private:
  carat::util::Rng rng_;
  std::unordered_set<std::string> seen_;
};

/// One sweep: 4 workloads x 5 n x `think_points` seeded think times.
std::vector<carat::model::ModelInput> SweepRound(carat::util::Rng* rng,
                                                 int think_points);

/// The testbed workload: mb8 n=8 over 4 nodes, alpha = 5 ms, 2PL.
carat::model::ModelInput TestbedInput();
carat::TestbedOptions TestbedRunOptions(std::uint64_t seed);
/// The testbed seeds one run cycles through (each repeats, so the
/// fingerprint check has repeats to compare).
std::vector<std::uint64_t> TestbedSeeds(std::uint64_t seed);

/// Checks a what-if result line against an in-process cold
/// CaratModel::Solve of `query`, within the solver's tolerance and the
/// line's printed precision.
bool MatchesColdSolve(const std::string& query, const std::string& response,
                      std::string* why);

// ---- workloads -----------------------------------------------------------

RunResult RunWhatif(const Options& options, bool cached);
RunResult RunSweepBatch(const Options& options);
RunResult RunTestbedWorkload(const Options& options);

// ---- per-layer measurements (traced run) ---------------------------------

/// serve.hit_rate, serve.warm_rate, serve.evictions_per_kq and
/// rpc.server_p50_us from two STATS snapshots of a server.
void SetServerCounters(const std::map<std::string, double>& before,
                       const std::map<std::string, double>& after,
                       RunResult* result);

// Each Measure*Layers function measures one group of layers through their public calls for about
// `budget_s` seconds, recording spans on `tracer`, and sets its per-layer
// metrics unless the workload's own loop already set them.

/// rpc + cached serve path: unloaded round trip against `server` (spawned
/// if null), and the in-process stages decode, parse, key, hit, format,
/// encode on the same queries.
void MeasureRpcLayers(const Options& options, ServedProcess* server,
                      double budget_s, Tracer* tracer, RunResult* result);
/// serve miss path and the model's scalar fixed point.
void MeasureSolveLayers(const Options& options, double budget_s,
                        Tracer* tracer, RunResult* result);
/// SubmitBatch and its lockstep blocks replayed against scalar solves.
void MeasureBatchLayers(const Options& options, double budget_s,
                        Tracer* tracer, RunResult* result);
/// sim, net, txn and lock counters of testbed runs.
void MeasureSimLayers(const Options& options, double budget_s,
                      Tracer* tracer, RunResult* result);

/// The traced run's tail shared by all workloads: measures every layer
/// group (the workload's own group gets `own_budget_s`, the rest a short
/// probe), reports trace.overhead_frac and writes the spans.
void FinishTracedRun(const Options& options, ServedProcess* server,
                     const std::string& own_group, double own_budget_s,
                     double untraced_per_s, double traced_per_s,
                     Tracer* tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_H_
