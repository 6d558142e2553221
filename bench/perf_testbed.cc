// Testbed kernel perf trajectory: events/s of the sharded event kernel at
// shards = 1 (serial reference) versus shards = hardware on the local-only
// 4-node LB8 workload, the one kind of run whose shards run free on their
// own threads (a distributed run is serial at any shard request). One run
// takes about a hundred milliseconds, so the times are medians of
// interleaved serial/sharded pairs. The byte-identity invariant is enforced
// on every run — a speedup that changes results would be a bug, not a win.
//
// Results land in BENCH_testbed.json (cwd) so successive changes can track
// the trajectory. The >= 1.5x speedup gate only arms on hosts with at least
// 4 hardware threads; determinism is enforced everywhere.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "carat/testbed.h"
#include "workload/spec.h"

namespace {

struct RunStats {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::string fingerprint;
  bool ok = false;
};

RunStats RunOnce(const carat::model::ModelInput& input, int shards,
                 double measure_ms) {
  carat::TestbedOptions opts;
  opts.seed = 5;
  opts.warmup_ms = 20'000;
  opts.measure_ms = measure_ms;
  opts.shards = shards;
  const auto start = std::chrono::steady_clock::now();
  const carat::TestbedResult result = carat::RunTestbed(input, opts);
  const auto stop = std::chrono::steady_clock::now();
  RunStats stats;
  stats.ok = result.ok && result.database_consistent;
  if (!result.ok) {
    std::fprintf(stderr, "FAIL: shards=%d: %s\n", shards,
                 result.error.c_str());
    return stats;
  }
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  stats.events = result.events;
  stats.fingerprint = carat::TestbedResultFingerprint(result);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_testbed.json";
  double measure_ms = 400'000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--measure-ms") == 0 && i + 1 < argc) {
      measure_ms = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: perf_testbed [--out FILE] [--measure-ms N]\n");
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const carat::model::ModelInput input =
      carat::workload::MakeLB8(8, 4).ToModelInput();

  constexpr int kReps = 5;
  std::vector<double> serial_ms, sharded_ms, ratios;
  RunStats serial, sharded;
  bool identical = true;
  for (int rep = 0; rep < kReps; ++rep) {
    serial = RunOnce(input, /*shards=*/1, measure_ms);
    sharded = RunOnce(input, /*shards=*/0, measure_ms);
    if (!serial.ok || !sharded.ok) return 1;
    identical = identical && serial.fingerprint == sharded.fingerprint;
    serial_ms.push_back(serial.wall_ms);
    sharded_ms.push_back(sharded.wall_ms);
    ratios.push_back(sharded.wall_ms > 0.0 ? serial.wall_ms / sharded.wall_ms
                                           : 0.0);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const auto events_per_s = [](const RunStats& run, double wall_ms) {
    return wall_ms > 0.0 ? 1000.0 * run.events / wall_ms : 0.0;
  };
  const double serial_wall_ms = median(serial_ms);
  const double sharded_wall_ms = median(sharded_ms);
  const double serial_rate = events_per_s(serial, serial_wall_ms);
  const double sharded_rate = events_per_s(sharded, sharded_wall_ms);

  bool ok = true;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: shards=hw result diverged from the serial run\n");
    ok = false;
  }
  const double speedup = median(ratios);
  const bool gate_armed = hw >= 4;
  if (gate_armed && speedup < 1.5) {
    std::fprintf(stderr, "FAIL: speedup %.2fx < 1.5x with %u hw threads\n",
                 speedup, hw);
    ok = false;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_testbed\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"workload\": \"lb8 n=8 nodes=4\",\n"
               "  \"measure_ms\": %.0f,\n"
               "  \"reps\": %d,\n"
               "  \"serial\": {\n"
               "    \"shards\": 1,\n"
               "    \"events\": %llu,\n"
               "    \"wall_ms\": %.3f,\n"
               "    \"events_per_s\": %.1f\n"
               "  },\n"
               "  \"sharded\": {\n"
               "    \"shards\": \"hardware\",\n"
               "    \"events\": %llu,\n"
               "    \"wall_ms\": %.3f,\n"
               "    \"events_per_s\": %.1f\n"
               "  },\n"
               "  \"speedup\": %.3f,\n"
               "  \"speedup_gate_armed\": %s,\n"
               "  \"byte_identical\": %s\n"
               "}\n",
               hw, measure_ms, kReps,
               static_cast<unsigned long long>(serial.events), serial_wall_ms,
               serial_rate, static_cast<unsigned long long>(sharded.events),
               sharded_wall_ms, sharded_rate, speedup,
               gate_armed ? "true" : "false", identical ? "true" : "false");
  std::fclose(f);

  std::printf("median of %d interleaved pairs\n", kReps);
  std::printf("serial:  %llu events in %.1f ms (%.0f events/s)\n",
              static_cast<unsigned long long>(serial.events), serial_wall_ms,
              serial_rate);
  std::printf("sharded: %llu events in %.1f ms (%.0f events/s, %.2fx, "
              "hw=%u)\n",
              static_cast<unsigned long long>(sharded.events),
              sharded_wall_ms, sharded_rate, speedup, hw);
  std::printf("byte-identical: %s\n", identical ? "yes" : "NO");
  return ok ? 0 : 1;
}
