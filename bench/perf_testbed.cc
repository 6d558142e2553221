// Testbed perf trajectory: events/s of one testbed run on the calling
// thread, and the fan-out that parallelizes testbeds -- independent runs
// over exec::ParallelFor, as bench::RunSweep does for every figure and
// table. The input is the local-only 4-node LB8 workload at K = 8 seeds.
// One run takes about a hundred milliseconds, so the times are medians of
// interleaved serial/pooled passes. Every pooled run's fingerprint must
// equal its serial twin's on every host: a run's result may not depend on
// the thread it ran on or on what ran beside it.
//
// Results land in BENCH_testbed.json (cwd) so successive changes can track
// the trajectory. The >= 1.5x fan-out gate only arms on hosts with at least
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
#include "exec/thread_pool.h"
#include "workload/spec.h"

namespace {

constexpr int kSeeds = 8;

struct Pass {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::vector<std::string> fingerprints;
  bool ok = true;
};

// Runs seeds 1..kSeeds, on the calling thread when `pool` is null, else
// fanned out over `pool`.
Pass RunPass(const carat::model::ModelInput& input, double measure_ms,
             carat::exec::ThreadPool* pool) {
  std::vector<carat::TestbedResult> results(kSeeds);
  const auto start = std::chrono::steady_clock::now();
  carat::exec::ParallelFor(pool, 0, kSeeds, [&](std::size_t i) {
    carat::TestbedOptions opts;
    opts.seed = i + 1;
    opts.warmup_ms = 20'000;
    opts.measure_ms = measure_ms;
    results[i] = carat::RunTestbed(input, opts);
  });
  const auto stop = std::chrono::steady_clock::now();
  Pass pass;
  pass.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  for (const carat::TestbedResult& r : results) {
    if (!r.ok || !r.database_consistent) {
      std::fprintf(stderr, "FAIL: testbed run: %s\n", r.error.c_str());
      pass.ok = false;
    }
    pass.events += r.events;
    pass.fingerprints.push_back(carat::TestbedResultFingerprint(r));
  }
  return pass;
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
  carat::exec::ThreadPool pool;  // sized to the hardware
  const carat::model::ModelInput input =
      carat::workload::MakeLB8(8, 4).ToModelInput();

  constexpr int kReps = 5;
  std::vector<double> serial_ms, pooled_ms, ratios;
  Pass serial, pooled;
  bool identical = true;
  for (int rep = 0; rep < kReps; ++rep) {
    serial = RunPass(input, measure_ms, nullptr);
    pooled = RunPass(input, measure_ms, &pool);
    if (!serial.ok || !pooled.ok) return 1;
    identical = identical && serial.fingerprints == pooled.fingerprints;
    serial_ms.push_back(serial.wall_ms);
    pooled_ms.push_back(pooled.wall_ms);
    ratios.push_back(pooled.wall_ms > 0.0 ? serial.wall_ms / pooled.wall_ms
                                          : 0.0);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const auto events_per_s = [](const Pass& pass, double wall_ms) {
    return wall_ms > 0.0 ? 1000.0 * pass.events / wall_ms : 0.0;
  };
  const double serial_wall_ms = median(serial_ms);
  const double pooled_wall_ms = median(pooled_ms);
  const double serial_rate = events_per_s(serial, serial_wall_ms);
  const double pooled_rate = events_per_s(pooled, pooled_wall_ms);

  bool ok = true;
  if (!identical) {
    std::fprintf(stderr, "FAIL: a pooled run diverged from its serial twin\n");
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
               "  \"seeds\": %d,\n"
               "  \"measure_ms\": %.0f,\n"
               "  \"reps\": %d,\n"
               "  \"serial\": {\n"
               "    \"threads\": 1,\n"
               "    \"events\": %llu,\n"
               "    \"wall_ms\": %.3f,\n"
               "    \"events_per_s\": %.1f\n"
               "  },\n"
               "  \"pooled\": {\n"
               "    \"threads\": %zu,\n"
               "    \"events\": %llu,\n"
               "    \"wall_ms\": %.3f,\n"
               "    \"events_per_s\": %.1f\n"
               "  },\n"
               "  \"speedup\": %.3f,\n"
               "  \"speedup_gate_armed\": %s,\n"
               "  \"byte_identical\": %s\n"
               "}\n",
               hw, kSeeds, measure_ms, kReps,
               static_cast<unsigned long long>(serial.events), serial_wall_ms,
               serial_rate, pool.size(),
               static_cast<unsigned long long>(pooled.events), pooled_wall_ms,
               pooled_rate, speedup, gate_armed ? "true" : "false",
               identical ? "true" : "false");
  std::fclose(f);

  std::printf("%d seeds, median of %d interleaved passes\n", kSeeds, kReps);
  std::printf("serial: %llu events in %.1f ms (%.0f events/s)\n",
              static_cast<unsigned long long>(serial.events), serial_wall_ms,
              serial_rate);
  std::printf("pooled: %llu events in %.1f ms (%.0f events/s, %.2fx, "
              "%zu threads, hw=%u)\n",
              static_cast<unsigned long long>(pooled.events), pooled_wall_ms,
              pooled_rate, speedup, pool.size(), hw);
  std::printf("byte-identical: %s\n", identical ? "yes" : "NO");
  return ok ? 0 : 1;
}
