// carat_bench - the end-to-end benchmark harness. perfbench/run.py builds
// it and runs it as
//
//   carat_bench --workload NAME --seed N --seconds S --trace 0|1
//               --served PATH --trace-dir DIR [--inject-malformed-every K]
//
// Workloads: whatif-cached, whatif-solve, sweep-batch, testbed (README.md
// in this directory gives the reasons for each). The last line of standard
// output is the result: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. The line before it ("# report {...}") carries the host
// facts, the thread layout and the headline numbers under their own names.

#include <sched.h>
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness/bench.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: carat_bench --workload "
               "whatif-cached|whatif-solve|sweep-batch|testbed --seed N\n"
               "                   --seconds S --trace 0|1 --served PATH "
               "--trace-dir DIR\n"
               "                   [--inject-malformed-every K]\n");
  return 2;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string ThreadLayout(const Options& options) {
  using namespace perfbench;
  if (options.workload.rfind("whatif", 0) == 0) {
    return "{\"client_threads\":1,\"connections\":" +
           std::to_string(kClientConnections) +
           ",\"server_reactors\":" + std::to_string(kServerReactors) +
           ",\"server_workers\":" + std::to_string(kServerJobs) + "}";
  }
  if (options.workload == "sweep-batch") {
    return "{\"harness_threads\":1,\"pool_workers\":" +
           std::to_string(kSweepWorkers) + ",\"lane_width\":4}";
  }
  return "{\"harness_threads\":1,\"testbed_shards\":1}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = true;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--served") {
      options.served_binary = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else if (arg == "--inject-malformed-every") {
      options.inject_every = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (!have_seconds || options.seconds <= 0 || options.served_binary.empty() ||
      options.trace_dir.empty() || options.inject_every < 0) {
    return Usage();
  }
  ::signal(SIGPIPE, SIG_IGN);

  RunResult result;
  if (options.workload == "whatif-cached") {
    result = perfbench::RunWhatif(options, /*cached=*/true);
  } else if (options.workload == "whatif-solve") {
    result = perfbench::RunWhatif(options, /*cached=*/false);
  } else if (options.workload == "sweep-batch") {
    result = perfbench::RunSweepBatch(options);
  } else if (options.workload == "testbed") {
    result = perfbench::RunTestbedWorkload(options);
  } else {
    return Usage();
  }
  for (auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + name + " is not finite");
      metric.value = 0.0;
    }
  }
  for (const std::string& why : result.failures) {
    std::fprintf(stderr, "carat_bench: FAILED: %s\n", why.c_str());
  }

  const double error_rate =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 1.0;
  char num[64];
  std::snprintf(num, sizeof(num), "%.9g", error_rate);
  std::string report =
      "{\"workload\":\"" + options.workload + "\",\"seed\":" +
      std::to_string(options.seed) + ",\"trace\":" +
      (options.trace ? "true" : "false") +
      ",\"host\":{\"nproc\":" + std::to_string(Nproc()) +
      ",\"hardware_concurrency\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"compiler\":\"" + Compiler() + "\",\"build_type\":\"" +
      CARAT_BENCH_BUILD_TYPE + "\"},\"threads\":" + ThreadLayout(options) +
      ",\"attempted\":" + std::to_string(result.attempted) +
      ",\"failed\":" + std::to_string(result.failed) +
      ",\"injected\":" + std::to_string(result.injected) +
      ",\"error_rate\":" + num;
  for (const auto& [key, value] : result.report) {
    report += ",\"" + key + "\":" + value;
  }
  std::printf("# report %s}\n", report.c_str());

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::snprintf(num, sizeof(num), "%.17g", metric.value);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
