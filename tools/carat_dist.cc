// carat_dist - run the CARAT testbed as a real distributed system.
//
// Spawns one carat_sited process per site, wires them into a full mesh over
// TCP, runs the paper workload for a real-time measurement window, and
// cross-checks the aggregate throughput / response time / restart
// probability against the in-process discrete-event reference (RunTestbed)
// fed with the *measured* inter-site delay alpha.
//
//   $ carat_dist --sites 2 --workload mb8 --n 8
//   sites=2 workload=mb8 n=8 scale=0.10 alpha=0.023ms (virtual 0.23ms)
//   dist: 42.31 txn/s  response 282.1 ms  restart 0.031  (3812 commits, ...)
//   ref:  44.05 txn/s  response 270.9 ms  restart 0.028
//   check: PASS (xput 3.9% <= 35.0%, resp 4.1% <= 45.0%, restart 0.003 <= 0.100)
//
// Flags:
//   --sites N          site processes (default 2)
//   --workload W       lb8 | mb4 | mb8 | ub6 (default mb8)
//   --n N              requests per transaction (default 8)
//   --granules G       granules per site (default 3000)
//   --scale S          real ms per virtual ms (default 0.1)
//   --warmup-ms W      real warm-up window (default 1500)
//   --measure-ms M     real measurement window (default 6000)
//   --seed S           workload seed (default 1)
//   --cc B             concurrency-control backend: 2pl (default) | nowait
//                      | waitdie | queue (the coordinator refuses mixed
//                      meshes; the cross-check is calibrated on 2pl)
//   --no-check         skip the in-process reference cross-check
//   --json             machine-readable result on stdout
//   --sited-bin PATH   carat_sited binary (default: auto-resolve)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cc/cc.h"
#include "dist/coordinator.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: carat_dist [--sites N] [--workload lb8|mb4|mb8|ub6] [--n N]\n"
      "                  [--granules G] [--scale S] [--warmup-ms W]\n"
      "                  [--measure-ms M] [--seed S] [--cc B] [--no-check]\n"
      "                  [--json] [--sited-bin PATH]\n");
  return 2;
}

bool ParsePositiveInt(const char* arg, long lo, long hi, int* out) {
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (*arg == '\0' || *end != '\0' || v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParsePositiveDouble(const char* arg, double* out) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (*arg == '\0' || *end != '\0' || v <= 0.0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace carat;

  dist::DistRunOptions options;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sites" && i + 1 < argc) {
      if (!ParsePositiveInt(argv[++i], 1, 64, &options.config.sites)) {
        std::fprintf(stderr, "--sites: expected 1..64, got '%s'\n", argv[i]);
        return Usage();
      }
    } else if (arg == "--workload" && i + 1 < argc) {
      options.config.workload = argv[++i];
      if (options.config.workload != "lb8" &&
          options.config.workload != "mb4" &&
          options.config.workload != "mb8" &&
          options.config.workload != "ub6") {
        std::fprintf(stderr, "--workload: expected lb8|mb4|mb8|ub6\n");
        return Usage();
      }
    } else if (arg == "--n" && i + 1 < argc) {
      if (!ParsePositiveInt(argv[++i], 1, 64,
                            &options.config.requests_per_txn)) {
        std::fprintf(stderr, "--n: expected 1..64, got '%s'\n", argv[i]);
        return Usage();
      }
    } else if (arg == "--granules" && i + 1 < argc) {
      if (!ParsePositiveInt(argv[++i], 1, 1'000'000,
                            &options.config.num_granules)) {
        std::fprintf(stderr, "--granules: expected a positive count\n");
        return Usage();
      }
    } else if (arg == "--scale" && i + 1 < argc) {
      if (!ParsePositiveDouble(argv[++i], &options.config.scale)) {
        std::fprintf(stderr, "--scale: expected a positive factor\n");
        return Usage();
      }
    } else if (arg == "--warmup-ms" && i + 1 < argc) {
      if (!ParsePositiveDouble(argv[++i], &options.warmup_real_ms)) {
        std::fprintf(stderr, "--warmup-ms: expected a positive duration\n");
        return Usage();
      }
    } else if (arg == "--measure-ms" && i + 1 < argc) {
      if (!ParsePositiveDouble(argv[++i], &options.measure_real_ms)) {
        std::fprintf(stderr, "--measure-ms: expected a positive duration\n");
        return Usage();
      }
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      options.config.seed = std::strtoull(argv[++i], &end, 10);
      if (*argv[i] == '\0' || *end != '\0') {
        std::fprintf(stderr, "--seed: expected an integer\n");
        return Usage();
      }
    } else if (arg == "--cc" && i + 1 < argc) {
      cc::BackendKind kind;
      if (!cc::ParseBackend(argv[++i], &kind)) {
        std::fprintf(stderr, "--cc: unknown backend '%s'\n", argv[i]);
        return Usage();
      }
      options.config.cc = argv[i];
    } else if (arg == "--no-check") {
      options.check = false;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--sited-bin" && i + 1 < argc) {
      options.sited_bin = argv[++i];
    } else {
      return Usage();
    }
  }

  std::signal(SIGPIPE, SIG_IGN);
  const dist::DistRunResult result = dist::RunDistributed(options);
  if (!result.ok) {
    std::fprintf(stderr, "carat_dist: %s\n", result.error.c_str());
    return 1;
  }

  if (json) {
    std::printf(
        "{\"sites\":%d,\"workload\":\"%s\",\"n\":%d,\"cc\":\"%s\",\"scale\":%g,"
        "\"alpha_rtt_real_ms\":%.6f,\"alpha_virtual_ms\":%.6f,"
        "\"measured_vms\":%.3f,\"commits\":%llu,\"submissions\":%llu,"
        "\"aborts\":%llu,\"global_deadlocks\":%llu,\"messages\":%llu,"
        "\"dist_txn_per_s\":%.4f,\"dist_response_ms\":%.4f,"
        "\"dist_restart_prob\":%.6f,\"all_drained\":%s,\"all_audits_ok\":%s,"
        "\"checked\":%s,\"ref_txn_per_s\":%.4f,\"ref_response_ms\":%.4f,"
        "\"ref_restart_prob\":%.6f,\"throughput_rel_err\":%.6f,"
        "\"response_rel_err\":%.6f,\"restart_abs_err\":%.6f,"
        "\"within_tolerance\":%s}\n",
        options.config.sites, options.config.workload.c_str(),
        options.config.requests_per_txn, options.config.cc.c_str(),
        options.config.scale, result.alpha_rtt_real_ms, result.alpha_virtual_ms,
        result.measured_vms,
        static_cast<unsigned long long>(result.commits),
        static_cast<unsigned long long>(result.submissions),
        static_cast<unsigned long long>(result.aborts),
        static_cast<unsigned long long>(result.global_deadlocks),
        static_cast<unsigned long long>(result.messages_sent),
        result.dist_txn_per_s, result.dist_response_ms,
        result.dist_restart_prob, result.all_drained ? "true" : "false",
        result.all_audits_ok ? "true" : "false",
        result.checked ? "true" : "false", result.ref_txn_per_s,
        result.ref_response_ms, result.ref_restart_prob,
        result.throughput_rel_err, result.response_rel_err,
        result.restart_abs_err, result.within_tolerance ? "true" : "false");
  } else {
    std::printf(
        "sites=%d workload=%s n=%d cc=%s scale=%.2f alpha=%.3fms (virtual "
        "%.3fms)\n",
        options.config.sites, options.config.workload.c_str(),
        options.config.requests_per_txn, options.config.cc.c_str(),
        options.config.scale, result.alpha_rtt_real_ms / 2.0,
        result.alpha_virtual_ms);
    std::printf(
        "dist: %.2f txn/s  response %.1f ms  restart %.3f  (%llu commits, "
        "%llu msgs, %llu global deadlocks, drained=%s, audit=%s)\n",
        result.dist_txn_per_s, result.dist_response_ms,
        result.dist_restart_prob,
        static_cast<unsigned long long>(result.commits),
        static_cast<unsigned long long>(result.messages_sent),
        static_cast<unsigned long long>(result.global_deadlocks),
        result.all_drained ? "yes" : "NO", result.all_audits_ok ? "ok" : "BAD");
    if (result.checked) {
      std::printf("ref:  %.2f txn/s  response %.1f ms  restart %.3f\n",
                  result.ref_txn_per_s, result.ref_response_ms,
                  result.ref_restart_prob);
      std::printf(
          "check: %s (xput %.1f%% <= %.1f%%, resp %.1f%% <= %.1f%%, restart "
          "%.3f <= %.3f)\n",
          result.within_tolerance ? "PASS" : "FAIL",
          result.throughput_rel_err * 100.0,
          options.tol_throughput_rel * 100.0, result.response_rel_err * 100.0,
          options.tol_response_rel * 100.0, result.restart_abs_err,
          options.tol_restart_abs);
    }
  }

  const bool pass = result.all_drained && result.all_audits_ok &&
                    (!result.checked || result.within_tolerance);
  return pass ? 0 : 1;
}
