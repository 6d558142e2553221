// Concurrency-control backend perf trajectory: sustained testbed throughput
// of every cc::Backend at the paper's two contention levels.
//
//   paper tier — MB8 (n = 8, 2 nodes) at the paper's 3000 granules/node:
//     lock conflicts are rare, so all four backends should deliver the same
//     committed throughput to within a small tolerance.
//   contended tier — MB8 (n = 8, 4 nodes) squeezed onto 150 granules/node
//     with a 5 ms communication delay: 2PL thrashes on deadlocks while the
//     queue backend, deadlock-free by construction, keeps committing.
//
// Hard gates (a red run is a regression, not noise):
//   * every run completes with a consistent database and > 0 commits,
//   * the queue backend records zero deadlocks, zero aborts and zero probes
//     at both tiers,
//   * under contention the queue backend commits at least as many
//     transactions as 2PL, and 2PL's deadlock detector actually fires
//     (proving the tier exercises the policies, not just the code path).
//
// Results land in BENCH_cc.json (cwd) so successive PRs can track the
// per-backend trajectory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "carat/testbed.h"
#include "cc/cc.h"
#include "workload/spec.h"

namespace {

struct RunStats {
  bool ok = false;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_s = 0.0;
  double txn_per_s = 0.0;  ///< virtual-time committed throughput
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t deadlocks = 0;  ///< local + global
  std::uint64_t probes = 0;
};

RunStats RunOnce(const carat::workload::WorkloadSpec& spec,
                 const carat::TestbedOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  const carat::TestbedResult result =
      carat::RunTestbed(spec.ToModelInput(), opts);
  const auto stop = std::chrono::steady_clock::now();
  RunStats stats;
  if (!result.ok || !result.database_consistent) {
    std::fprintf(stderr, "FAIL: cc=%s: %s\n",
                 std::string(carat::cc::Name(spec.cc_backend)).c_str(),
                 result.ok ? "database inconsistent" : result.error.c_str());
    return stats;
  }
  stats.ok = true;
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  stats.events = result.events;
  stats.events_per_s =
      stats.wall_ms > 0.0 ? 1000.0 * result.events / stats.wall_ms : 0.0;
  stats.txn_per_s = result.TotalTxnPerSec();
  stats.deadlocks = result.global_deadlocks;
  stats.probes = result.probes_sent;
  for (const auto& node : result.nodes) {
    stats.deadlocks += node.local_deadlocks;
    for (const auto& type : node.types) {
      stats.commits += type.commits;
      stats.aborts += type.aborts;
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace carat;

  std::string out_path = "BENCH_cc.json";
  double paper_measure_ms = 400'000.0;
  double contended_measure_ms = 100'000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--measure-ms") == 0 && i + 1 < argc) {
      paper_measure_ms = std::atof(argv[++i]);
      contended_measure_ms = paper_measure_ms;
    } else {
      std::fprintf(stderr, "usage: perf_cc [--out FILE] [--measure-ms N]\n");
      return 2;
    }
  }

  struct Tier {
    const char* name;
    workload::WorkloadSpec spec;
    TestbedOptions opts;
  };
  Tier tiers[2];

  tiers[0].name = "paper";
  tiers[0].spec = workload::MakeMB8(8, 2);
  tiers[0].opts.seed = 5;
  tiers[0].opts.warmup_ms = 20'000;
  tiers[0].opts.measure_ms = paper_measure_ms;

  tiers[1].name = "contended";
  tiers[1].spec = workload::MakeMB8(8, 4);
  tiers[1].spec.comm_delay_ms = 5.0;
  tiers[1].spec.num_granules = 150;
  tiers[1].opts.seed = 3;
  tiers[1].opts.warmup_ms = 10'000;
  tiers[1].opts.measure_ms = contended_measure_ms;

  bool ok = true;
  RunStats stats[2][cc::kNumBackends];
  for (int t = 0; t < 2; ++t) {
    for (const cc::BackendKind kind : cc::kAllBackends) {
      workload::WorkloadSpec spec = tiers[t].spec;
      spec.cc_backend = kind;
      const int b = static_cast<int>(kind);
      stats[t][b] = RunOnce(spec, tiers[t].opts);
      const RunStats& s = stats[t][b];
      if (!s.ok || s.commits == 0) {
        std::fprintf(stderr, "FAIL: tier=%s cc=%s: no committed work\n",
                     tiers[t].name, std::string(cc::Name(kind)).c_str());
        ok = false;
        continue;
      }
      std::printf(
          "%-9s %-7s %6llu commits %6llu aborts %5llu deadlocks "
          "%8.3f txn/s  %.0f events/s wall\n",
          tiers[t].name, std::string(cc::Name(kind)).c_str(),
          static_cast<unsigned long long>(s.commits),
          static_cast<unsigned long long>(s.aborts),
          static_cast<unsigned long long>(s.deadlocks), s.txn_per_s,
          s.events_per_s);
      if (kind == cc::BackendKind::kQueue &&
          (s.deadlocks != 0 || s.aborts != 0 || s.probes != 0)) {
        std::fprintf(stderr,
                     "FAIL: tier=%s: queue backend recorded deadlocks=%llu "
                     "aborts=%llu probes=%llu (must all be zero)\n",
                     tiers[t].name,
                     static_cast<unsigned long long>(s.deadlocks),
                     static_cast<unsigned long long>(s.aborts),
                     static_cast<unsigned long long>(s.probes));
        ok = false;
      }
    }
  }

  const RunStats& c_2pl = stats[1][static_cast<int>(cc::BackendKind::k2PL)];
  const RunStats& c_queue = stats[1][static_cast<int>(cc::BackendKind::kQueue)];
  if (c_2pl.ok && c_queue.ok) {
    if (c_queue.commits < c_2pl.commits) {
      std::fprintf(stderr,
                   "FAIL: contended: queue committed %llu < 2pl's %llu\n",
                   static_cast<unsigned long long>(c_queue.commits),
                   static_cast<unsigned long long>(c_2pl.commits));
      ok = false;
    }
    if (c_2pl.deadlocks == 0) {
      std::fprintf(stderr,
                   "FAIL: contended tier produced no 2pl deadlocks — the "
                   "tier no longer stresses the policies\n");
      ok = false;
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_cc\",\n"
               "  \"tiers\": [\n");
  for (int t = 0; t < 2; ++t) {
    std::fprintf(f,
                 "    {\n"
                 "      \"tier\": \"%s\",\n"
                 "      \"workload\": \"mb8 n=8 nodes=%d granules=%d "
                 "alpha=%gms\",\n"
                 "      \"measure_ms\": %.0f,\n"
                 "      \"backends\": [\n",
                 tiers[t].name, static_cast<int>(tiers[t].spec.nodes.size()),
                 tiers[t].spec.num_granules, tiers[t].spec.comm_delay_ms,
                 tiers[t].opts.measure_ms);
    for (const cc::BackendKind kind : cc::kAllBackends) {
      const RunStats& s = stats[t][static_cast<int>(kind)];
      std::fprintf(
          f,
          "        {\"cc\": \"%s\", \"commits\": %llu, \"aborts\": %llu, "
          "\"deadlocks\": %llu, \"probes\": %llu, \"txn_per_s\": %.4f, "
          "\"events\": %llu, \"wall_ms\": %.3f, \"events_per_s\": %.1f}%s\n",
          std::string(cc::Name(kind)).c_str(),
          static_cast<unsigned long long>(s.commits),
          static_cast<unsigned long long>(s.aborts),
          static_cast<unsigned long long>(s.deadlocks),
          static_cast<unsigned long long>(s.probes), s.txn_per_s,
          static_cast<unsigned long long>(s.events), s.wall_ms,
          s.events_per_s, kind == cc::BackendKind::kQueue ? "" : ",");
    }
    std::fprintf(f,
                 "      ]\n"
                 "    }%s\n",
                 t == 0 ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"gates_green\": %s\n"
               "}\n",
               ok ? "true" : "false");
  std::fclose(f);

  std::printf("gates: %s\n", ok ? "green" : "RED");
  return ok ? 0 : 1;
}
