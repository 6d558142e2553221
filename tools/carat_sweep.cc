// carat_sweep - emit CSV for the paper's figures (or any custom sweep) so
// the curves can be plotted directly:
//
//   carat_sweep --workload lb8 > lb8.csv
//   carat_sweep --workload mb4 --sizes 2,4,6,8,10,12 --seed 7 > mb4.csv
//   carat_sweep --workload mb8 --jobs 8 > mb8.csv   # parallel sweep points
//   carat_sweep --workload mb8 --cc queue > mb8_queue.csv
//
// The first output line is a `# cc=<backend>` comment naming the
// concurrency-control backend the sweep ran under, so a CSV is
// self-describing; then:
//
// Columns: workload,n,node,source,xput_tps,records_ps,cpu_util,dio_ps,
//          pa_lu,lockwait_ms,remotewait_ms,commitwait_ms
// with source in {model, testbed}.
//
// The model side of the sweep runs as one batch through serve::SolverService
// (same-shape sweep points solved in lockstep blocks at the service's default
// lane width, bit-identical per point to one-at-a-time solves; arena reuse;
// duplicate sizes answered from the solution cache); the testbed side fans
// out over the same worker pool. --jobs N uses N workers (omitted: one per
// hardware thread; N must be >= 1). Every point is independently seeded and
// rows are emitted in sweep order, so the CSV is byte-identical for any N.
//
// --warm additionally seeds each model solve from the nearest already-solved
// sweep point (serve warm-start index). That reduces fixed-point iterations
// but makes the low-order bits of the model rows depend on solve completion
// order, so it is off by default where reproducibility is the point.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "carat/carat.h"
#include "exec/thread_pool.h"
#include "serve/solver_service.h"
#include "util/cli.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: carat_sweep [--workload lb8|mb4|mb8|ub6] "
               "[--sizes 4,8,...] [--seed N] [--measure-s S] [--jobs N] "
               "[--warm] [--nodes N] [--site-classes K] [--flat] "
               "[--cc 2pl|nowait|waitdie|queue]\n"
               "  --cc <backend>    concurrency-control backend for every "
               "sweep point (default 2pl);\n"
               "                    named in the CSV's leading '# cc=' "
               "comment line\n"
               "  --nodes N         sites per sweep point (default 2, the "
               "paper's testbed)\n"
               "  --site-classes K  distinct disk-speed classes cycled over "
               "the nodes (default 2);\n"
               "                    the solver collapses each class to one "
               "representative site\n"
               "  --flat            solve without class collapse "
               "(bit-identical, O(sites)/iteration)\n");
  return 2;
}

std::string FormatRow(const char* workload, int n, const char* node,
                      const char* source, double xput, double records,
                      double cpu, double dio, double pa, double lw, double rw,
                      double cw) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s,%d,%s,%s,%.4f,%.2f,%.4f,%.2f,%.4f,%.1f,%.1f,%.1f\n",
                workload, n, node, source, xput, records, cpu, dio, pa, lw, rw,
                cw);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace carat;
  std::string workload = "lb8";
  std::vector<int> sizes = {4, 8, 12, 16, 20};
  std::uint64_t seed = 1;
  double measure_s = 2000.0;
  int jobs = 0;  // 0: --jobs omitted, one worker per hardware thread
  bool warm = false;
  int nodes = 2;         // the paper's two-site testbed
  int site_classes = 2;  // distinct disk-speed classes among the nodes
  bool flat = false;     // --flat: disable hierarchical class collapse
  cc::BackendKind cc_backend = cc::BackendKind::k2PL;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--sizes" && i + 1 < argc) {
      std::string bad;
      if (!util::ParseSizes(argv[++i], &sizes, &bad)) {
        std::fprintf(stderr, "--sizes: invalid transaction size '%s'\n",
                     bad.c_str());
        return Usage();
      }
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--measure-s" && i + 1 < argc) {
      measure_s = std::atof(argv[++i]);
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!util::ParseJobs(argv[++i], &jobs)) {
        std::fprintf(stderr,
                     "--jobs: expected a positive integer, got '%s' "
                     "(omit --jobs for one worker per hardware thread)\n",
                     argv[i]);
        return Usage();
      }
    } else if (arg == "--warm") {
      warm = true;
    } else if (arg == "--nodes" && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
      if (nodes < 1) {
        std::fprintf(stderr, "--nodes: expected a positive integer\n");
        return Usage();
      }
    } else if (arg == "--site-classes" && i + 1 < argc) {
      site_classes = std::atoi(argv[++i]);
      if (site_classes < 1) {
        std::fprintf(stderr, "--site-classes: expected a positive integer\n");
        return Usage();
      }
    } else if (arg == "--flat") {
      flat = true;
    } else if (arg == "--cc" && i + 1 < argc) {
      if (!cc::ParseBackend(argv[++i], &cc_backend)) {
        std::fprintf(stderr, "--cc: unknown backend '%s'\n", argv[i]);
        return Usage();
      }
    } else if (arg.rfind("--cc=", 0) == 0) {
      if (!cc::ParseBackend(arg.substr(5), &cc_backend)) {
        std::fprintf(stderr, "--cc: unknown backend '%s'\n",
                     arg.substr(5).c_str());
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (site_classes > nodes) site_classes = nodes;

  workload::WorkloadSpec (*make)(int, int) = nullptr;
  if (workload == "lb8") {
    make = [](int n, int k) { return workload::MakeLB8(n, k); };
  } else if (workload == "mb4") {
    make = [](int n, int k) { return workload::MakeMB4(n, k); };
  } else if (workload == "mb8") {
    make = [](int n, int k) { return workload::MakeMB8(n, k); };
  } else if (workload == "ub6") {
    make = [](int n, int k) { return workload::MakeUB6(n, k); };
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }

  std::vector<workload::WorkloadSpec> specs;
  std::vector<model::ModelInput> inputs;
  specs.reserve(sizes.size());
  inputs.reserve(sizes.size());
  for (const int n : sizes) {
    specs.push_back(make(n, nodes));
    if (site_classes != 2) {
      // One disk speed per class, cycled over the nodes (the default two
      // alternating speeds are what every spec ships with).
      specs.back().block_io_ms.clear();
      for (int c = 0; c < site_classes; ++c) {
        specs.back().block_io_ms.push_back(28.0 + 12.0 * (c % 2) +
                                           3.0 * (c / 2));
      }
    }
    specs.back().cc_backend = cc_backend;
    inputs.push_back(specs.back().ToModelInput());
  }

  serve::SolverService::Options sopts;
  sopts.threads = static_cast<std::size_t>(jobs);  // 0 = hardware threads
  sopts.warm_start = warm;
  sopts.solver.collapse_site_classes = !flat;
  serve::SolverService service(std::move(sopts));

  // Model side: one batch through the service (inputs are copied; the
  // originals drive the testbed and row assembly below).
  const std::vector<model::ModelSolution> solutions =
      service.SolveBatch(inputs);

  // Testbed side: independently seeded points fan out over the same pool;
  // rows are buffered per point and emitted in sweep order, keeping the CSV
  // deterministic.
  std::vector<std::string> rows(sizes.size());
  std::vector<std::string> errors(sizes.size());
  exec::ParallelFor(service.pool(), 0, sizes.size(), [&](std::size_t idx) {
    const int n = sizes[idx];
    const workload::WorkloadSpec& wl = specs[idx];
    const model::ModelInput& input = inputs[idx];
    const model::ModelSolution& m = solutions[idx];
    TestbedOptions opts;
    opts.seed = seed;
    opts.warmup_ms = 100'000;
    opts.measure_ms = measure_s * 1000.0;
    const TestbedResult s = RunTestbed(input, opts);
    if (!m.ok || !s.ok) {
      errors[idx] = m.error + s.error;
      return;
    }
    for (std::size_t i = 0; i < input.sites.size(); ++i) {
      const auto& ms = m.sites[i];
      const auto& lu = ms.Class(model::TxnType::kLRO).present
                           ? ms.Class(model::TxnType::kLU)
                           : ms.Class(model::TxnType::kDUC);
      rows[idx] += FormatRow(wl.name.c_str(), n, input.sites[i].name.c_str(),
                             "model", ms.txn_per_s, ms.records_per_s,
                             ms.cpu_utilization, ms.dio_per_s, lu.pa,
                             lu.d_lw_ms, lu.d_rw_ms, lu.d_cw_ms);
      const auto& ns = s.nodes[i];
      const auto& slu = ns.Type(model::TxnType::kLU).present
                            ? ns.Type(model::TxnType::kLU)
                            : ns.Type(model::TxnType::kDUC);
      rows[idx] += FormatRow(wl.name.c_str(), n, input.sites[i].name.c_str(),
                             "testbed", ns.txn_per_s, ns.records_per_s,
                             ns.cpu_utilization, ns.dio_per_s, slu.abort_prob,
                             slu.lock_wait_ms, slu.remote_wait_ms,
                             slu.commit_wait_ms);
    }
  });

  for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
    if (!errors[idx].empty()) {
      std::fprintf(stderr, "solve failed at n=%d: %s\n", sizes[idx],
                   errors[idx].c_str());
      return 1;
    }
  }
  const std::string cc_name(cc::Name(cc_backend));
  std::printf("# cc=%s\n", cc_name.c_str());
  std::printf(
      "workload,n,node,source,xput_tps,records_ps,cpu_util,dio_ps,"
      "pa_lu,lockwait_ms,remotewait_ms,commitwait_ms\n");
  for (const std::string& row : rows) std::fputs(row.c_str(), stdout);
  return 0;
}
