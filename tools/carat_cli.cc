// carat_cli - run the analytical model and/or the simulated testbed on a
// configurable workload from the command line.
//
//   carat_cli --workload mb8 --n 12 --mode both
//   carat_cli --workload lb8 --n 8 --buffer 1500 --measure-s 2000
//   carat_cli --workload mb4 --nodes 3 --hot-data 0.1 --hot-access 0.8
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "carat/carat.h"
#include "util/table.h"

namespace {

struct Flags {
  std::string workload = "mb4";
  int n = 8;
  int nodes = 2;
  std::string mode = "both";  // model | sim | both
  std::uint64_t seed = 1;
  double measure_s = 1000.0;
  double warmup_s = 100.0;
  double think_ms = 0.0;
  double alpha_ms = 0.0;
  double hot_data = 0.0;
  double hot_access = 0.0;
  int buffer = 0;
  int dm_pool = 0;
  bool log_disk = false;
  std::string victim = "requester";
  std::string cc = "2pl";
  bool verbose = false;
};

void PrintHelp() {
  std::cout <<
      "carat_cli - CARAT queueing network model & testbed driver\n\n"
      "  --workload <lb8|mb4|mb8|ub6>  standard workload (default mb4)\n"
      "  --n <int>                     requests per transaction (default 8)\n"
      "  --nodes <int>                 number of nodes (default 2)\n"
      "  --mode <model|sim|both>       what to run (default both)\n"
      "  --seed <int>                  testbed RNG seed (default 1)\n"
      "  --measure-s <sec>             simulated measurement window\n"
      "  --warmup-s <sec>              simulated warm-up\n"
      "  --think-ms <ms>               user think time R_UT\n"
      "  --alpha-ms <ms>               one-way message delay\n"
      "  --hot-data <frac>             hot-set size (0 = uniform)\n"
      "  --hot-access <frac>           hot-set access share\n"
      "  --buffer <blocks>             LRU buffer per node (0 = none)\n"
      "  --dm-pool <int>               DM servers per node (0 = unlimited)\n"
      "  --log-disk                    separate log disk per node\n"
      "  --victim <requester|youngest|oldest>  deadlock victim policy\n"
      "  --cc <2pl|nowait|waitdie|queue>  concurrency-control backend\n"
      "  --verbose                     per-type details\n";
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::atof(argv[++i]);
      return true;
    };
    auto next_str = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    double v = 0;
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      std::exit(0);
    } else if (arg == "--workload") {
      if (!next_str(&flags->workload)) return false;
    } else if (arg == "--n") {
      if (!next(&v)) return false;
      flags->n = static_cast<int>(v);
    } else if (arg == "--nodes") {
      if (!next(&v)) return false;
      flags->nodes = static_cast<int>(v);
    } else if (arg == "--mode") {
      if (!next_str(&flags->mode)) return false;
    } else if (arg == "--seed") {
      if (!next(&v)) return false;
      flags->seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--measure-s") {
      if (!next(&flags->measure_s)) return false;
    } else if (arg == "--warmup-s") {
      if (!next(&flags->warmup_s)) return false;
    } else if (arg == "--think-ms") {
      if (!next(&flags->think_ms)) return false;
    } else if (arg == "--alpha-ms") {
      if (!next(&flags->alpha_ms)) return false;
    } else if (arg == "--hot-data") {
      if (!next(&flags->hot_data)) return false;
    } else if (arg == "--hot-access") {
      if (!next(&flags->hot_access)) return false;
    } else if (arg == "--buffer") {
      if (!next(&v)) return false;
      flags->buffer = static_cast<int>(v);
    } else if (arg == "--dm-pool") {
      if (!next(&v)) return false;
      flags->dm_pool = static_cast<int>(v);
    } else if (arg == "--log-disk") {
      flags->log_disk = true;
    } else if (arg == "--victim") {
      if (!next_str(&flags->victim)) return false;
    } else if (arg == "--cc") {
      if (!next_str(&flags->cc)) return false;
    } else if (arg == "--verbose") {
      flags->verbose = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace carat;
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintHelp();
    return 2;
  }

  workload::WorkloadSpec wl;
  if (flags.workload == "lb8") {
    wl = workload::MakeLB8(flags.n, flags.nodes);
  } else if (flags.workload == "mb4") {
    wl = workload::MakeMB4(flags.n, flags.nodes);
  } else if (flags.workload == "mb8") {
    wl = workload::MakeMB8(flags.n, flags.nodes);
  } else if (flags.workload == "ub6") {
    wl = workload::MakeUB6(flags.n, flags.nodes);
  } else {
    std::cerr << "unknown workload: " << flags.workload << "\n";
    return 2;
  }
  wl.think_time_ms = flags.think_ms;
  wl.comm_delay_ms = flags.alpha_ms;
  wl.hot_data_fraction = flags.hot_data;
  wl.hot_access_fraction = flags.hot_access;
  wl.buffer_blocks = flags.buffer;
  wl.dm_pool_size = flags.dm_pool;
  wl.separate_log_disk = flags.log_disk;
  if (!cc::ParseBackend(flags.cc, &wl.cc_backend)) {
    std::cerr << "unknown cc backend: " << flags.cc
              << " (want 2pl|nowait|waitdie|queue)\n";
    return 2;
  }

  const model::ModelInput input = wl.ToModelInput();
  const bool run_model = flags.mode == "model" || flags.mode == "both";
  const bool run_sim = flags.mode == "sim" || flags.mode == "both";

  model::ModelSolution m;
  TestbedResult s;
  if (run_model) {
    m = model::CaratModel(input).Solve();
    if (!m.ok) {
      std::cerr << "model: " << m.error << "\n";
      return 1;
    }
  }
  if (run_sim) {
    TestbedOptions opts;
    opts.seed = flags.seed;
    opts.warmup_ms = flags.warmup_s * 1000.0;
    opts.measure_ms = flags.measure_s * 1000.0;
    if (flags.victim == "youngest") {
      opts.victim_policy = lock::VictimPolicy::kYoungest;
    } else if (flags.victim == "oldest") {
      opts.victim_policy = lock::VictimPolicy::kOldest;
    }
    s = RunTestbed(input, opts);
    if (!s.ok) {
      std::cerr << "testbed: " << s.error << "\n";
      return 1;
    }
  }

  std::cout << wl.name << ", n = " << flags.n << ", " << flags.nodes
            << " node(s), cc = " << cc::Name(wl.cc_backend) << "\n\n";
  util::TextTable table;
  std::vector<std::string> header = {"Node", "metric"};
  if (run_model) header.push_back("model");
  if (run_sim) header.push_back("testbed");
  table.SetHeader(header);
  for (std::size_t i = 0; i < input.sites.size(); ++i) {
    auto row = [&](const std::string& name, double model_v, double sim_v,
                   int precision = 2) {
      std::vector<std::string> cells = {input.sites[i].name, name};
      if (run_model) cells.push_back(util::TextTable::Num(model_v, precision));
      if (run_sim) cells.push_back(util::TextTable::Num(sim_v, precision));
      table.AddRow(std::move(cells));
    };
    row("TR-XPUT (txn/s)", run_model ? m.sites[i].txn_per_s : 0,
        run_sim ? s.nodes[i].txn_per_s : 0);
    row("records/s", run_model ? m.sites[i].records_per_s : 0,
        run_sim ? s.nodes[i].records_per_s : 0, 1);
    row("CPU util", run_model ? m.sites[i].cpu_utilization : 0,
        run_sim ? s.nodes[i].cpu_utilization : 0);
    row("DIO/s", run_model ? m.sites[i].dio_per_s : 0,
        run_sim ? s.nodes[i].dio_per_s : 0, 1);
    table.AddSeparator();
  }
  table.Print(std::cout);

  if (flags.verbose) {
    std::cout << "\nPer-type throughput (txn/s):\n";
    util::TextTable t2;
    t2.SetHeader({"Node", "type", "model", "testbed", "model Pa", "sim Pa",
                  "D_LW m/s", "D_RW m/s", "D_CW m/s"});
    for (std::size_t i = 0; i < input.sites.size(); ++i) {
      for (const model::TxnType t :
           {model::TxnType::kLRO, model::TxnType::kLU, model::TxnType::kDROC,
            model::TxnType::kDUC}) {
        if (input.sites[i].Class(t).population == 0) continue;
        t2.AddRow({input.sites[i].name, std::string(Name(t)),
                   run_model
                       ? util::TextTable::Num(m.sites[i].Class(t).throughput_per_s)
                       : "-",
                   run_sim
                       ? util::TextTable::Num(s.nodes[i].Type(t).throughput_per_s)
                       : "-",
                   run_model ? util::TextTable::Num(m.sites[i].Class(t).pa, 3)
                             : "-",
                   run_sim ? util::TextTable::Num(s.nodes[i].Type(t).abort_prob, 3)
                           : "-",
                   (run_model && run_sim)
                       ? util::TextTable::Num(m.sites[i].Class(t).d_lw_ms, 0) +
                             "/" +
                             util::TextTable::Num(
                                 s.nodes[i].Type(t).lock_wait_ms, 0)
                       : "-",
                   (run_model && run_sim)
                       ? util::TextTable::Num(m.sites[i].Class(t).d_rw_ms, 0) +
                             "/" +
                             util::TextTable::Num(
                                 s.nodes[i].Type(t).remote_wait_ms, 0)
                       : "-",
                   (run_model && run_sim)
                       ? util::TextTable::Num(m.sites[i].Class(t).d_cw_ms, 0) +
                             "/" +
                             util::TextTable::Num(
                                 s.nodes[i].Type(t).commit_wait_ms, 0)
                       : "-"});
      }
    }
    t2.Print(std::cout);
  }

  if (run_sim) {
    std::cout << "\ntestbed: " << s.events << " events, "
              << s.network_messages << " messages, " << s.probes_sent
              << " probes, " << s.global_deadlocks
              << " global deadlocks, database consistent: "
              << (s.database_consistent ? "yes" : "NO") << "\n";
    if (!s.database_consistent) return 1;
  }
  return 0;
}
