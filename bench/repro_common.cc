#include "repro_common.h"

#include <cstdio>
#include <future>
#include <iostream>
#include <utility>

#include "exec/thread_pool.h"
#include "serve/solver_service.h"
#include "util/table.h"

namespace carat::bench {

std::vector<SweepPoint> RunSweep(
    const std::function<workload::WorkloadSpec(int)>& make,
    const std::vector<int>& sizes, double measure_ms, std::uint64_t seed,
    int jobs) {
  std::vector<SweepPoint> points(sizes.size());
  std::vector<model::ModelInput> inputs;
  inputs.reserve(sizes.size());
  for (const int n : sizes) inputs.push_back(make(n).ToModelInput());

  // Model side: one non-blocking batch submission through the solving
  // service. The sweep's same-shape points solve in blocks on per-shape
  // arenas (SubmitBatch groups by shape), which is bit-identical per point
  // to a plain CaratModel::Solve() — warm starting stays off so every solve
  // is cold — while the service still deduplicates repeated sizes via its
  // solution cache.
  serve::SolverService::Options sopts;
  sopts.threads = jobs <= 0 ? 0 : static_cast<std::size_t>(jobs);
  sopts.warm_start = false;
  serve::SolverService service(std::move(sopts));
  std::vector<std::future<model::ModelSolution>> solves =
      service.SubmitBatch(inputs);

  // Testbed side: each point is an independently seeded run; fan out over
  // the same pool — the model solves submitted above interleave with the
  // testbed replays instead of forming a separate serial phase — and write
  // results by index so ordering (and every bit of output) matches
  // jobs == 1.
  exec::ParallelFor(service.pool(), 0, sizes.size(), [&](std::size_t idx) {
    SweepPoint& point = points[idx];
    point.n = sizes[idx];
    TestbedOptions opts;
    opts.seed = seed;
    opts.warmup_ms = 100'000;
    opts.measure_ms = measure_ms;
    point.sim = RunTestbed(inputs[idx], opts);
  });
  for (std::size_t idx = 0; idx < solves.size(); ++idx) {
    points[idx].model = solves[idx].get();
  }
  return points;
}

void PrintFigure(const std::string& title, const std::string& metric_name,
                 const std::vector<SweepPoint>& points, int node_index,
                 const SimMetric& sim_metric, const ModelMetric& model_metric) {
  std::cout << title << "\n";
  util::TextTable table;
  std::vector<std::string> header = {"n"};
  const std::size_t num_nodes =
      points.empty() ? 0 : points.front().sim.nodes.size();
  for (std::size_t i = 0; i < num_nodes; ++i) {
    if (node_index >= 0 && static_cast<int>(i) != node_index) continue;
    const std::string node = points.front().sim.nodes[i].name;
    header.push_back(node + " meas " + metric_name);
    header.push_back(node + " model " + metric_name);
  }
  table.SetHeader(header);
  for (const SweepPoint& p : points) {
    std::vector<std::string> row = {std::to_string(p.n)};
    for (std::size_t i = 0; i < num_nodes; ++i) {
      if (node_index >= 0 && static_cast<int>(i) != node_index) continue;
      row.push_back(util::TextTable::Num(sim_metric(p.sim.nodes[i])));
      row.push_back(util::TextTable::Num(model_metric(p.model.sites[i])));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void PrintSummaryTable(const std::string& title,
                       const std::vector<SweepPoint>& points,
                       const std::vector<PaperRow>& paper) {
  std::cout << title << "\n";
  util::TextTable table;
  table.SetHeader({"n", "Node", "XPUT", "CPU", "DIO", "XPUT", "CPU", "DIO",
                   "XPUT", "CPU", "DIO", "XPUT", "CPU", "DIO"});
  table.AddRow({"", "", "-- ours: meas --", "", "", "-- ours: model --", "",
                "", "-- paper: meas --", "", "", "-- paper: model --"});
  table.AddSeparator();
  for (const SweepPoint& p : points) {
    for (std::size_t i = 0; i < p.sim.nodes.size(); ++i) {
      std::vector<std::string> row;
      row.push_back(std::to_string(p.n));
      row.push_back(p.sim.nodes[i].name);
      row.push_back(util::TextTable::Num(p.sim.nodes[i].txn_per_s));
      row.push_back(util::TextTable::Num(p.sim.nodes[i].cpu_utilization));
      row.push_back(util::TextTable::Num(p.sim.nodes[i].dio_per_s, 1));
      row.push_back(util::TextTable::Num(p.model.sites[i].txn_per_s));
      row.push_back(util::TextTable::Num(p.model.sites[i].cpu_utilization));
      row.push_back(util::TextTable::Num(p.model.sites[i].dio_per_s, 1));
      for (const PaperRow& pr : paper) {
        if (pr.n == p.n && pr.node == static_cast<int>(i)) {
          row.push_back(util::TextTable::Num(pr.meas_xput));
          row.push_back(util::TextTable::Num(pr.meas_cpu));
          row.push_back(util::TextTable::Num(pr.meas_dio, 1));
          row.push_back(util::TextTable::Num(pr.model_xput));
          row.push_back(util::TextTable::Num(pr.model_cpu));
          row.push_back(util::TextTable::Num(pr.model_dio, 1));
        }
      }
      table.AddRow(std::move(row));
    }
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace carat::bench
