// google-benchmark microbenchmarks for the library's hot paths: the MVA
// solvers, the full model fixed point, the lock manager, the WAL, Yao's
// formula, and the DES kernel.

#include <benchmark/benchmark.h>

#include "carat/testbed.h"
#include "lock/lock_manager.h"
#include "mb8_site_network.h"
#include "model/solver.h"
#include "model/transition.h"
#include "model/yao.h"
#include "qn/mva.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "wal/log.h"
#include "workload/spec.h"

namespace {

using namespace carat;

qn::ClosedNetwork MakeNetwork(int chains, int population) {
  qn::ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", qn::CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", qn::CenterKind::kQueueing);
  const std::size_t dly = net.AddCenter("dly", qn::CenterKind::kDelay);
  for (int k = 0; k < chains; ++k) {
    const std::size_t c =
        net.AddChain("k" + std::to_string(k), population, 5.0);
    net.chains[c].demands[cpu] = 1.0 + 0.3 * k;
    net.chains[c].demands[disk] = 2.0 + 0.1 * k;
    net.chains[c].demands[dly] = 4.0;
  }
  return net;
}

void BM_ExactMva(benchmark::State& state) {
  const qn::ClosedNetwork net =
      MakeNetwork(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qn::ExactMva(net));
  }
}
BENCHMARK(BM_ExactMva)->Arg(2)->Arg(4)->Arg(6);

// The exact kernel on each paper workload's site shape (6 centers with 2
// queueing; lb8 25, mb4 64, mb8 729 and ub6 144 lattice states), built from
// the mb8 site network, with a warm workspace. They run the compiled sweep;
// BM_ExactMva's 3-center networks take the runtime-sized one.
void BM_ExactMvaSiteShape(benchmark::State& state,
                          const std::vector<int>& populations) {
  const qn::ClosedNetwork net = bench::MakeSiteShapeNetwork(populations);
  qn::MvaWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qn::ExactMvaInPlace(net, &ws));
  }
}
const bool kSiteShapesRegistered = [] {
  for (const bench::PaperSiteShape& shape : bench::PaperSiteShapes()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ExactMvaSiteShape/") + shape.name).c_str(),
        BM_ExactMvaSiteShape, shape.populations);
  }
  return true;
}();

void BM_SchweitzerMva(benchmark::State& state) {
  const qn::ClosedNetwork net =
      MakeNetwork(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qn::SchweitzerMva(net));
  }
}
BENCHMARK(BM_SchweitzerMva)->Arg(4)->Arg(8)->Arg(16);

void BM_ModelSolve(benchmark::State& state) {
  const model::ModelInput input =
      workload::MakeMB8(static_cast<int>(state.range(0))).ToModelInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::CaratModel(input).Solve());
  }
}
BENCHMARK(BM_ModelSolve)->Arg(4)->Arg(12)->Arg(20);

// Arg 0: a coordinator chain with every path live, which runs the compiled
// elimination schedule end to end. Arg 1: the abort path unreachable
// (pd = 0, pra = 0), where partial pivoting swaps rows and the schedule
// hands over to the dense loop at the lost pivot.
void BM_VisitCounts(benchmark::State& state) {
  model::TransitionInputs in;
  if (state.range(0) == 0) {
    in.local_requests = 10;
    in.remote_requests = 5;
    in.io_per_request = 4.0;
    in.pb = 0.05;
    in.pd = 0.01;
    in.pra = 0.01;
  } else {
    in.local_requests = 4;
    in.io_per_request = 2.96472;
    in.pb = 0.39027354242965029;
  }
  model::VisitCounts v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(in);
    benchmark::DoNotOptimize(
        model::SolveVisitCounts(model::TxnType::kDUC, in, &v));
  }
}
BENCHMARK(BM_VisitCounts)->Arg(0)->Arg(1);

void BM_Yao(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::YaoExpectedBlocks(18000, 3000, state.range(0)));
  }
}
BENCHMARK(BM_Yao)->Arg(16)->Arg(80);

sim::Process AcquireRelease(lock::LockManager& lm, lock::TxnId txn,
                            std::size_t granules) {
  for (std::size_t g = 0; g < granules; ++g) {
    co_await lm.Acquire(txn, static_cast<db::GranuleId>(g),
                        lock::LockMode::kExclusive);
  }
  lm.ReleaseAll(txn);
}

void BM_LockAcquireRelease(benchmark::State& state) {
  const std::size_t granules = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    lock::LockManager lm(sim);
    lm.StartTxn(1);
    AcquireRelease(lm, 1, granules);
    sim.RunUntil(1.0);
    lm.EndTxn(1);
    benchmark::DoNotOptimize(lm.requests());
  }
  state.SetItemsProcessed(state.iterations() * granules);
}
BENCHMARK(BM_LockAcquireRelease)->Arg(16)->Arg(128);

void BM_WalJournalAndRollback(benchmark::State& state) {
  const int updates = static_cast<int>(state.range(0));
  db::Database d(3000, 6);
  for (auto _ : state) {
    wal::Log log;
    for (int i = 0; i < updates; ++i) {
      log.LogBeforeImage(1, i, d.ReadGranule(i));
      d.Write(i * 6, 1);
    }
    benchmark::DoNotOptimize(log.Rollback(1, &d));
  }
  state.SetItemsProcessed(state.iterations() * updates);
}
BENCHMARK(BM_WalJournalAndRollback)->Arg(16)->Arg(64);

void BM_SimKernelEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = 10000;
    std::function<void()> tick = [&]() {
      if (--remaining > 0) sim.Schedule(1.0, tick);
    };
    sim.Schedule(0.0, tick);
    sim.RunUntil(1e9);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimKernelEventThroughput);

void BM_TestbedSecondOfSimTime(benchmark::State& state) {
  const model::ModelInput input = workload::MakeMB4(8).ToModelInput();
  for (auto _ : state) {
    TestbedOptions opts;
    opts.warmup_ms = 0;
    opts.measure_ms = 1'000;
    benchmark::DoNotOptimize(RunTestbed(input, opts));
  }
}
BENCHMARK(BM_TestbedSecondOfSimTime);

}  // namespace

BENCHMARK_MAIN();
