// google-benchmark microbenchmarks for the library's hot paths: the MVA
// solvers, the full model fixed point, the lock manager, the WAL, Yao's
// formula, and the DES kernel.

#include <benchmark/benchmark.h>

#include "carat/testbed.h"
#include "cc/cc.h"
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

// A cold solve of each paper workload at n = 8 under 2PL and the queue
// backend, on a reused (warm) arena, so nothing is allocated: the
// per-iteration cost by shape is the time over the `iterations` counter.
void BM_ModelSolveShape(benchmark::State& state, workload::WorkloadSpec spec,
                        cc::BackendKind backend) {
  model::ModelInput input = spec.ToModelInput();
  input.cc_backend = backend;
  const model::CaratModel model(input);
  const model::SolverOptions options;
  model::SolveArena arena;
  model::ModelSolution out;
  for (auto _ : state) {
    model.SolveInto(options, &arena, nullptr, &out, nullptr);
    benchmark::DoNotOptimize(out.iterations);
  }
  state.counters["iterations"] = out.iterations;
}
const bool kSolveShapesRegistered = [] {
  const std::pair<const char*, workload::WorkloadSpec> workloads[] = {
      {"lb8", workload::MakeLB8(8)},
      {"mb4", workload::MakeMB4(8)},
      {"mb8", workload::MakeMB8(8)},
      {"ub6", workload::MakeUB6(8)}};
  const std::pair<const char*, cc::BackendKind> backends[] = {
      {"2pl", cc::BackendKind::k2PL}, {"queue", cc::BackendKind::kQueue}};
  for (const auto& [wl, spec] : workloads) {
    for (const auto& [name, backend] : backends) {
      benchmark::RegisterBenchmark(
          (std::string("BM_ModelSolveShape/") + wl + "/" + name).c_str(),
          BM_ModelSolveShape, spec, backend);
    }
  }
  return true;
}();

// One input per compiled swap sequence (model/transition.h), in list order:
// the local/coordinator kind's swap-free run (Arg 0, a coordinator with
// every path live) and its continuations at LW, RW, LW and RW, DMIO, DMIO
// and RW (Args 1-5), then the slave kind's swap-free run and its
// continuations at RW, LW and DMIO (Args 6-9). The swaps happen where the
// abort path is unreachable (pd = 0 with pra = 0 or no remote requests).
struct VisitCountsCase {
  model::TxnType type;
  model::TransitionInputs in;
};
constexpr VisitCountsCase kVisitCountsCases[] = {
    {model::TxnType::kDUC, {10, 5, 4.0, 0.05, 0.01, 0.01}},
    {model::TxnType::kDUC, {4, 0, 2.96472, 0.39027354242965029, 0.0, 0.0}},
    {model::TxnType::kDUC, {9, 9, 4.0, 0.0, 0.0, 0.0}},
    {model::TxnType::kLU, {17, 0, 4.0, 0.062447160950123738, 0.0, 0.0}},
    {model::TxnType::kLRO, {18, 0, 4.0, 0.0, 0.0, 0.0}},
    {model::TxnType::kDUC, {14, 0, 1.1310517211042406, 0.0, 0.0, 0.0}},
    {model::TxnType::kDUS, {9, 0, 4.0, 0.0, 0.0, 0.0}},
    {model::TxnType::kDUS, {8, 0, 4.0, 0.0, 0.0, 0.0}},
    {model::TxnType::kDUS, {0, 0, 5.5, 0.015, 0.0, 0.0}},
    {model::TxnType::kDUS, {0, 0, 4.0, 0.0, 0.0, 0.0}},
};
constexpr int kNumVisitCountsCases = std::size(kVisitCountsCases);

void BM_VisitCounts(benchmark::State& state) {
  const VisitCountsCase& c = kVisitCountsCases[state.range(0)];
  model::TransitionInputs in = c.in;
  model::VisitCounts v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(in);
    benchmark::DoNotOptimize(model::SolveVisitCounts(c.type, in, &v));
  }
}
BENCHMARK(BM_VisitCounts)->DenseRange(0, kNumVisitCountsCases - 1);

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
