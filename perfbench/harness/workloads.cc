// The four workloads. Each sets itself up once, then measures for
// --seconds with tracing off, setting up a throwaway copy before every
// measurement window (setup_s is the median of all the set-ups). The
// traced run instead splits its time between the loop untraced and traced
// (for trace.overhead_frac) and the per-layer measurements in layers.cc.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "carat/testbed.h"
#include "exec/thread_pool.h"
#include "harness/bench.h"
#include "harness/served.h"
#include "model/solver.h"
#include "serve/query.h"
#include "serve/solver_service.h"
#include "workload/spec.h"

namespace perfbench {

using carat::model::ModelInput;
using carat::model::ModelSolution;

void RunResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

// ---- seeded inputs -------------------------------------------------------

namespace {

constexpr const char* kWorkloads[] = {"lb8", "mb4", "mb8", "ub6"};
constexpr int kSizes[] = {4, 8, 12, 16, 20};
constexpr const char* kBackends[] = {"2pl", "nowait", "waitdie", "queue"};

carat::workload::WorkloadSpec MakeSpec(const std::string& name, int n,
                                       int nodes) {
  if (name == "lb8") return carat::workload::MakeLB8(n, nodes);
  if (name == "mb4") return carat::workload::MakeMB4(n, nodes);
  if (name == "mb8") return carat::workload::MakeMB8(n, nodes);
  return carat::workload::MakeUB6(n, nodes);
}

/// Splits a result line "wl,n,ok,converged,iters,warm,tps,records".
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream in(line);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

bool Near(double got, double want, double abs_tol) {
  return std::fabs(got - want) <= abs_tol + 1e-6 * std::fabs(want);
}

}  // namespace

std::vector<std::string> CachedQuerySet() {
  std::vector<std::string> lines;
  for (const char* wl : kWorkloads) {
    for (const int n : kSizes) {
      for (const char* cc : kBackends) {
        lines.push_back(std::string(wl) + " " + std::to_string(n) +
                        " cc=" + cc);
      }
    }
  }
  return lines;
}

std::string FreshQueryGen::Next() {
  for (;;) {
    char buf[128];
    const char* wl = kWorkloads[rng_.NextBounded(4)];
    const int n = 4 + static_cast<int>(rng_.NextBounded(17));
    const double think = 2000.0 * rng_.NextDouble();
    const double comm = 10.0 * rng_.NextDouble();
    const char* cc = kBackends[rng_.NextBounded(4)];
    const bool approx = rng_.NextBounded(4) == 0;
    std::snprintf(buf, sizeof(buf), "%s %d think=%.3f comm=%.4f cc=%s%s", wl,
                  n, think, comm, cc, approx ? " mva=approx" : "");
    if (seen_.insert(buf).second) return buf;
  }
}

std::vector<ModelInput> SweepRound(carat::util::Rng* rng, int think_points) {
  std::vector<double> thinks(static_cast<std::size_t>(think_points));
  for (double& t : thinks) t = 2000.0 * rng->NextDouble();
  std::vector<ModelInput> inputs;
  for (const char* wl : kWorkloads) {
    for (const int n : kSizes) {
      const ModelInput base = MakeSpec(wl, n, 2).ToModelInput();
      for (const double think : thinks) {
        inputs.push_back(base);
        for (carat::model::SiteParams& site : inputs.back().sites) {
          site.think_time_ms = think;
        }
      }
    }
  }
  return inputs;
}

ModelInput TestbedInput() {
  carat::workload::WorkloadSpec spec = carat::workload::MakeMB8(8, 4);
  spec.comm_delay_ms = 5.0;
  return spec.ToModelInput();
}

carat::TestbedOptions TestbedRunOptions(std::uint64_t seed) {
  carat::TestbedOptions opts;
  opts.seed = seed;
  opts.warmup_ms = kTestbedWarmupMs;
  opts.measure_ms = kTestbedMeasureMs;
  opts.shards = 1;
  return opts;
}

std::vector<std::uint64_t> TestbedSeeds(std::uint64_t seed) {
  carat::util::Rng rng(seed ^ 0x7e57bedULL);
  std::vector<std::uint64_t> seeds(kTestbedSeeds);
  for (std::uint64_t& s : seeds) s = 1 + rng.NextBounded(1u << 30);
  return seeds;
}

bool MatchesColdSolve(const std::string& query, const std::string& response,
                      std::string* why) {
  carat::serve::Query q;
  ModelInput input;
  std::string error;
  if (!carat::serve::ParseQuery(query, &q, &input, &error)) {
    *why = "query does not parse: " + error;
    return false;
  }
  carat::model::SolverOptions opts;
  if (q.use_exact_mva.has_value()) opts.use_exact_mva = *q.use_exact_mva;
  const ModelSolution cold = carat::model::CaratModel(input).Solve(opts);
  const std::string want_line = carat::serve::FormatResult(q, cold);
  const std::vector<std::string> got = SplitCsv(response);
  const std::vector<std::string> want = SplitCsv(want_line);
  // Fields 4 and 5 (iterations, warm|cold) legitimately differ between a
  // warm-started server solve and a cold one; the throughputs must agree
  // within the solver tolerance plus the printed precision.
  const bool same =
      got.size() == 8 && want.size() == 8 && got[0] == want[0] &&
      got[1] == want[1] && got[2] == want[2] && got[3] == want[3] &&
      Near(std::atof(got[6].c_str()), std::atof(want[6].c_str()), 1e-4) &&
      Near(std::atof(got[7].c_str()), std::atof(want[7].c_str()), 1e-2);
  if (!same) {
    *why = "'" + query + "' answered '" + response + "', cold solve gives '" +
           want_line + "'";
  }
  return same;
}

// ---- shared measurement plumbing -----------------------------------------

namespace {

double SelfPeakRssMb() { return PeakRssMb("/proc/self/status"); }

/// The untraced measurement is cut into this many windows of equal length.
constexpr int kWindows = 20;
/// Share of --seconds the traced run gives each of: the loop untraced, the
/// loop traced, and the workload's own layer group.
constexpr double kTracedLoopShare = 0.35;
constexpr double kOwnLayerShare = 0.25;

/// Operation latencies and work done by one timed pass.
struct Pass {
  std::vector<double> latency_us;
  double work = 0.0;  ///< queries, scenarios or simulated ms
  double busy_s = 0.0;
  double PerSecond() const { return busy_s > 0.0 ? work / busy_s : 0.0; }
};

/// Runs `run_window(seconds, pass)` kWindows times over `seconds`, with a
/// throwaway `set_up()` (which returns its own duration) before each
/// window; the durations are appended to `setups`. Spread over the run,
/// the set-ups meet the same fast and slow stretches of the host as the
/// windows, so their median is as steady as the throughput's.
template <class RunWindow, class SetUp>
std::vector<Pass> TimeWindows(double seconds, const RunWindow& run_window,
                              const SetUp& set_up,
                              std::vector<double>* setups) {
  std::vector<Pass> windows(kWindows);
  for (Pass& window : windows) {
    setups->push_back(set_up());
    run_window(seconds / kWindows, &window);
  }
  return windows;
}

/// Sets the end-to-end metrics from the windows of one measurement. The
/// host's speed shifts by up to a third for seconds at a time and it
/// stalls now and then, so each figure is the median over the windows of
/// that window's figure (its rate, its p50, its p99): a stretch of stalls
/// that covers fewer than half the windows cannot move it.
void SetEndToEnd(const std::vector<Pass>& windows,
                 const std::vector<double>& setups, double peak_rss_mb,
                 RunResult* result) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::size_t samples = 0;
  std::size_t fewest = windows.empty() ? 0 : windows.front().latency_us.size();
  for (const Pass& window : windows) {
    rates.push_back(window.PerSecond());
    p50s.push_back(Quantile(window.latency_us, 0.50));
    p99s.push_back(Quantile(window.latency_us, 0.99));
    samples += window.latency_us.size();
    fewest = std::min(fewest, window.latency_us.size());
  }
  result->metrics["throughput"] = {Median(rates), "items/s"};
  result->metrics["p50_us"] = {Median(p50s), "us"};
  result->metrics["p99_us"] = {Median(p99s), "us"};
  result->metrics["setup_s"] = {Median(setups), "s"};
  result->metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
  result->report["latency_samples"] = std::to_string(samples);
  result->report["fewest_samples_in_a_window"] = std::to_string(fewest);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ---- what-if over TCP ----------------------------------------------------

/// A spawned server with its client connections.
struct WhatifServer {
  std::unique_ptr<ServedProcess> proc;
  std::vector<std::unique_ptr<Connection>> conns;

  std::vector<Connection*> Raw() const {
    std::vector<Connection*> raw;
    for (const auto& c : conns) raw.push_back(c.get());
    return raw;
  }
};

/// Spawns the server, connects, and sends `warm` once (the cached set, or
/// a few fresh solves that warm the arenas). `expected` receives the
/// answer to each warm query.
bool SetUpServer(const Options& options, const std::vector<std::string>& warm,
                 WhatifServer* server,
                 std::map<std::string, std::string>* expected,
                 std::string* error) {
  server->proc = ServedProcess::Start(options.served_binary, kServerJobs,
                                      kServerReactors, error);
  if (server->proc == nullptr) return false;
  for (int c = 0; c < kClientConnections; ++c) {
    server->conns.push_back(std::make_unique<Connection>());
    if (!server->conns.back()->Connect(server->proc->port(), error)) {
      return false;
    }
  }
  bool ok = true;
  const LoopStats stats = ClosedLoop(
      server->Raw(), 60.0, warm.size(),
      [&](std::uint64_t i) { return warm[i]; },
      [&](std::uint64_t i, const std::string&, const std::string& body,
          double) {
        if (body.find(",ok,converged,") == std::string::npos) {
          ok = false;
          *error = "warm-up query '" + warm[i] + "' answered '" + body + "'";
        }
        (*expected)[warm[i]] = body;
      },
      nullptr);
  if (!stats.io_error.empty()) *error = stats.io_error;
  return ok && stats.io_error.empty() && stats.answered == warm.size();
}

/// The closed loop of one what-if workload, judged request by request.
class WhatifLoop {
 public:
  WhatifLoop(const Options& options, bool cached,
             const std::map<std::string, std::string>* expected,
             FreshQueryGen* fresh, RunResult* result)
      : options_(options),
        cached_(cached),
        cached_set_(CachedQuerySet()),
        expected_(expected),
        fresh_(fresh),
        rng_(options.seed * 0x9E3779B97F4A7C15ULL + 11),
        ring_(kRing),
        result_(result) {}

  /// Drives `server` for `seconds`; appends to `pass`.
  void Run(WhatifServer* server, double seconds, Tracer* tracer, Pass* pass) {
    const LoopStats stats = ClosedLoop(
        server->Raw(), seconds, 0,
        [&](std::uint64_t i) { return Next(i); },
        [&](std::uint64_t i, const std::string& id, const std::string& body,
            double latency_us) {
          Judge(i, id, body);
          pass->latency_us.push_back(latency_us);
        },
        tracer);
    result_->attempted += stats.sent;
    pass->work += static_cast<double>(stats.answered);
    pass->busy_s += stats.elapsed_s;
    if (!stats.io_error.empty()) {
      for (std::uint64_t k = stats.answered; k < stats.sent; ++k) {
        result_->Fail(stats.io_error);
      }
    }
    base_ += stats.sent;
  }

  /// Checks the sampled answers against in-process cold solves.
  void CheckSamples() {
    for (const auto& [query, body] : samples_) {
      std::string why;
      if (!MatchesColdSolve(query, body, &why)) result_->Fail(why);
    }
    result_->report["checked_samples"] = std::to_string(samples_.size());
  }

 private:
  static constexpr std::size_t kRing = 1024;  // >> requests in flight
  static constexpr std::uint64_t kSampleEvery = 257;
  static constexpr std::size_t kMaxSamples = 24;
  static constexpr const char* kMalformed = "lb9 4";

  std::string Next(std::uint64_t i) {
    const std::uint64_t n = base_ + i;
    const std::uint64_t every =
        static_cast<std::uint64_t>(options_.inject_every);
    std::string line;
    if (every > 0 && n % every == every - 1) {
      line = kMalformed;
      ++result_->injected;
    } else if (cached_) {
      line = cached_set_[rng_.NextBounded(cached_set_.size())];
    } else {
      line = fresh_->Next();
    }
    ring_[n % kRing] = line;
    return line;
  }

  void Judge(std::uint64_t i, const std::string& id, const std::string& body) {
    const std::uint64_t n = base_ + i;
    const std::string& query = ring_[n % kRing];
    if (id != std::to_string(i)) {
      result_->Fail("answer for request " + std::to_string(i) +
                    " carried id '" + id + "'");
      return;
    }
    if (query == kMalformed) {
      // Injected on purpose: the server must refuse it, and it counts as
      // failed either way.
      if (body.rfind("ERROR", 0) == 0) {
        ++result_->failed;
      } else {
        result_->Fail("malformed query answered '" + body + "'");
      }
      return;
    }
    if (cached_) {
      const auto it = expected_->find(query);
      if (it == expected_->end() || it->second != body) {
        result_->Fail("'" + query + "' answered '" + body + "'");
        return;
      }
    } else {
      const std::size_t space = query.find(' ');
      const std::size_t space2 = query.find(' ', space + 1);
      const std::string prefix = query.substr(0, space) + "," +
                                 query.substr(space + 1, space2 - space - 1) +
                                 ",ok,converged,";
      if (body.rfind(prefix, 0) != 0) {
        result_->Fail("'" + query + "' answered '" + body + "'");
        return;
      }
    }
    if (n % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
      samples_.emplace_back(query, body);
    }
  }

  const Options& options_;
  bool cached_;
  std::vector<std::string> cached_set_;
  const std::map<std::string, std::string>* expected_;
  FreshQueryGen* fresh_;
  carat::util::Rng rng_;
  std::vector<std::string> ring_;
  std::vector<std::pair<std::string, std::string>> samples_;
  std::uint64_t base_ = 0;  ///< requests sent by earlier passes
  RunResult* result_;
};

}  // namespace

RunResult RunWhatif(const Options& options, bool cached) {
  RunResult result;
  FreshQueryGen fresh(options.seed * 0x2545F4914F6CDD1DULL + 7);
  // The cached workload pre-solves the 80 queries its requests draw from;
  // the solve workload warms the arenas with a few fresh queries that the
  // generator then never repeats.
  std::vector<std::string> warm = CachedQuerySet();
  if (!cached) {
    warm.clear();
    for (int i = 0; i < 32; ++i) warm.push_back(fresh.Next());
  }

  WhatifServer server;
  std::map<std::string, std::string> expected;
  std::string error;
  const Clock::time_point t0 = Clock::now();
  if (!SetUpServer(options, warm, &server, &expected, &error)) {
    result.attempted = 1;
    result.Fail("setup: " + error);
    return result;
  }
  std::vector<double> setups = {SecondsSince(t0)};

  WhatifLoop loop(options, cached, &expected, &fresh, &result);
  if (!options.trace) {
    const std::vector<Pass> windows = TimeWindows(
        options.seconds,
        [&](double seconds, Pass* window) {
          loop.Run(&server, seconds, nullptr, window);
        },
        [&] {
          WhatifServer spare;
          std::map<std::string, std::string> answers;
          const Clock::time_point start = Clock::now();
          if (!SetUpServer(options, warm, &spare, &answers, &error)) {
            result.Fail("setup: " + error);
          }
          return SecondsSince(start);
        },
        &setups);
    const std::map<std::string, double> stats =
        FetchStats(server.conns.front().get());
    SetEndToEnd(windows, setups, server.proc->PeakRssMb(), &result);
    result.report["qps"] = Num(result.metrics["throughput"].value);
    const auto p50 = stats.find("p50_ms");
    result.report["server_p50_us"] =
        Num(p50 == stats.end() ? 0.0 : 1000.0 * p50->second);
  } else {
    Tracer tracer;
    Pass untraced;
    Pass pass;
    loop.Run(&server, options.seconds * kTracedLoopShare, nullptr, &untraced);
    const std::map<std::string, double> before =
        FetchStats(server.conns.front().get());
    loop.Run(&server, options.seconds * kTracedLoopShare, &tracer, &pass);
    SetServerCounters(before, FetchStats(server.conns.front().get()),
                      &result);
    FinishTracedRun(options, server.proc.get(), cached ? "rpc" : "solve",
                    options.seconds * kOwnLayerShare, untraced.PerSecond(),
                    pass.PerSecond(), &tracer, &result);
  }
  loop.CheckSamples();
  server.conns.clear();
  if (!server.proc->Stop()) result.Fail("carat_served did not drain cleanly");
  return result;
}

// ---- sweep-batch ---------------------------------------------------------

namespace {

/// Collects every future of one SubmitBatch as it becomes ready, recording
/// each scenario's time from submission to answer. SolveBatch waits on the
/// futures in input order instead; polling in completion order gives every
/// scenario its own latency sample (640 a sweep, not one).
void AwaitEach(std::vector<std::future<ModelSolution>> futures,
               Clock::time_point submitted,
               std::vector<ModelSolution>* solutions,
               std::vector<double>* latency_us) {
  std::vector<std::size_t> pending(futures.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  while (!pending.empty()) {
    std::size_t kept = 0;
    for (const std::size_t i : pending) {
      if (futures[i].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        pending[kept++] = i;
        continue;
      }
      (*solutions)[i] = futures[i].get();
      latency_us->push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - submitted)
              .count());
    }
    pending.resize(kept);
    if (!pending.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

/// One 640-scenario sweep per call through SolverService::SubmitBatch, the
/// path of carat_sweep --batch: cold solves (warm_start off) on a
/// 2-worker pool at the default lane width.
class SweepBatch {
 public:
  explicit SweepBatch(std::uint64_t seed)
      : pool_(std::make_unique<carat::exec::ThreadPool>(kSweepWorkers)) {
    carat::serve::SolverService::Options sopts;
    sopts.pool = pool_.get();
    sopts.warm_start = false;
    service_ = std::make_unique<carat::serve::SolverService>(sopts);
    // Let the per-shape arenas fill before anything is timed.
    carat::util::Rng warm_rng(seed ^ 0x3a11ULL);
    service_->SolveBatch(SweepRound(&warm_rng, 8));
    service_->ClearCache();
  }

  void Run(carat::util::Rng* rng, double seconds, Tracer* tracer,
           RunResult* result, Pass* pass) {
    const Clock::time_point start = Clock::now();
    do {
      const std::vector<ModelInput> inputs =
          SweepRound(rng, kSweepThinkPoints);
      std::vector<ModelInput> copy = inputs;
      std::vector<ModelSolution> solutions(inputs.size());
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Scope span(tracer, "serve.solve_batch", rounds_);
        AwaitEach(service_->SubmitBatch(std::move(copy)), t0, &solutions,
                  &pass->latency_us);
      }
      pass->busy_s += SecondsSince(t0);
      pass->work += static_cast<double>(inputs.size());
      result->attempted += inputs.size();
      for (std::size_t i = 0; i < solutions.size(); ++i) {
        if (!solutions[i].ok || !solutions[i].converged) {
          result->Fail("sweep lane " + std::to_string(i) +
                       " not ok/converged: " + solutions[i].error);
        }
      }
      // Sampled lanes against a scalar solve on a fresh arena.
      for (int k = 0; k < 2; ++k) {
        const std::size_t i = rng->NextBounded(inputs.size());
        ModelSolution scalar;
        carat::model::CaratModel(inputs[i]).SolveInto(
            service_->options().solver, nullptr, nullptr, &scalar);
        if (!Near(solutions[i].TotalTxnPerSec(), scalar.TotalTxnPerSec(),
                  0.0) ||
            !Near(solutions[i].TotalRecordsPerSec(),
                  scalar.TotalRecordsPerSec(), 0.0)) {
          result->Fail("sweep lane " + std::to_string(i) +
                       " disagrees with a scalar SolveInto");
        }
      }
      service_->ClearCache();
      ++rounds_;
    } while (SecondsSince(start) < seconds);
  }

 private:
  // The service is declared after the pool it borrows, so it dies first.
  std::unique_ptr<carat::exec::ThreadPool> pool_;
  std::unique_ptr<carat::serve::SolverService> service_;
  std::uint64_t rounds_ = 0;
};

}  // namespace

RunResult RunSweepBatch(const Options& options) {
  RunResult result;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto sweep = std::make_unique<SweepBatch>(options.seed);
    return std::make_pair(SecondsSince(t0), std::move(sweep));
  };
  auto [first_setup, sweep] = set_up();
  std::vector<double> setups = {first_setup};
  carat::util::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 3);
  if (!options.trace) {
    const std::vector<Pass> windows = TimeWindows(
        options.seconds,
        [&](double seconds, Pass* window) {
          sweep->Run(&rng, seconds, nullptr, &result, window);
        },
        [&] { return set_up().first; }, &setups);
    SetEndToEnd(windows, setups, SelfPeakRssMb(), &result);
    result.report["scenarios_per_s"] =
        Num(result.metrics["throughput"].value);
  } else {
    Tracer tracer;
    Pass untraced;
    Pass pass;
    sweep->Run(&rng, options.seconds * kTracedLoopShare, nullptr, &result,
               &untraced);
    sweep->Run(&rng, options.seconds * kTracedLoopShare, &tracer, &result,
               &pass);
    sweep.reset();
    FinishTracedRun(options, nullptr, "batch",
                    options.seconds * kOwnLayerShare, untraced.PerSecond(),
                    pass.PerSecond(), &tracer, &result);
  }
  return result;
}

// ---- testbed -------------------------------------------------------------

namespace {

/// RunTestbed calls cycling over the seeded testbed seeds; every repeat of
/// a seed must reproduce that seed's first fingerprint.
class TestbedLoop {
 public:
  explicit TestbedLoop(std::uint64_t seed)
      : input_(TestbedInput()), seeds_(TestbedSeeds(seed)) {}

  void Run(double seconds, Tracer* tracer, RunResult* result, Pass* pass) {
    const Clock::time_point start = Clock::now();
    do {
      const std::uint64_t seed = seeds_[runs_ % seeds_.size()];
      const carat::TestbedOptions opts = TestbedRunOptions(seed);
      const Clock::time_point t0 = Clock::now();
      carat::TestbedResult r;
      {
        Tracer::Scope span(tracer, "carat.run_testbed", runs_);
        r = carat::RunTestbed(input_, opts);
      }
      const double dt = SecondsSince(t0);
      pass->latency_us.push_back(1e6 * dt);
      pass->busy_s += dt;
      pass->work += opts.warmup_ms + opts.measure_ms;
      ++result->attempted;
      if (++runs_ == kRssSampleRuns) rss_mb_ = SelfPeakRssMb();
      if (!r.ok || !r.database_consistent) {
        result->Fail("testbed seed " + std::to_string(seed) +
                     " not ok/consistent: " + r.error);
        continue;
      }
      const std::string fp = carat::TestbedResultFingerprint(r);
      const auto [it, first] = fingerprints_.emplace(seed, fp);
      if (!first && it->second != fp) {
        result->Fail("testbed seed " + std::to_string(seed) +
                     " changed its fingerprint on a repeat");
      }
    } while (SecondsSince(start) < seconds);
    result->report["fingerprint_repeats"] =
        std::to_string(runs_ - fingerprints_.size());
  }

  /// Peak RSS once kRssSampleRuns runs are done (now, if fewer ran).
  /// RunTestbed leaks about 60 KB per call, so the peak at the end of a
  /// run would grow with the number of calls the host managed to make.
  double PeakRssMb() const { return rss_mb_ > 0 ? rss_mb_ : SelfPeakRssMb(); }

 private:
  static constexpr std::uint64_t kRssSampleRuns = 256;

  ModelInput input_;
  std::vector<std::uint64_t> seeds_;
  std::map<std::uint64_t, std::string> fingerprints_;
  std::uint64_t runs_ = 0;
  double rss_mb_ = 0.0;
};

}  // namespace

RunResult RunTestbedWorkload(const Options& options) {
  RunResult result;
  // Set-up is building the input and one untimed run (first-touch costs).
  std::vector<double> setups;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    const carat::TestbedResult warm = carat::RunTestbed(
        TestbedInput(), TestbedRunOptions(1 + setups.size()));
    if (!warm.ok) result.Fail("setup: " + warm.error);
    return SecondsSince(t0);
  };
  setups.push_back(set_up());
  if (result.failed > 0) {
    result.attempted = 1;
    return result;
  }
  TestbedLoop loop(options.seed);
  if (!options.trace) {
    const std::vector<Pass> windows = TimeWindows(
        options.seconds,
        [&](double seconds, Pass* window) {
          loop.Run(seconds, nullptr, &result, window);
        },
        set_up, &setups);
    SetEndToEnd(windows, setups, loop.PeakRssMb(), &result);
    result.report["sim_ms_per_wall_ms"] =
        Num(result.metrics["throughput"].value / 1000.0);
  } else {
    Tracer tracer;
    Pass untraced;
    Pass pass;
    loop.Run(options.seconds * kTracedLoopShare, nullptr, &result, &untraced);
    loop.Run(options.seconds * kTracedLoopShare, &tracer, &result, &pass);
    FinishTracedRun(options, nullptr, "sim", options.seconds * kOwnLayerShare,
                    untraced.PerSecond(), pass.PerSecond(), &tracer, &result);
  }
  return result;
}

}  // namespace perfbench
