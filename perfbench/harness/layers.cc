// Per-layer measurements of the traced run. Each group times calls into
// its layers' public functions from the caller's side of the boundary, on
// the same seeded inputs the workloads use; spans inside the program are
// out of scope here.

#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "carat/testbed.h"
#include "exec/thread_pool.h"
#include "harness/bench.h"
#include "harness/served.h"
#include "model/solver.h"
#include "rpc/framing.h"
#include "serve/key.h"
#include "serve/query.h"
#include "serve/solver_service.h"

namespace perfbench {

using carat::model::ModelInput;
using carat::model::ModelSolution;

namespace {

/// Short budget for the layer groups the traced workload does not own.
constexpr double kProbeBudgetS = 0.4;
/// Bounds the per-call loops of the cheap layers, whose medians settle long
/// before their time budget runs out, so their spans stay well under
/// Tracer::kMaxSpans.
constexpr std::uint64_t kMaxCalls = 20'000;

/// Keeps a computed value alive so the timed call is not optimized away.
template <class T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double MedianSelfUs(const Tracer& tracer, const char* name) {
  return Median(tracer.SelfTimesUs(name));
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

bool AnsweredOk(const std::string& body) {
  return body.find(",ok,converged,") != std::string::npos;
}

}  // namespace

void SetServerCounters(const std::map<std::string, double>& before,
                       const std::map<std::string, double>& after,
                       RunResult* result) {
  const auto delta = [&](const char* key) {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  const double submitted = delta("submitted");
  const double solved = delta("solved");
  SetIfAbsent(&result->metrics, "serve.hit_rate",
              submitted > 0 ? delta("cache_hits") / submitted : 0.0,
              "fraction");
  SetIfAbsent(&result->metrics, "serve.warm_rate",
              solved > 0 ? delta("warm_started") / solved : 0.0, "fraction");
  SetIfAbsent(&result->metrics, "serve.evictions_per_kq",
              submitted > 0 ? 1000.0 * delta("cache_evictions") / submitted
                            : 0.0,
              "count");
  const auto p50 = after.find("p50_ms");
  if (p50 != after.end()) {
    SetIfAbsent(&result->metrics, "rpc.server_p50_us", 1000.0 * p50->second,
                "us");
  }
}

void MeasureRpcLayers(const Options& options, ServedProcess* server,
                      double budget_s, Tracer* tracer, RunResult* result) {
  std::string error;
  std::unique_ptr<ServedProcess> own;
  if (server == nullptr) {
    own = ServedProcess::Start(options.served_binary, kServerJobs,
                               kServerReactors, &error);
    if (own == nullptr) {
      ++result->attempted;
      result->Fail("rpc layers: " + error);
      return;
    }
    server = own.get();
  }
  Connection conn;
  if (!conn.Connect(server->port(), &error)) {
    ++result->attempted;
    result->Fail("rpc layers: " + error);
    return;
  }
  const std::vector<std::string> cached = CachedQuerySet();
  std::string body;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    ++result->attempted;
    if (!conn.Call(std::to_string(i), cached[i], &body) ||
        !AnsweredOk(body)) {
      result->Fail("rpc layers: '" + cached[i] + "' answered '" + body + "'");
    }
  }

  // The unloaded round trip: one connection, one request at a time, every
  // request a cache hit.
  carat::util::Rng rng(options.seed ^ 0x5250433130ULL);
  const std::map<std::string, double> before = FetchStats(&conn);
  std::vector<double> rtt_us;
  Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;
       i < 200 || (i < kMaxCalls && SecondsSince(start) < budget_s / 2);
       ++i) {
    const std::string& line = cached[rng.NextBounded(cached.size())];
    const Clock::time_point t0 = Clock::now();
    const bool ok = conn.Call(std::to_string(i), line, &body);
    const Clock::time_point t1 = Clock::now();
    tracer->Record("rpc.roundtrip_unloaded", t0, t1, i);
    ++result->attempted;
    if (!ok || !AnsweredOk(body)) {
      result->Fail("rpc layers: '" + line + "' answered '" + body + "'");
      continue;
    }
    rtt_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  SetServerCounters(before, FetchStats(&conn), result);

  // The same requests through the in-process stages the server runs:
  // decode, parse, SolveSync (a cache hit), format, encode. SolveSync keys
  // the query itself, so serve.key is timed on its own and is part of
  // serve.hit, not a further term of the sum.
  carat::exec::ThreadPool pool(1);
  carat::serve::SolverService::Options sopts;
  sopts.pool = &pool;
  carat::serve::SolverService service(sopts);
  for (const std::string& line : cached) {
    carat::serve::Query q;
    ModelInput input;
    if (carat::serve::ParseQuery(line, &q, &input, &error)) {
      service.SolveSync(std::move(input));
    }
  }
  const std::uint64_t hits_before = service.stats().cache_hits;
  const std::unique_ptr<carat::rpc::Framing> framing =
      carat::rpc::Framing::Create(carat::rpc::FramingKind::kText);
  std::uint64_t replays = 0;
  start = Clock::now();
  for (std::uint64_t j = 0;
       j < 2000 || (j < kMaxCalls && SecondsSince(start) < budget_s / 2);
       ++j) {
    const std::string& line = cached[rng.NextBounded(cached.size())];
    std::string wire = std::to_string(j) + " " + line + "\n";
    std::vector<carat::rpc::Framing::Message> messages;
    std::string out;
    bool ok = false;
    ++replays;
    {
      Tracer::Scope request(tracer, "stage.request", j);
      {
        Tracer::Scope span(tracer, "rpc.decode", j);
        ok = framing->Decode(&wire, 4096, &messages, &error);
      }
      if (ok && messages.size() == 1) {
        carat::serve::Query q;
        ModelInput input;
        {
          Tracer::Scope span(tracer, "serve.parse", j);
          ok = carat::serve::ParseQuery(messages[0].body, &q, &input, &error);
        }
        ModelSolution solution;
        {
          Tracer::Scope span(tracer, "serve.hit", j);
          solution = service.SolveSync(std::move(input));
        }
        std::string text;
        {
          Tracer::Scope span(tracer, "serve.format", j);
          text = carat::serve::FormatResult(q, solution);
        }
        {
          Tracer::Scope span(tracer, "rpc.encode", j);
          framing->Encode(messages[0].id, text, &out);
        }
        ok = ok && AnsweredOk(text) && !out.empty();
      }
    }
    if (!ok) result->Fail("rpc layers: in-process replay of '" + line + "'");
    carat::serve::Query q;
    ModelInput input;
    carat::serve::ParseQuery(line, &q, &input, &error);
    std::string key;
    {
      Tracer::Scope span(tracer, "serve.key", j);
      key = carat::serve::CanonicalKey(input, service.options().solver);
    }
    Keep(key);
  }
  result->attempted += replays;
  if (service.stats().cache_hits - hits_before != replays) {
    result->Fail("rpc layers: an in-process replay missed the cache");
  }

  const double rtt = Median(rtt_us);
  const double decode = MedianSelfUs(*tracer, "rpc.decode");
  const double parse = MedianSelfUs(*tracer, "serve.parse");
  const double hit = MedianSelfUs(*tracer, "serve.hit");
  const double format = MedianSelfUs(*tracer, "serve.format");
  const double encode = MedianSelfUs(*tracer, "rpc.encode");
  Metrics& m = result->metrics;
  m["rpc.unloaded_rtt_us"] = {rtt, "us"};
  m["rpc.decode_us"] = {decode, "us"};
  m["rpc.encode_us"] = {encode, "us"};
  m["serve.parse_us"] = {parse, "us"};
  m["serve.key_us"] = {MedianSelfUs(*tracer, "serve.key"), "us"};
  m["serve.hit_us"] = {hit, "us"};
  m["serve.format_us"] = {format, "us"};
  m["rpc.residual_us"] = {rtt - (decode + parse + hit + format + encode),
                          "us"};
  if (own != nullptr && !own->Stop()) {
    result->Fail("rpc layers: carat_served did not drain cleanly");
  }
}

void MeasureSolveLayers(const Options& options, double budget_s,
                        Tracer* tracer, RunResult* result) {
  FreshQueryGen gen(options.seed * 0x94D049BB133111EBULL + 5);
  carat::exec::ThreadPool pool(1);
  carat::serve::SolverService::Options sopts;
  sopts.pool = &pool;
  carat::serve::SolverService service(sopts);
  std::map<std::string, carat::model::SolveArena> arenas;
  ModelSolution out;
  double solve_us = 0.0;
  double iterations = 0.0;
  std::uint64_t solves = 0;
  std::string error;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t k = 0; k < 20 || SecondsSince(start) < budget_s; ++k) {
    const std::string line = gen.Next();
    carat::serve::Query q;
    ModelInput input;
    ++result->attempted;
    if (!carat::serve::ParseQuery(line, &q, &input, &error)) {
      result->Fail("solve layers: '" + line + "': " + error);
      continue;
    }
    carat::model::SolverOptions opts = service.options().solver;
    if (q.use_exact_mva.has_value()) opts.use_exact_mva = *q.use_exact_mva;
    ModelSolution solution;
    {
      Tracer::Scope span(tracer, "serve.miss", k);
      solution = service.SolveSync(input, &opts);
    }
    if (!solution.ok || !solution.converged) {
      result->Fail("solve layers: '" + line + "' did not converge");
    }
    // The model alone: a warm arena of the query's shape, a cold seed.
    const carat::model::CaratModel model(std::move(input));
    const auto [arena, fresh] =
        arenas.try_emplace(carat::model::SolveShapeKey(model.input()));
    if (fresh) model.SolveInto(opts, &arena->second, nullptr, &out);
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer,
                         opts.use_exact_mva ? "model.solve_exact"
                                            : "model.solve_approx",
                         k);
      model.SolveInto(opts, &arena->second, nullptr, &out);
    }
    solve_us += MicrosSince(t0);
    iterations += out.iterations;
    ++solves;
  }
  Metrics& m = result->metrics;
  m["serve.miss_us"] = {MedianSelfUs(*tracer, "serve.miss"), "us"};
  m["model.solve_exact_us"] = {MedianSelfUs(*tracer, "model.solve_exact"),
                               "us"};
  m["model.solve_approx_us"] = {MedianSelfUs(*tracer, "model.solve_approx"),
                                "us"};
  m["model.iterations_per_solve"] = {
      solves > 0 ? iterations / static_cast<double>(solves) : 0.0, "count"};
  m["model.us_per_iteration"] = {
      iterations > 0 ? solve_us / iterations : 0.0, "us"};
  // Service counters for workloads with no server of their own.
  const carat::serve::ServiceStats stats = service.stats();
  const double submitted = static_cast<double>(stats.submitted);
  const double solved = static_cast<double>(stats.solved);
  SetIfAbsent(&m, "serve.warm_rate",
              solved > 0 ? stats.warm_started / solved : 0.0, "fraction");
  SetIfAbsent(&m, "serve.evictions_per_kq",
              submitted > 0 ? 1000.0 * stats.cache_evictions / submitted : 0.0,
              "count");
}

void MeasureBatchLayers(const Options& options, double budget_s,
                        Tracer* tracer, RunResult* result) {
  // A full 640-scenario sweep when the budget allows one round plus its
  // serial replay; a 4-think-point sweep (80 scenarios) as a short probe.
  const int think_points = budget_s >= 2.0 ? kSweepThinkPoints : 4;
  carat::exec::ThreadPool pool(kSweepWorkers);
  carat::serve::SolverService::Options sopts;
  sopts.pool = &pool;
  sopts.warm_start = false;
  carat::serve::SolverService service(sopts);
  const carat::model::SolverOptions& solver = service.options().solver;
  const std::size_t width = service.options().batch_lane_width;
  carat::util::Rng rng(options.seed * 0xBF58476D1CE4E5B9ULL + 13);
  service.SolveBatch(SweepRound(&rng, think_points));
  service.ClearCache();

  std::map<std::string, carat::model::BatchSolveArena> batch_arenas;
  std::map<std::string, carat::model::SolveArena> scalar_arenas;
  std::vector<double> block_us;
  std::vector<double> admit_us;
  double lanes_total_us = 0.0;
  double blocks_total_us = 0.0;
  const carat::serve::ServiceStats before = service.stats();
  const Clock::time_point start = Clock::now();
  std::uint64_t round = 0;
  do {
    const std::vector<ModelInput> inputs = SweepRound(&rng, think_points);
    result->attempted += inputs.size();
    // SolveBatch is SubmitBatch plus waiting on the futures; the submit
    // half is the admission cost: keying, cache lookups, shape grouping and
    // handing the blocks to the pool.
    const Clock::time_point t0 = Clock::now();
    std::vector<std::future<ModelSolution>> futures;
    {
      Tracer::Scope span(tracer, "serve.submit_batch", round);
      futures = service.SubmitBatch(inputs);
    }
    admit_us.push_back(MicrosSince(t0) / static_cast<double>(inputs.size()));
    std::vector<ModelSolution> solutions;
    {
      Tracer::Scope span(tracer, "serve.await_batch", round);
      for (std::future<ModelSolution>& f : futures) {
        solutions.push_back(f.get());
      }
    }
    service.ClearCache();

    // Replay serially, grouped exactly as SubmitBatch groups: by solve
    // shape in order of first appearance, full lane blocks, scalar tail.
    std::vector<std::string> order;
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::string shape = carat::model::SolveShapeKey(inputs[i]);
      std::vector<std::size_t>& group = groups[shape];
      if (group.empty()) order.push_back(shape);
      group.push_back(i);
    }
    for (const std::string& shape : order) {
      const std::vector<std::size_t>& group = groups[shape];
      std::size_t pos = 0;
      for (; width >= 2 && group.size() - pos >= width; pos += width) {
        std::vector<const ModelInput*> in(width);
        std::vector<ModelSolution> lanes(width);
        std::vector<ModelSolution*> outs(width);
        std::vector<carat::model::CaratModel> scalar_models;
        for (std::size_t w = 0; w < width; ++w) {
          in[w] = &inputs[group[pos + w]];
          outs[w] = &lanes[w];
          scalar_models.emplace_back(*in[w]);
        }
        Clock::time_point b0 = Clock::now();
        {
          Tracer::Scope span(tracer, "model.solve_batch_into", round);
          carat::model::CaratModel::SolveBatchInto(
              in.data(), width, solver, &batch_arenas[shape], nullptr,
              outs.data());
        }
        const double batch_us = MicrosSince(b0);
        std::vector<ModelSolution> scalar(width);
        b0 = Clock::now();
        {
          Tracer::Scope span(tracer, "model.solve_into_lanes", round);
          for (std::size_t w = 0; w < width; ++w) {
            scalar_models[w].SolveInto(solver, &scalar_arenas[shape], nullptr,
                                       &scalar[w]);
          }
        }
        lanes_total_us += MicrosSince(b0);
        blocks_total_us += batch_us;
        block_us.push_back(batch_us);
        for (std::size_t w = 0; w < width; ++w) {
          const ModelSolution& served = solutions[group[pos + w]];
          const double tps = scalar[w].TotalTxnPerSec();
          if (!lanes[w].ok || !lanes[w].converged ||
              std::fabs(lanes[w].TotalTxnPerSec() - tps) > 1e-6 * tps ||
              std::fabs(served.TotalTxnPerSec() - tps) > 1e-6 * tps) {
            result->Fail("batch layers: lane disagrees with scalar SolveInto");
          }
        }
      }
      for (; pos < group.size(); ++pos) {
        const carat::model::CaratModel model(inputs[group[pos]]);
        ModelSolution out;
        {
          Tracer::Scope span(tracer, "model.solve_into_tail", round);
          model.SolveInto(solver, &scalar_arenas[shape], nullptr, &out);
        }
        if (!out.ok || !out.converged) {
          result->Fail("batch layers: scalar tail did not converge");
        }
      }
    }
    ++round;
  } while (SecondsSince(start) < budget_s);

  const carat::serve::ServiceStats after = service.stats();
  const double solved = static_cast<double>(after.solved - before.solved);
  Metrics& m = result->metrics;
  m["model.batch_block_us"] = {Median(block_us), "us"};
  m["model.batch_vs_scalar"] = {
      blocks_total_us > 0 ? lanes_total_us / blocks_total_us : 0.0, "ratio"};
  m["serve.batch_fill"] = {
      solved > 0 ? (after.batched - before.batched) / solved : 0.0,
      "fraction"};
  m["serve.batch_tail"] = {
      solved > 0
          ? (after.batch_scalar_tail - before.batch_scalar_tail) / solved
          : 0.0,
      "fraction"};
  m["serve.batch_admit_us"] = {Median(admit_us), "us"};
}

void MeasureSimLayers(const Options& options, double budget_s,
                      Tracer* tracer, RunResult* result) {
  const ModelInput input = TestbedInput();
  const std::vector<std::uint64_t> seeds = TestbedSeeds(options.seed);
  double wall_ns = 0.0;
  double events = 0.0;
  double commits = 0.0;
  double submissions = 0.0;
  double messages = 0.0;
  double probes = 0.0;
  double lock_requests = 0.0;
  double lock_blocks = 0.0;
  double deadlocks = 0.0;
  const Clock::time_point start = Clock::now();
  std::uint64_t k = 0;
  do {
    const carat::TestbedOptions opts =
        TestbedRunOptions(seeds[k % seeds.size()]);
    const Clock::time_point t0 = Clock::now();
    carat::TestbedResult r;
    {
      Tracer::Scope span(tracer, "carat.run_testbed", k);
      r = carat::RunTestbed(input, opts);
    }
    const double run_ns = 1000.0 * MicrosSince(t0);
    ++result->attempted;
    ++k;
    if (!r.ok || !r.database_consistent) {
      result->Fail("sim layers: testbed run not ok/consistent: " + r.error);
      continue;
    }
    wall_ns += run_ns;
    // The counters cover the measurement window only; the wall time also
    // covers the warm-up, so events are scaled to the whole simulated span.
    events += static_cast<double>(r.events) *
              (opts.warmup_ms + opts.measure_ms) / opts.measure_ms;
    messages += static_cast<double>(r.network_messages);
    probes += static_cast<double>(r.probes_sent);
    deadlocks += static_cast<double>(r.global_deadlocks);
    for (const carat::NodeResult& node : r.nodes) {
      lock_requests += static_cast<double>(node.lock_requests);
      lock_blocks += static_cast<double>(node.lock_blocks);
      deadlocks += static_cast<double>(node.local_deadlocks);
      for (const carat::TypeResult& type : node.types) {
        commits += static_cast<double>(type.commits);
        submissions += static_cast<double>(type.submissions);
      }
    }
  } while (k < 2 || SecondsSince(start) < budget_s);

  const double window_events =
      events * kTestbedMeasureMs / (kTestbedWarmupMs + kTestbedMeasureMs);
  const auto per_commit = [&](double v) {
    return commits > 0 ? v / commits : 0.0;
  };
  Metrics& m = result->metrics;
  m["sim.ns_per_event"] = {events > 0 ? wall_ns / events : 0.0, "ns"};
  m["sim.events_per_commit"] = {per_commit(window_events), "count"};
  m["net.messages_per_commit"] = {per_commit(messages), "count"};
  m["txn.probes_per_commit"] = {per_commit(probes), "count"};
  m["txn.commit_ratio"] = {submissions > 0 ? commits / submissions : 0.0,
                           "fraction"};
  m["lock.requests_per_commit"] = {per_commit(lock_requests), "count"};
  m["lock.block_rate"] = {
      lock_requests > 0 ? lock_blocks / lock_requests : 0.0, "fraction"};
  m["lock.deadlocks_per_kcommit"] = {1000.0 * per_commit(deadlocks), "count"};
}

void FinishTracedRun(const Options& options, ServedProcess* server,
                     const std::string& own_group, double own_budget_s,
                     double untraced_per_s, double traced_per_s,
                     Tracer* tracer, RunResult* result) {
  const auto budget = [&](const char* group) {
    return own_group == group ? own_budget_s : kProbeBudgetS;
  };
  MeasureRpcLayers(options, server, budget("rpc"), tracer, result);
  MeasureSolveLayers(options, budget("solve"), tracer, result);
  MeasureBatchLayers(options, budget("batch"), tracer, result);
  MeasureSimLayers(options, budget("sim"), tracer, result);
  result->metrics["trace.overhead_frac"] = {
      traced_per_s > 0 ? untraced_per_s / traced_per_s - 1.0 : 0.0,
      "fraction"};

  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  const std::string header =
      "{\"workload\":\"" + options.workload +
      "\",\"seed\":" + std::to_string(options.seed) +
      ",\"spans\":" + std::to_string(tracer->spans().size()) +
      ",\"dropped\":" + std::to_string(tracer->dropped()) + "}";
  result->report["trace_file"] =
      tracer->Write(path, header) ? "\"" + path + "\"" : "null";
}

}  // namespace perfbench
