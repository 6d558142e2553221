// Serving-layer tests: canonical keys, the LRU solution cache, the
// nearest-neighbor warm-start index, and SolverService end to end. The
// service promises that caching, arena reuse and request coalescing never
// change numerics, so the comparisons here are bit-for-bit (memcmp on the
// doubles), matching parallel_determinism_test's standard. Warm starting is
// the one opt-in feature allowed to move results within solver tolerance.

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/generator.h"
#include "model/solver.h"
#include "serve/key.h"
#include "serve/query.h"
#include "serve/solution_cache.h"
#include "serve/solver_service.h"
#include "serve/warm_index.h"
#include "util/random.h"
#include "workload/spec.h"

namespace carat {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdentical(const model::ModelSolution& a,
                     const model::ModelSolution& b) {
  ASSERT_EQ(a.ok, b.ok);
  ASSERT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  EXPECT_TRUE(SameBits(a.comm_delay_ms, b.comm_delay_ms));
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    const model::SiteSolution& sa = a.sites[i];
    const model::SiteSolution& sb = b.sites[i];
    EXPECT_TRUE(SameBits(sa.cpu_utilization, sb.cpu_utilization));
    EXPECT_TRUE(SameBits(sa.dio_per_s, sb.dio_per_s));
    EXPECT_TRUE(SameBits(sa.txn_per_s, sb.txn_per_s));
    EXPECT_TRUE(SameBits(sa.records_per_s, sb.records_per_s));
    for (model::TxnType t : model::kAllTxnTypes) {
      const model::ClassSolution& ca = sa.Class(t);
      const model::ClassSolution& cb = sb.Class(t);
      ASSERT_EQ(ca.present, cb.present);
      EXPECT_TRUE(SameBits(ca.throughput_per_s, cb.throughput_per_s));
      EXPECT_TRUE(SameBits(ca.response_ms, cb.response_ms));
      EXPECT_TRUE(SameBits(ca.pa, cb.pa));
      EXPECT_TRUE(SameBits(ca.d_lw_ms, cb.d_lw_ms));
      EXPECT_TRUE(SameBits(ca.d_rw_ms, cb.d_rw_ms));
      EXPECT_TRUE(SameBits(ca.d_cw_ms, cb.d_cw_ms));
    }
  }
}

model::ModelSolution MakeStubSolution(double tag) {
  model::ModelSolution sol;
  sol.ok = true;
  sol.comm_delay_ms = tag;
  return sol;
}

// ---- Canonical keys --------------------------------------------------------

TEST(CanonicalKey, EqualQueriesProduceEqualKeys) {
  const model::ModelInput a = workload::MakeMB4(8).ToModelInput();
  const model::ModelInput b = workload::MakeMB4(8).ToModelInput();
  EXPECT_EQ(serve::CanonicalKey(a, {}), serve::CanonicalKey(b, {}));
}

TEST(CanonicalKey, AnyInputPerturbationChangesTheKey) {
  const model::ModelInput base = workload::MakeMB4(8).ToModelInput();
  const std::string key = serve::CanonicalKey(base, {});

  model::ModelInput different_n = workload::MakeMB4(9).ToModelInput();
  EXPECT_NE(serve::CanonicalKey(different_n, {}), key);

  model::ModelInput think = base;
  think.sites[0].think_time_ms += 1e-9;
  EXPECT_NE(serve::CanonicalKey(think, {}), key);

  model::ModelInput comm = base;
  comm.comm_delay_ms += 1.0;
  EXPECT_NE(serve::CanonicalKey(comm, {}), key);
}

TEST(CanonicalKey, SolverOptionsAreFoldedIn) {
  const model::ModelInput input = workload::MakeMB4(8).ToModelInput();
  model::SolverOptions a;
  model::SolverOptions b;
  b.damping = a.damping + 0.01;
  EXPECT_NE(serve::CanonicalKey(input, a), serve::CanonicalKey(input, b));
  model::SolverOptions c;
  c.ethernet = qn::EthernetParams{};
  EXPECT_NE(serve::CanonicalKey(input, a), serve::CanonicalKey(input, c));
}

TEST(CanonicalKey, PoolPointerDoesNotAffectTheKey) {
  // The pool changes where the solve runs, never what it computes.
  const model::ModelInput input = workload::MakeMB4(8).ToModelInput();
  model::SolverOptions a;
  model::SolverOptions b;
  b.pool = reinterpret_cast<exec::ThreadPool*>(0x1);
  EXPECT_EQ(serve::CanonicalKey(input, a), serve::CanonicalKey(input, b));
}

// ---- Solution cache --------------------------------------------------------

TEST(SolutionCache, EvictsLeastRecentlyUsed) {
  serve::SolutionCache cache(2);
  cache.Put("a", MakeStubSolution(1));
  cache.Put("b", MakeStubSolution(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // touch: "b" is now the LRU entry
  cache.Put("c", MakeStubSolution(3));
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("a")->comm_delay_ms, 1.0);
  ASSERT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SolutionCache, PutRefreshesExistingKey) {
  serve::SolutionCache cache(2);
  cache.Put("a", MakeStubSolution(1));
  cache.Put("a", MakeStubSolution(7));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("a")->comm_delay_ms, 7.0);
}

TEST(SolutionCache, ZeroCapacityDisables) {
  serve::SolutionCache cache(0);
  cache.Put("a", MakeStubSolution(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SolutionCache, TtlExpiresEntriesDeterministically) {
  serve::SolutionCache::Config config;
  config.capacity = 4;
  config.ttl = std::chrono::milliseconds(100);
  serve::SolutionCache cache(config);

  const auto t0 = serve::SolutionCache::Clock::now();
  cache.Put("a", MakeStubSolution(1), t0);
  // Still fresh at t0 + 50 ms...
  ASSERT_NE(cache.Get("a", t0 + std::chrono::milliseconds(50)), nullptr);
  // ...expired (and dropped) at t0 + 150 ms.
  EXPECT_EQ(cache.Get("a", t0 + std::chrono::milliseconds(150)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.expirations(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  // An expired entry is a true miss: re-inserting starts a fresh lifetime.
  cache.Put("a", MakeStubSolution(2), t0 + std::chrono::milliseconds(150));
  ASSERT_NE(cache.Get("a", t0 + std::chrono::milliseconds(200)), nullptr);
  EXPECT_EQ(cache.Get("a", t0 + std::chrono::milliseconds(200))->comm_delay_ms,
            2.0);
}

TEST(SolutionCache, ByteBoundEvictsLeastRecentlyUsed) {
  model::ModelSolution solution = MakeStubSolution(1);
  const std::size_t per_entry =
      serve::SolutionFootprintBytes(solution) + 1;  // + 1-byte key
  serve::SolutionCache::Config config;
  config.capacity = 100;  // entry bound never binds in this test
  config.max_bytes = 2 * per_entry;
  serve::SolutionCache cache(config);

  cache.Put("a", solution);
  cache.Put("b", solution);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.bytes(), config.max_bytes);

  cache.Put("c", solution);  // over the byte cap: "a" (LRU) is evicted
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.bytes(), config.max_bytes);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(SolutionCache, EntryLargerThanTheByteCapIsNotRetained) {
  model::ModelSolution big = MakeStubSolution(1);
  big.sites.resize(64);  // inflate the footprint well past the cap
  serve::SolutionCache::Config config;
  config.capacity = 100;
  config.max_bytes = 64;
  serve::SolutionCache cache(config);
  cache.Put("big", big);
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
}

// ---- Warm-start index ------------------------------------------------------

TEST(WarmStartIndex, PicksNearestFeatureWithinShape) {
  serve::WarmStartIndex index(8);
  model::WarmStart warm;
  warm.comm_delay_ms = 10.0;
  index.Insert("shape", 10.0, warm);
  warm.comm_delay_ms = 20.0;
  index.Insert("shape", 20.0, warm);
  model::WarmStart out;
  ASSERT_TRUE(index.Nearest("shape", 13.0, &out));
  EXPECT_EQ(out.comm_delay_ms, 10.0);
  ASSERT_TRUE(index.Nearest("shape", 16.0, &out));
  EXPECT_EQ(out.comm_delay_ms, 20.0);
  EXPECT_FALSE(index.Nearest("other-shape", 13.0, &out));
}

TEST(WarmStartIndex, SameFeatureOverwritesAndCapacityEvictsLeastRecent) {
  serve::WarmStartIndex index(2);
  model::WarmStart warm;
  warm.comm_delay_ms = 1.0;
  index.Insert("s", 5.0, warm);
  warm.comm_delay_ms = 2.0;
  index.Insert("s", 5.0, warm);  // refresh, not a second entry
  EXPECT_EQ(index.size(), 1u);
  model::WarmStart out;
  ASSERT_TRUE(index.Nearest("s", 5.0, &out));
  EXPECT_EQ(out.comm_delay_ms, 2.0);

  warm.comm_delay_ms = 3.0;
  index.Insert("s", 6.0, warm);
  warm.comm_delay_ms = 4.0;
  index.Insert("s", 7.0, warm);  // at capacity: evicts the oldest (5.0)
  EXPECT_EQ(index.size(), 2u);
  ASSERT_TRUE(index.Nearest("s", 5.0, &out));
  EXPECT_EQ(out.comm_delay_ms, 3.0);  // 6.0 is now the closest survivor
}

TEST(WarmStartIndex, RefreshProtectsAnEntryFromEviction) {
  // Regression: the old ring cursor evicted by slot order, so refreshing a
  // seed did not renew it — insert 5, insert 6, refresh 5, insert 7 evicted
  // the just-refreshed 5. Eviction is by last-write recency: 6 must go.
  serve::WarmStartIndex index(2);
  model::WarmStart warm;
  warm.comm_delay_ms = 1.0;
  index.Insert("s", 5.0, warm);
  warm.comm_delay_ms = 2.0;
  index.Insert("s", 6.0, warm);
  warm.comm_delay_ms = 3.0;
  index.Insert("s", 5.0, warm);  // refresh renews 5.0
  warm.comm_delay_ms = 4.0;
  index.Insert("s", 7.0, warm);  // at capacity: evicts 6.0, not 5.0
  EXPECT_EQ(index.size(), 2u);
  model::WarmStart out;
  ASSERT_TRUE(index.Nearest("s", 5.9, &out));
  EXPECT_EQ(out.comm_delay_ms, 3.0);  // the refreshed seed survived
  ASSERT_TRUE(index.Nearest("s", 100.0, &out));
  EXPECT_EQ(out.comm_delay_ms, 4.0);
}

TEST(WarmStartIndex, NearestBreaksDistanceTiesTowardTheSmallerFeature) {
  // The winner of an exact distance tie is a function of the stored
  // features alone, not of insertion order.
  for (const bool ascending : {true, false}) {
    serve::WarmStartIndex index(4);
    model::WarmStart warm;
    warm.comm_delay_ms = ascending ? 1.0 : 2.0;
    index.Insert("s", ascending ? 10.0 : 20.0, warm);
    warm.comm_delay_ms = ascending ? 2.0 : 1.0;
    index.Insert("s", ascending ? 20.0 : 10.0, warm);
    model::WarmStart out;
    ASSERT_TRUE(index.Nearest("s", 15.0, &out));  // equidistant
    EXPECT_EQ(out.comm_delay_ms, 1.0) << "ascending=" << ascending;
  }
}

TEST(WarmStartIndex, ZeroCapacityDisables) {
  serve::WarmStartIndex index(0);
  index.Insert("s", 1.0, model::WarmStart{});
  model::WarmStart out;
  EXPECT_FALSE(index.Nearest("s", 1.0, &out));
}

// ---- SolverService ---------------------------------------------------------

TEST(SolverService, BatchMatchesDirectSolveBitwise) {
  std::vector<model::ModelInput> inputs;
  for (const int n : {2, 4, 6}) {
    inputs.push_back(workload::MakeMB4(n).ToModelInput());
    inputs.push_back(workload::MakeLB8(n).ToModelInput());
  }
  std::vector<model::ModelSolution> direct;
  for (const model::ModelInput& input : inputs) {
    direct.push_back(model::CaratModel(input).Solve());
  }

  serve::SolverService::Options opts;
  opts.threads = 4;
  opts.warm_start = false;  // cold solves promise bit-identity
  serve::SolverService service(std::move(opts));
  const std::vector<model::ModelSolution> batch = service.SolveBatch(inputs);
  ASSERT_EQ(batch.size(), inputs.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectIdentical(batch[i], direct[i]);
  }
}

TEST(SolverService, RepeatedQueryIsServedFromTheCache) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  opts.warm_start = false;
  serve::SolverService service(std::move(opts));
  const model::ModelInput input = workload::MakeMB4(4).ToModelInput();
  const model::ModelSolution first = service.Submit(input).get();
  const model::ModelSolution second = service.Submit(input).get();
  ExpectIdentical(first, second);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(SolverService, CacheDisabledSolvesEveryQuery) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  opts.use_cache = false;
  opts.warm_start = false;
  serve::SolverService service(std::move(opts));
  const model::ModelInput input = workload::MakeMB4(4).ToModelInput();
  const model::ModelSolution first = service.Submit(input).get();
  const model::ModelSolution second = service.Submit(input).get();
  ExpectIdentical(first, second);  // resolving is still deterministic
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solved, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(SolverService, ConcurrentIdenticalQueriesCoalesceIntoOneSolve) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  opts.warm_start = false;
  serve::SolverService service(std::move(opts));

  // Plug the single worker so both submissions are accepted while the
  // solve cannot have started, making the coalescing path deterministic.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  service.pool()->Submit([gate] { gate.wait(); });

  const model::ModelInput input = workload::MakeMB4(4).ToModelInput();
  std::future<model::ModelSolution> f1 = service.Submit(input);
  std::future<model::ModelSolution> f2 = service.Submit(input);
  release.set_value();
  ExpectIdentical(f1.get(), f2.get());
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
}

TEST(SolverService, WarmStartAgreesWithColdWithinToleranceAndSavesWork) {
  // A sweep plus a re-visit of each point: the warm service seeds every
  // solve after the first from its nearest neighbor.
  std::vector<model::ModelInput> stream;
  for (const int n : {4, 6, 8}) {
    stream.push_back(workload::MakeMB4(n).ToModelInput());
  }
  for (const int n : {5, 7}) {
    stream.push_back(workload::MakeMB4(n).ToModelInput());
  }

  const auto run = [&stream](bool warm_start) {
    serve::SolverService::Options opts;
    opts.threads = 1;
    opts.use_cache = false;
    opts.warm_start = warm_start;
    serve::SolverService service(std::move(opts));
    std::vector<model::ModelSolution> out;
    for (const model::ModelInput& input : stream) {
      out.push_back(service.Submit(input).get());  // sequential: determinate
    }
    return std::make_pair(std::move(out), service.stats());
  };

  const auto [cold, cold_stats] = run(false);
  const auto [warm, warm_stats] = run(true);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(cold[i].ok && warm[i].ok);
    EXPECT_TRUE(cold[i].converged);
    EXPECT_TRUE(warm[i].converged);
    // Same fixed point within solver tolerance, not necessarily same bits.
    EXPECT_NEAR(warm[i].TotalTxnPerSec(), cold[i].TotalTxnPerSec(),
                1e-5 * cold[i].TotalTxnPerSec());
  }
  EXPECT_FALSE(cold[0].warm_started);
  EXPECT_FALSE(warm[0].warm_started);  // nothing to seed from yet
  EXPECT_TRUE(warm[1].warm_started);
  EXPECT_EQ(warm_stats.warm_started, stream.size() - 1);
  EXPECT_LT(warm_stats.total_iterations, cold_stats.total_iterations);
}

TEST(SolverService, InvalidInputReportsErrorThroughTheFuture) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  serve::SolverService service(std::move(opts));
  const model::ModelSolution sol =
      service.Submit(model::ModelInput{}).get();  // no sites
  EXPECT_FALSE(sol.ok);
  EXPECT_FALSE(sol.error.empty());
  // Failures are not cached: a retry solves again.
  service.Submit(model::ModelInput{}).get();
  EXPECT_EQ(service.stats().solved, 2u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(ParseQuery, RejectsNonFiniteValues) {
  for (const char* line :
       {"mb8 4 think=nan", "mb8 4 think=inf", "mb8 4 comm=inf",
        "mb8 4 comm=NaN", "mb8 4 comm=infinity", "mb8 4 think=-inf"}) {
    serve::Query query;
    model::ModelInput input;
    std::string error;
    EXPECT_FALSE(serve::ParseQuery(line, &query, &input, &error)) << line;
    EXPECT_NE(error.find("bad value"), std::string::npos) << error;
  }
  serve::Query query;
  model::ModelInput input;
  std::string error;
  ASSERT_TRUE(serve::ParseQuery("mb8 4 think=1e3 comm=1e308", &query, &input,
                                &error))
      << error;
  EXPECT_EQ(input.comm_delay_ms, 1e308);
}

TEST(SolverService, OverflowingQueryFailsWithoutSeedingItsNeighbors) {
  // comm=1e308 is finite and valid, but overflows a site demand mid-solve:
  // the query fails naming the site, and the failed solve does not
  // warm-start the next query of its shape.
  serve::SolverService service;
  serve::Query query;
  model::ModelInput overflow;
  std::string error;
  ASSERT_TRUE(
      serve::ParseQuery("mb8 4 comm=1e308", &query, &overflow, &error));
  const model::ModelSolution bad = service.SolveSync(overflow);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("MVA failed at site"), std::string::npos)
      << bad.error;
  EXPECT_EQ(serve::FormatResult(query, bad),
            "mb8,4,error,,,,," + bad.error);

  const model::ModelInput plain = workload::MakeMB8(4).ToModelInput();
  const model::ModelSolution after = service.SolveSync(plain);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.warm_started);
  ExpectIdentical(after, model::CaratModel(plain).Solve());
  EXPECT_GT(after.TotalTxnPerSec(), 0.0);
}

TEST(SolverService, DestructorWaitsForInFlightSolves) {
  std::vector<std::future<model::ModelSolution>> futures;
  {
    serve::SolverService::Options opts;
    opts.threads = 2;
    serve::SolverService service(std::move(opts));
    for (const int n : {2, 3, 4, 5, 6, 7}) {
      futures.push_back(service.Submit(workload::MakeMB4(n).ToModelInput()));
    }
    // Service dies here with solves still queued/running.
  }
  for (std::future<model::ModelSolution>& f : futures) {
    const model::ModelSolution sol = f.get();
    EXPECT_TRUE(sol.ok) << sol.error;
  }
}

TEST(SolverService, ConcurrentSubmittersAllGetBitIdenticalAnswers) {
  std::vector<model::ModelInput> inputs;
  for (const int n : {2, 3, 4, 5}) {
    inputs.push_back(workload::MakeMB4(n).ToModelInput());
    inputs.push_back(workload::MakeLB8(n).ToModelInput());
  }
  std::vector<model::ModelSolution> expected;
  for (const model::ModelInput& input : inputs) {
    expected.push_back(model::CaratModel(input).Solve());
  }

  serve::SolverService::Options opts;
  opts.threads = 4;
  opts.warm_start = false;
  serve::SolverService service(std::move(opts));

  constexpr int kSubmitters = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &inputs, &expected, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the order per thread so cache hits, coalescing and fresh
        // solves all interleave.
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          const std::size_t idx = (i + t) % inputs.size();
          const model::ModelSolution sol =
              service.Submit(inputs[idx]).get();
          ExpectIdentical(sol, expected[idx]);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kSubmitters * kRounds * inputs.size()));
  // Every distinct input is solved at most once; everything else is a cache
  // hit or coalesced onto an in-flight solve.
  EXPECT_EQ(stats.solved, inputs.size());
  EXPECT_EQ(stats.cache_hits + stats.coalesced,
            stats.submitted - stats.solved);
}

TEST(SolverService, PerQuerySolverOptionsNeverAliasInTheCache) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  opts.warm_start = false;
  serve::SolverService service(std::move(opts));
  const model::ModelInput input = workload::MakeMB4(8).ToModelInput();

  model::SolverOptions exact;
  exact.use_exact_mva = true;
  model::SolverOptions approx;
  approx.use_exact_mva = false;

  const model::ModelSolution a = service.Submit(input, exact).get();
  const model::ModelSolution b = service.Submit(input, approx).get();
  // Identical input under different options: two real solves, no aliasing.
  EXPECT_EQ(service.stats().solved, 2u);
  EXPECT_EQ(service.stats().cache_hits, 0u);

  // Each override replays from its own cache entry...
  ExpectIdentical(service.Submit(input, exact).get(), a);
  ExpectIdentical(service.Submit(input, approx).get(), b);
  EXPECT_EQ(service.stats().cache_hits, 2u);
  EXPECT_EQ(service.stats().solved, 2u);

  // ...and matches a dedicated solver run under the same options.
  ExpectIdentical(a, model::CaratModel(input).Solve(exact));
  ExpectIdentical(b, model::CaratModel(input).Solve(approx));
}

TEST(SolverService, SolveSyncSharesCacheAndStatsWithSubmit) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  opts.warm_start = false;
  serve::SolverService service(std::move(opts));
  const model::ModelInput input = workload::MakeMB4(4).ToModelInput();

  const model::ModelSolution sync = service.SolveSync(input);
  // Submit of the same query is answered from the cache SolveSync filled.
  ExpectIdentical(service.Submit(input).get(), sync);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // Per-query override variant solves separately.
  model::SolverOptions approx;
  approx.use_exact_mva = false;
  service.SolveSync(input, &approx);
  EXPECT_EQ(service.stats().solved, 2u);
}

TEST(SolverService, CacheEvictionsAndExpirationsSurfaceInStats) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  opts.warm_start = false;
  opts.cache_capacity = 1;  // second distinct query evicts the first
  serve::SolverService service(std::move(opts));
  service.Submit(workload::MakeMB4(4).ToModelInput()).get();
  service.Submit(workload::MakeMB4(5).ToModelInput()).get();
  EXPECT_EQ(service.stats().cache_evictions, 1u);
  EXPECT_EQ(service.stats().cache_expirations, 0u);
}

TEST(SolverService, ClearCacheForcesResolve) {
  serve::SolverService::Options opts;
  opts.threads = 1;
  opts.warm_start = false;
  serve::SolverService service(std::move(opts));
  const model::ModelInput input = workload::MakeMB4(4).ToModelInput();
  const model::ModelSolution first = service.Submit(input).get();
  service.ClearCache();
  const model::ModelSolution again = service.Submit(input).get();
  ExpectIdentical(first, again);
  EXPECT_EQ(service.stats().solved, 2u);
}

// ------------------------------------------------- lockstep batch solving ---

TEST(SolverService, SubmitBatchSolvesLockstepBlocksBitIdentically) {
  // 11 same-shape queries at lane width 4: two full lockstep blocks plus a
  // ragged tail of three scalar solves. Every answer must match a direct
  // cold CaratModel::Solve() bit for bit.
  std::vector<model::ModelInput> inputs;
  for (const int n : {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) {
    inputs.push_back(workload::MakeMB4(n).ToModelInput());
  }
  std::vector<model::ModelSolution> direct;
  for (const model::ModelInput& input : inputs) {
    direct.push_back(model::CaratModel(input).Solve());
  }

  serve::SolverService::Options opts;
  opts.threads = 2;
  opts.warm_start = false;
  opts.batch_lane_width = 4;
  serve::SolverService service(std::move(opts));
  std::vector<std::future<model::ModelSolution>> futures =
      service.SubmitBatch(inputs);
  ASSERT_EQ(futures.size(), inputs.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectIdentical(futures[i].get(), direct[i]);
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.solved, 11u);
  EXPECT_EQ(stats.batch_blocks, 2u);
  EXPECT_EQ(stats.batched, 8u);
  EXPECT_EQ(stats.batch_scalar_tail, 3u);
}

TEST(SolverService, SubmitBatchGroupsByShapeAndNeverMixesBlocks) {
  // Interleaved mb4 / lb8 queries: the groups are cut per shape, so each
  // family forms its own block (4 lanes) plus its own tail (2 scalars).
  std::vector<model::ModelInput> inputs;
  for (const int n : {2, 4, 6, 8, 10, 12}) {
    inputs.push_back(workload::MakeMB4(n).ToModelInput());
    inputs.push_back(workload::MakeLB8(n).ToModelInput());
  }
  std::vector<model::ModelSolution> direct;
  for (const model::ModelInput& input : inputs) {
    direct.push_back(model::CaratModel(input).Solve());
  }

  serve::SolverService::Options opts;
  opts.threads = 3;
  opts.warm_start = false;
  opts.batch_lane_width = 4;
  serve::SolverService service(std::move(opts));
  const std::vector<model::ModelSolution> got = service.SolveBatch(inputs);
  ASSERT_EQ(got.size(), inputs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectIdentical(got[i], direct[i]);
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batch_blocks, 2u);
  EXPECT_EQ(stats.batched, 8u);
  EXPECT_EQ(stats.batch_scalar_tail, 4u);
}

TEST(SolverService, SubmitBatchCoalescesDuplicatesAndUsesTheCache) {
  serve::SolverService::Options opts;
  opts.threads = 2;
  opts.warm_start = false;
  opts.batch_lane_width = 4;
  serve::SolverService service(std::move(opts));

  const model::ModelInput a = workload::MakeMB4(4).ToModelInput();
  const model::ModelInput b = workload::MakeMB4(8).ToModelInput();
  std::vector<std::future<model::ModelSolution>> futures =
      service.SubmitBatch({a, a, b, a});
  std::vector<model::ModelSolution> got;
  for (std::future<model::ModelSolution>& f : futures) got.push_back(f.get());
  ExpectIdentical(got[0], got[1]);
  ExpectIdentical(got[0], got[3]);
  {
    const serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.solved, 2u);      // a and b, once each
    EXPECT_EQ(stats.coalesced, 2u);   // the duplicate a's
    EXPECT_EQ(stats.batched, 0u);     // 2 fresh < lane width -> scalar tail
    EXPECT_EQ(stats.batch_scalar_tail, 2u);
  }
  const std::vector<model::ModelSolution> replay = service.SolveBatch({a, b});
  ExpectIdentical(replay[0], got[0]);
  ExpectIdentical(replay[1], got[2]);
  EXPECT_EQ(service.stats().cache_hits, 2u);
  EXPECT_EQ(service.stats().solved, 2u);
}

TEST(SolverService, BatchLaneWidthZeroDisablesLockstepBatching) {
  std::vector<model::ModelInput> inputs;
  for (const int n : {2, 4, 6, 8}) {
    inputs.push_back(workload::MakeMB4(n).ToModelInput());
  }
  serve::SolverService::Options opts;
  opts.threads = 2;
  opts.warm_start = false;
  opts.batch_lane_width = 0;
  serve::SolverService service(std::move(opts));
  const std::vector<model::ModelSolution> got = service.SolveBatch(inputs);
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectIdentical(got[i], model::CaratModel(inputs[i]).Solve());
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solved, 4u);
  EXPECT_EQ(stats.batched, 0u);
  EXPECT_EQ(stats.batch_blocks, 0u);
  EXPECT_EQ(stats.batch_scalar_tail, 0u);
}

TEST(SolverService, WarmStartedBatchBlocksReachTheSameFixedPoint) {
  // With warm starting on, a second nearby sweep seeds its lanes from the
  // first sweep's converged states: same fixed point within tolerance, and
  // the warm_started counter proves the seeds were used.
  serve::SolverService::Options opts;
  opts.threads = 2;
  opts.warm_start = true;
  opts.batch_lane_width = 4;
  serve::SolverService service(std::move(opts));

  std::vector<model::ModelInput> first, second;
  for (const int n : {4, 6, 8, 10}) {
    first.push_back(workload::MakeMB8(n).ToModelInput());
    second.push_back(workload::MakeMB8(n + 1).ToModelInput());
  }
  const std::vector<model::ModelSolution> cold = service.SolveBatch(first);
  for (const model::ModelSolution& s : cold) ASSERT_TRUE(s.converged);
  const std::vector<model::ModelSolution> warm = service.SolveBatch(second);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(warm[i].ok);
    ASSERT_TRUE(warm[i].converged);
    const model::ModelSolution direct =
        model::CaratModel(second[i]).Solve(service.options().solver);
    EXPECT_NEAR(warm[i].TotalTxnPerSec(), direct.TotalTxnPerSec(),
                1e-6 * std::max(1.0, direct.TotalTxnPerSec()));
  }
  EXPECT_EQ(service.stats().batch_blocks, 2u);
  EXPECT_GT(service.stats().warm_started, 0u);
}

TEST(SolverService, InvalidInputInsideABatchBlockFailsOnlyItsLane) {
  std::vector<model::ModelInput> inputs;
  for (const int n : {2, 4, 6, 8}) {
    inputs.push_back(workload::MakeMB4(n).ToModelInput());
  }
  // A negative request count fails validation but keeps the chain-presence
  // pattern, so the lane genuinely rides inside the lockstep block.
  inputs[2].sites[0].classes[0].local_requests = -1;
  serve::SolverService::Options opts;
  opts.threads = 2;
  opts.warm_start = false;
  opts.batch_lane_width = 4;
  serve::SolverService service(std::move(opts));
  const std::vector<model::ModelSolution> got = service.SolveBatch(inputs);
  EXPECT_FALSE(got[2].ok);
  EXPECT_EQ(got[2].error, "negative request count");
  EXPECT_EQ(service.stats().batched, 4u);
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(i);
    ExpectIdentical(got[i], model::CaratModel(inputs[i]).Solve());
  }
}

TEST(SolverService, SubmitBatchMatchesSubmitOnRandomMixedShapes) {
  // Differential check against generator-drawn inputs instead of the
  // hand-picked workload families above: 24 scenarios of random shape
  // (1-3 sites, arbitrary class mix, log disks, think times), so the batch
  // grouping has to cope with many small shape families and ragged tails.
  // With the cache off, SubmitBatch must be bit-identical to one-at-a-time
  // Submit — both reduce to cold solves of the same inputs.
  util::Rng rng(20260808);
  std::vector<model::ModelInput> inputs;
  for (int i = 0; i < 24; ++i) {
    inputs.push_back(fuzz::GenerateScenario(&rng).input);
  }

  serve::SolverService::Options batch_opts;
  batch_opts.threads = 2;
  batch_opts.use_cache = false;
  batch_opts.warm_start = false;
  batch_opts.batch_lane_width = 4;
  serve::SolverService batch_service(std::move(batch_opts));
  std::vector<std::future<model::ModelSolution>> futures =
      batch_service.SubmitBatch(inputs);
  ASSERT_EQ(futures.size(), inputs.size());

  serve::SolverService::Options scalar_opts;
  scalar_opts.threads = 2;
  scalar_opts.use_cache = false;
  scalar_opts.warm_start = false;
  serve::SolverService scalar_service(std::move(scalar_opts));

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectIdentical(futures[i].get(), scalar_service.Submit(inputs[i]).get());
  }
  EXPECT_EQ(batch_service.stats().solved, inputs.size());
  EXPECT_EQ(scalar_service.stats().solved, inputs.size());
}

}  // namespace
}  // namespace carat
