// Randomized stress for the lock manager: many transactions hammering a
// small granule pool with mixed S/X workloads. Checks the fundamental
// invariants under every interleaving the seed produces:
//   - mutual exclusion (an X holder excludes every other holder),
//   - reader sharing (S holders coexist, never with a foreign X),
//   - progress (deadlock detection always unjams the system),
//   - clean shutdown (no locks or waiters left behind).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/lock_manager_set.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "util/random.h"

namespace carat::lock {
namespace {

constexpr db::GranuleId kGranules = 12;  // small pool => heavy conflicts

struct Shared {
  sim::Simulation sim;
  LockManager lm{sim};
  util::Rng rng{0};
  // External mirror of who holds what, maintained by the workers.
  std::array<TxnId, kGranules> x_owner{};
  std::array<std::set<TxnId>, kGranules> s_holders;
  TxnId next_gid = 1;
  int finished_workers = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  bool violation = false;
};

sim::Process Worker(Shared& ctx, int rounds) {
  util::Rng rng = ctx.rng.Fork();
  for (int round = 0; round < rounds;) {
    const TxnId gid = ctx.next_gid++;
    ctx.lm.StartTxn(gid);
    const bool exclusive = rng.NextDouble() < 0.5;
    const LockMode mode = exclusive ? LockMode::kExclusive : LockMode::kShared;

    // Pick 1..5 distinct granules.
    std::set<db::GranuleId> picks;
    const int want = 1 + static_cast<int>(rng.NextBounded(5));
    while (static_cast<int>(picks.size()) < want) {
      picks.insert(static_cast<db::GranuleId>(rng.NextBounded(kGranules)));
    }

    bool aborted = false;
    std::vector<db::GranuleId> held;
    for (const db::GranuleId g : picks) {
      co_await sim::Delay{ctx.sim, 1.0 + rng.NextDouble() * 3.0};
      const LockOutcome outcome = co_await ctx.lm.Acquire(gid, g, mode);
      if (outcome == LockOutcome::kAborted) {
        aborted = true;
        break;
      }
      // Mirror the grant and verify exclusion against the external state.
      if (exclusive) {
        if (ctx.x_owner[g] != 0 || !ctx.s_holders[g].empty()) {
          ctx.violation = true;
        }
        ctx.x_owner[g] = gid;
      } else {
        if (ctx.x_owner[g] != 0) ctx.violation = true;
        ctx.s_holders[g].insert(gid);
      }
      held.push_back(g);
    }

    if (!aborted) {
      co_await sim::Delay{ctx.sim, 2.0 + rng.NextDouble() * 5.0};
      ++ctx.commits;
      ++round;  // only successful rounds count toward completion
    } else {
      ++ctx.aborts;
    }

    for (const db::GranuleId g : held) {
      if (exclusive) {
        ctx.x_owner[g] = 0;
      } else {
        ctx.s_holders[g].erase(gid);
      }
    }
    ctx.lm.ReleaseAll(gid);
    ctx.lm.EndTxn(gid);
  }
  ++ctx.finished_workers;
}

class LockStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockStressTest, InvariantsHoldUnderRandomSchedules) {
  Shared ctx;
  ctx.rng.Seed(GetParam());
  constexpr int kWorkers = 10;
  constexpr int kRounds = 60;
  for (int w = 0; w < kWorkers; ++w) Worker(ctx, kRounds);
  ctx.sim.RunUntil(10'000'000.0);

  EXPECT_EQ(ctx.finished_workers, kWorkers) << "livelock or lost wakeup";
  EXPECT_FALSE(ctx.violation) << "lock exclusion violated";
  EXPECT_EQ(ctx.commits, static_cast<std::uint64_t>(kWorkers) * kRounds);
  EXPECT_EQ(ctx.lm.TotalHeld(), 0u);
  // With 50% writers on 12 granules, conflicts (and some deadlocks) are
  // statistically certain across 600 committed transactions.
  EXPECT_GT(ctx.lm.blocks(), 0u);
  if (ctx.aborts > 0) {
    EXPECT_GT(ctx.lm.local_deadlocks(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockStressTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(LockStressVictimPolicies, AllPoliciesPreserveInvariants) {
  for (const VictimPolicy policy :
       {VictimPolicy::kRequester, VictimPolicy::kYoungest,
        VictimPolicy::kOldest}) {
    Shared ctx;
    ctx.rng.Seed(99);
    ctx.lm.set_victim_policy(policy);
    for (int w = 0; w < 8; ++w) Worker(ctx, 40);
    ctx.sim.RunUntil(10'000'000.0);
    EXPECT_EQ(ctx.finished_workers, 8) << static_cast<int>(policy);
    EXPECT_FALSE(ctx.violation);
    EXPECT_EQ(ctx.lm.TotalHeld(), 0u);
  }
}

// ---------------------------------------------------------------------------
// The same invariants against LockManagerSet: one lock manager per site of a
// sharded kernel, each hammered by its own site's workers. Checks per-site
// exclusion plus the aggregate stat accessors the testbed relies on.

constexpr int kSites = 3;

struct MultiSiteShared {
  sim::ShardedKernel kernel{kSites, /*num_shards=*/1};
  LockManagerSet lms{kernel};
  util::Rng rng{0};
  std::array<std::array<TxnId, kGranules>, kSites> x_owner{};
  std::array<std::array<std::set<TxnId>, kGranules>, kSites> s_holders;
  TxnId next_gid = 1;
  int finished_workers = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  bool violation = false;
};

sim::Process SiteWorker(MultiSiteShared& ctx, int site, int rounds) {
  util::Rng rng = ctx.rng.Fork();
  LockManager& lm = ctx.lms.at(site);
  const sim::SitePort port{&ctx.kernel, site};
  auto& x_owner = ctx.x_owner[site];
  auto& s_holders = ctx.s_holders[site];
  for (int round = 0; round < rounds;) {
    const TxnId gid = ctx.next_gid++;
    lm.StartTxn(gid);
    const bool exclusive = rng.NextDouble() < 0.5;
    const LockMode mode = exclusive ? LockMode::kExclusive : LockMode::kShared;

    std::set<db::GranuleId> picks;
    const int want = 1 + static_cast<int>(rng.NextBounded(5));
    while (static_cast<int>(picks.size()) < want) {
      picks.insert(static_cast<db::GranuleId>(rng.NextBounded(kGranules)));
    }

    bool aborted = false;
    std::vector<db::GranuleId> held;
    for (const db::GranuleId g : picks) {
      co_await sim::Delay{port, 1.0 + rng.NextDouble() * 3.0};
      const LockOutcome outcome = co_await lm.Acquire(gid, g, mode);
      if (outcome == LockOutcome::kAborted) {
        aborted = true;
        break;
      }
      if (exclusive) {
        if (x_owner[g] != 0 || !s_holders[g].empty()) ctx.violation = true;
        x_owner[g] = gid;
      } else {
        if (x_owner[g] != 0) ctx.violation = true;
        s_holders[g].insert(gid);
      }
      held.push_back(g);
    }

    if (!aborted) {
      co_await sim::Delay{port, 2.0 + rng.NextDouble() * 5.0};
      ++ctx.commits;
      ++round;
    } else {
      ++ctx.aborts;
    }

    for (const db::GranuleId g : held) {
      if (exclusive) {
        x_owner[g] = 0;
      } else {
        s_holders[g].erase(gid);
      }
    }
    lm.ReleaseAll(gid);
    lm.EndTxn(gid);
  }
  ++ctx.finished_workers;
}

TEST(LockManagerSetStress, PerSiteInvariantsHoldAcrossSites) {
  MultiSiteShared ctx;
  ctx.rng.Seed(42);
  constexpr int kWorkersPerSite = 6;
  constexpr int kRounds = 40;
  for (int s = 0; s < kSites; ++s) {
    for (int w = 0; w < kWorkersPerSite; ++w) SiteWorker(ctx, s, kRounds);
  }
  ctx.kernel.RunUntil(10'000'000.0);

  EXPECT_EQ(ctx.finished_workers, kSites * kWorkersPerSite);
  EXPECT_FALSE(ctx.violation) << "per-site lock exclusion violated";
  EXPECT_EQ(ctx.commits,
            static_cast<std::uint64_t>(kSites) * kWorkersPerSite * kRounds);
  EXPECT_EQ(ctx.lms.TotalHeld(), 0u);
  EXPECT_GT(ctx.lms.requests(), 0u);
  EXPECT_GT(ctx.lms.blocks(), 0u);
  if (ctx.aborts > 0) {
    EXPECT_GT(ctx.lms.local_deadlocks(), 0u);
  }
}

TEST(LockManagerSetStress, VictimPolicyBroadcastReachesEverySite) {
  MultiSiteShared ctx;
  ctx.lms.set_victim_policy(VictimPolicy::kYoungest);
  ctx.rng.Seed(7);
  for (int s = 0; s < kSites; ++s) {
    for (int w = 0; w < 4; ++w) SiteWorker(ctx, s, 20);
  }
  ctx.kernel.RunUntil(10'000'000.0);
  EXPECT_EQ(ctx.finished_workers, kSites * 4);
  EXPECT_FALSE(ctx.violation);
  EXPECT_EQ(ctx.lms.TotalHeld(), 0u);
}

}  // namespace
}  // namespace carat::lock
