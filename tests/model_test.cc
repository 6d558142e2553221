#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cc/cc.h"
#include "model/demands.h"
#include "model/lock_model.h"
#include "model/solver.h"
#include "model/transition.h"
#include "model/yao.h"
#include "util/approx.h"
#include "util/random.h"
#include "workload/spec.h"

namespace carat::model {
namespace {

// ---------------------------------------------------------------- visits ---

TEST(VisitCounts, LocalTransactionNoContention) {
  // n = l = 4 requests, q = 4 I/Os per request, Pb = Pd = 0.
  TransitionInputs in;
  in.local_requests = 4;
  in.io_per_request = 4.0;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kLU, in, &v));
  EXPECT_NEAR(v[Index(Phase::kUT)], 1.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kINIT)], 1.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kU)], 5.0, 1e-10);      // n + 1
  EXPECT_NEAR(v[Index(Phase::kTM)], 9.0, 1e-10);     // 2n + 1
  EXPECT_NEAR(v[Index(Phase::kDM)], 20.0, 1e-10);    // l (q + 1)
  EXPECT_NEAR(v[Index(Phase::kLR)], 16.0, 1e-10);    // l q = N_lk
  EXPECT_NEAR(v[Index(Phase::kDMIO)], 16.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kLW)], 0.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kRW)], 0.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kTC)], 1.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kTCIO)], 1.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kTA)], 0.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kUL)], 1.0, 1e-10);
}

TEST(VisitCounts, CoordinatorSplitsLocalAndRemote) {
  TransitionInputs in;
  in.local_requests = 3;
  in.remote_requests = 2;
  in.io_per_request = 4.0;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kDUC, in, &v));
  EXPECT_NEAR(v[Index(Phase::kTM)], 11.0, 1e-10);  // 2 * 5 + 1
  EXPECT_NEAR(v[Index(Phase::kDM)], 3.0 * 5.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kRW)], 2.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kLR)], 12.0, 1e-10);  // only local I/O locks
}

TEST(VisitCounts, SlaveChainShape) {
  TransitionInputs in;
  in.local_requests = 2;
  in.io_per_request = 4.0;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kDUS, in, &v));
  EXPECT_NEAR(v[Index(Phase::kTM)], 5.0, 1e-10);  // 2 l + 1
  EXPECT_NEAR(v[Index(Phase::kDM)], 10.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kRW)], 2.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kU)], 0.0, 1e-10);   // slaves have no user phase
  EXPECT_NEAR(v[Index(Phase::kINIT)], 0.0, 1e-10);
  EXPECT_NEAR(v[Index(Phase::kTC)], 1.0, 1e-10);
}

TEST(VisitCounts, DeadlocksReduceCommitVisits) {
  TransitionInputs in;
  in.local_requests = 8;
  in.io_per_request = 4.0;
  in.pb = 0.1;
  in.pd = 0.05;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kLU, in, &v));
  // Per execution, commit + abort probabilities sum to one.
  EXPECT_NEAR(v[Index(Phase::kTCIO)] + v[Index(Phase::kTAIO)], 1.0, 1e-10);
  EXPECT_GT(v[Index(Phase::kTAIO)], 0.0);
  EXPECT_LT(v[Index(Phase::kTCIO)], 1.0);
  EXPECT_GT(v[Index(Phase::kLW)], 0.0);
  // An aborted execution issues fewer lock requests than N_lk on average.
  EXPECT_LT(v[Index(Phase::kLR)], 32.0);
}

TEST(VisitCounts, RowsOfTransitionMatrixAreStochastic) {
  TransitionInputs in;
  in.local_requests = 5;
  in.remote_requests = 3;
  in.io_per_request = 3.7;
  in.pb = 0.2;
  in.pd = 0.1;
  in.pra = 0.05;
  for (const TransitionMatrix& p :
       {BuildLocalOrCoordinatorMatrix(in), BuildSlaveMatrix(in)}) {
    for (int from = 0; from < kNumPhases; ++from) {
      double row = 0.0;
      for (int to = 0; to < kNumPhases; ++to) row += p[from][to];
      // Rows of unreachable phases (e.g. U/INIT for slaves) are all-zero;
      // every reachable phase must have a stochastic row.
      if (row != 0.0) EXPECT_NEAR(row, 1.0, 1e-12) << "row " << from;
    }
  }
}

// ---- Reference: the dense elimination. --------------------------------------
// SolveVisitCounts runs elimination schedules compiled from the Table 1
// structure. This is the dense loop whose results it must reproduce, kept
// test-local as the bit-level reference: a 15x15 Gaussian elimination with
// partial pivoting over (I - P^T) V = P_UT. It counts its row swaps, and
// reports them as (column, pivot row) pairs when `sequence` is set, so the
// tests can prove which compiled sequences and fallbacks they reach. The
// test target is built with -ffp-contract=off like carat_model, so no FMA
// contraction can differ between the two translation units.
using SwapSequence = std::vector<std::pair<int, int>>;

bool ReferenceVisitCounts(const TransitionMatrix& p, VisitCounts* v,
                          int* swaps, SwapSequence* sequence = nullptr) {
  constexpr int kUt = Index(Phase::kUT);
  constexpr std::size_t n = kNumPhases - 1;
  auto unknown = [](int phase) { return phase < kUt ? phase : phase - 1; };

  std::array<double, n * n> a{};
  std::array<double, n> b{};
  for (int c = 0; c < kNumPhases; ++c) {
    if (c == kUt) continue;
    const std::size_t row = unknown(c);
    a[row * n + unknown(c)] += 1.0;
    for (int e = 0; e < kNumPhases; ++e) {
      if (e == kUt) {
        b[row] += p[e][c];
      } else {
        a[row * n + unknown(e)] -= p[e][c];
      }
    }
  }

  *swaps = 0;
  if (sequence != nullptr) sequence->clear();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double value = std::fabs(a[r * n + col]);
      if (value > best) {
        best = value;
        pivot = r;
      }
    }
    if (best < 1e-14) return false;
    if (pivot != col) {
      ++*swaps;
      if (sequence != nullptr) {
        sequence->emplace_back(static_cast<int>(col), static_cast<int>(pivot));
      }
      for (std::size_t c = col; c < n; ++c)
        std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }

  std::array<double, n> x{};
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a[i * n + c] * x[c];
    x[i] = acc / a[i * n + i];
  }
  (*v)[kUt] = 1.0;
  for (int c = 0; c < kNumPhases; ++c) {
    if (c != kUt) (*v)[c] = x[unknown(c)];
  }
  return true;
}

// Runs both solvers on (type, in) and reports a bit-level difference.
// Adds the reference's swap count to *swaps.
::testing::AssertionResult MatchesReference(TxnType type,
                                            const TransitionInputs& in,
                                            int* swaps) {
  VisitCounts want{}, got{};
  int n = 0;
  const bool want_ok =
      ReferenceVisitCounts(BuildTransitionMatrix(type, in), &want, &n);
  const bool got_ok = SolveVisitCounts(type, in, &got);
  *swaps += n;
  auto describe = [&] {
    return ::testing::Message()
           << " for type " << Index(type) << " l=" << in.local_requests
           << " r=" << in.remote_requests << " q=" << in.io_per_request
           << " pb=" << in.pb << " pd=" << in.pd << " pra=" << in.pra;
  };
  if (want_ok != got_ok) {
    return ::testing::AssertionFailure()
           << "solvable " << got_ok << ", reference " << want_ok << describe();
  }
  if (!want_ok) return ::testing::AssertionSuccess();
  for (int c = 0; c < kNumPhases; ++c) {
    if (std::bit_cast<std::uint64_t>(got[c]) !=
        std::bit_cast<std::uint64_t>(want[c])) {
      return ::testing::AssertionFailure()
             << "V_" << Name(kAllPhases[c]) << " = " << got[c]
             << ", reference " << want[c] << describe();
    }
  }
  return ::testing::AssertionSuccess();
}

// A probability: a special value a quarter of the time, else uniform on
// [0, 1).
double DrawProbability(util::Rng* rng) {
  constexpr double kSpecial[] = {0.0, 1e-300, 1.0 - 1e-12, 1.0};
  if (rng->NextDouble() < 0.25) return kSpecial[(*rng)() % 4];
  return rng->NextDouble();
}

TEST(VisitCountsReference, SeededInputsMatchDenseEliminationBitForBit) {
  util::Rng rng(20261017);
  int swapping = 0, plain = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const TxnType type = kAllTxnTypes[trial % kNumTxnTypes];
    TransitionInputs in;
    const double shape = rng.NextDouble();
    in.local_requests = shape < 0.1    ? 0
                        : shape < 0.15 ? static_cast<int>(rng() % 100000)
                                       : static_cast<int>(rng() % 21);
    in.remote_requests = IsCoordinator(type) ? static_cast<int>(rng() % 9) : 0;
    const double qshape = rng.NextDouble();
    in.io_per_request = qshape < 0.1    ? 0.0
                        : qshape < 0.15 ? rng.NextDouble() * 1e6
                                        : 0.5 + 8.0 * rng.NextDouble();
    in.pb = DrawProbability(&rng);
    in.pd = DrawProbability(&rng);
    in.pra = DrawProbability(&rng);
    int swaps = 0;
    ASSERT_TRUE(MatchesReference(type, in, &swaps)) << "trial " << trial;
    (swaps > 0 ? swapping : plain) += 1;
  }
  // Both paths ran: the compiled schedule end to end, and the dense loop
  // resumed at a lost pivot.
  EXPECT_GT(swapping, 100);
  EXPECT_GT(plain, 100);
}

TEST(VisitCountsReference, EdgeInputsMatchDenseEliminationBitForBit) {
  constexpr double kProbabilities[] = {0.0, 1e-300, 1.0 - 1e-12, 1.0, 0.3};
  constexpr int kLocal[] = {0, 1, 4, 20, 399};
  constexpr int kRemote[] = {0, 3};
  // q = 1e16 nearly closes the DM/LR/DMIO loop: the system is singular.
  constexpr double kIo[] = {0.0, 2.96472, 1e6, 1e16};
  int swapping = 0, singular = 0, cases = 0;
  for (TxnType type : kAllTxnTypes) {
    for (int l : kLocal) {
      for (int r : kRemote) {
        for (double q : kIo) {
          for (double pb : kProbabilities) {
            for (double pd : kProbabilities) {
              for (double pra : kProbabilities) {
                const TransitionInputs in{l, r, q, pb, pd, pra};
                int swaps = 0;
                ASSERT_TRUE(MatchesReference(type, in, &swaps));
                VisitCounts unused;
                singular += !SolveVisitCounts(type, in, &unused);
                swapping += swaps > 0;
                ++cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(swapping, 0);
  EXPECT_LT(swapping, cases);
  EXPECT_GT(singular, 0);
  EXPECT_LT(singular, cases);
}

TEST(VisitCountsReference, PinnedLostPivotCase) {
  // The abort path is unreachable (pd = 0, no remote requests), and the
  // dense loop swaps rows three times: the compiled schedule loses a pivot
  // and must hand over to the dense loop mid-elimination.
  const TransitionInputs in{4, 0, 2.96472, 0.39027354242965029, 0.0,
                            0.074558949948433428};
  VisitCounts want{};
  int swaps = 0;
  ASSERT_TRUE(
      ReferenceVisitCounts(BuildLocalOrCoordinatorMatrix(in), &want, &swaps));
  EXPECT_EQ(swaps, 3);
  for (TxnType type : {TxnType::kLRO, TxnType::kLU}) {
    int n = 0;
    EXPECT_TRUE(MatchesReference(type, in, &n));
    EXPECT_EQ(n, 3);
  }
}

// The compiled sequence of `type`'s kind that equals `seq`, or -1.
int CompiledSequence(TxnType type, const SwapSequence& seq) {
  const auto find = [&](const auto& listed) {
    for (std::size_t i = 0; i < listed.size(); ++i) {
      SwapSequence swaps;
      for (int k = 0; k < listed[i].size; ++k) {
        swaps.emplace_back(listed[i].swaps[k].col, listed[i].swaps[k].row);
      }
      if (swaps == seq) return static_cast<int>(i);
    }
    return -1;
  };
  return IsSlave(type) ? find(kSlavePivots) : find(kLocalOrCoordinatorPivots);
}

std::string Describe(const SwapSequence& seq) {
  std::string out;
  for (const auto& [col, row] : seq) {
    out += "(" + std::string(Name(kAllPhases[col + 1])) + "," +
           std::string(Name(kAllPhases[row + 1])) + ")";
  }
  return out.empty() ? "none" : out;
}

TEST(VisitCountsReference, QueueBackendInputsStayOnCompiledSequences) {
  // The queue backend's Pd is always 0, so the abort path is unreachable
  // unless a remote wait can abort (pra > 0 with remote requests): the
  // inputs that swap rows most. Every swap sequence the dense loop takes on
  // them must be one SolveVisitCounts runs as compiled code; if the Table 1
  // structure changes, the failure names the new sequence.
  util::Rng rng(20261020);
  std::array<int, kLocalOrCoordinatorPivots.size()> lc_hits{};
  std::array<int, kSlavePivots.size()> slave_hits{};
  for (int trial = 0; trial < 12000; ++trial) {
    const TxnType type = kAllTxnTypes[trial % kNumTxnTypes];
    TransitionInputs in;
    in.local_requests = static_cast<int>(rng() % 21);
    in.remote_requests = IsCoordinator(type) ? static_cast<int>(rng() % 9) : 0;
    in.io_per_request = 0.5 + 8.0 * rng.NextDouble();
    in.pb = rng.NextDouble() < 0.1 ? 0.0 : rng.NextDouble();
    in.pd = 0.0;
    in.pra = (trial / kNumTxnTypes) % 2 == 0 ? 0.0 : rng.NextDouble();
    VisitCounts want{};
    int swaps = 0;
    SwapSequence seq;
    ASSERT_TRUE(ReferenceVisitCounts(BuildTransitionMatrix(type, in), &want,
                                     &swaps, &seq));
    const int compiled = CompiledSequence(type, seq);
    ASSERT_GE(compiled, 0) << "type " << Name(type) << " l="
                           << in.local_requests << " r=" << in.remote_requests
                           << " q=" << in.io_per_request << " pb=" << in.pb
                           << " pra=" << in.pra
                           << " swaps uncompiled: " << Describe(seq);
    (IsSlave(type) ? slave_hits[compiled] : lc_hits[compiled]) += 1;
    int unused = 0;
    ASSERT_TRUE(MatchesReference(type, in, &unused)) << "trial " << trial;
  }
  // The swap-free run and the common continuations all ran.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(lc_hits[i], 0) << i;
  for (int hits : slave_hits) EXPECT_GT(hits, 0);
}

TEST(VisitCountsReference, PinnedInputsTakeEachCompiledSequence) {
  // One input per listed sequence, each run as compiled code.
  const std::pair<TxnType, TransitionInputs> pinned[] = {
      {TxnType::kDUC, {10, 5, 4.0, 0.05, 0.01, 0.01}},
      {TxnType::kDUC, {4, 0, 2.96472, 0.39027354242965029, 0.0, 0.0}},
      {TxnType::kDUC, {9, 9, 4.0, 0.0, 0.0, 0.0}},
      {TxnType::kLU, {17, 0, 4.0, 0.062447160950123738, 0.0, 0.0}},
      {TxnType::kLRO, {18, 0, 4.0, 0.0, 0.0, 0.0}},
      {TxnType::kDUC, {14, 0, 1.1310517211042406, 0.0, 0.0, 0.0}},
      {TxnType::kDUS, {9, 0, 4.0, 0.0, 0.0, 0.0}},
      {TxnType::kDUS, {8, 0, 4.0, 0.0, 0.0, 0.0}},
      {TxnType::kDUS, {0, 0, 5.5, 0.015, 0.0, 0.0}},
      {TxnType::kDUS, {0, 0, 4.0, 0.0, 0.0, 0.0}},
  };
  constexpr int kWant[] = {0, 1, 2, 3, 4, 5, 0, 1, 2, 3};
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    const auto& [type, in] = pinned[i];
    VisitCounts want{};
    int swaps = 0;
    SwapSequence seq;
    ASSERT_TRUE(ReferenceVisitCounts(BuildTransitionMatrix(type, in), &want,
                                     &swaps, &seq));
    EXPECT_EQ(CompiledSequence(type, seq), kWant[i])
        << "input " << i << " swaps " << Describe(seq);
    int unused = 0;
    EXPECT_TRUE(MatchesReference(type, in, &unused)) << "input " << i;
  }
}

// ------------------------------------------------------------------- Yao ---

TEST(Yao, ZeroSelectionTouchesNothing) {
  EXPECT_DOUBLE_EQ(YaoExpectedBlocks(18000, 3000, 0), 0.0);
}

TEST(Yao, SelectingEverythingTouchesAllBlocks) {
  EXPECT_NEAR(YaoExpectedBlocks(18000, 3000, 18000), 3000.0, 1e-6);
}

TEST(Yao, SingleRecordTouchesOneBlock) {
  EXPECT_NEAR(YaoExpectedBlocks(18000, 3000, 1), 1.0, 1e-9);
}

TEST(Yao, SmallSelectionNearlyDistinct) {
  // The paper notes g(t) is very close to N_r(t) for its workloads.
  const double g = YaoExpectedBlocks(18000, 3000, 16);
  EXPECT_GT(g, 15.9);
  EXPECT_LT(g, 16.0);
}

TEST(Yao, MonotoneInSelection) {
  double prev = 0.0;
  for (int k = 1; k <= 200; k += 7) {
    const double g = YaoExpectedBlocks(18000, 3000, k);
    EXPECT_GT(g, prev);
    EXPECT_LE(g, 3000.0);
    prev = g;
  }
}

TEST(Yao, MeanIosPerRequestIsAboutRecordsPerRequest) {
  const double q = MeanIosPerRequest(18000, 3000, 8, 4);
  EXPECT_GT(q, 3.9);
  EXPECT_LE(q, 4.0);
}

// ----------------------------------------------------------- lock model ---

TEST(LockModel, SigmaIsOneWithoutDeadlocks) {
  EXPECT_DOUBLE_EQ(SigmaFraction(0.0, 32.0), 1.0);
}

TEST(LockModel, ExpectedLocksAtAbortUniformLimit) {
  // As Pb*Pd -> 0 the abort position is uniform on {0..N_lk-1}.
  EXPECT_NEAR(ExpectedLocksAtAbort(1e-12, 33.0), 16.0, 0.01);
}

TEST(LockModel, ExpectedLocksAtAbortDecreasesWithHazard) {
  const double low = ExpectedLocksAtAbort(0.001, 32.0);
  const double high = ExpectedLocksAtAbort(0.1, 32.0);
  EXPECT_GT(low, high);
  EXPECT_GE(high, 0.0);
}

TEST(LockModel, AverageLocksHeldHalfNlkWhenAlwaysExecuting) {
  // With no think time and no aborts, L_h = N_lk / 2 (uniform acquisition).
  EXPECT_NEAR(AverageLocksHeld(32.0, 1.0, 0.0, 100.0, 0.0), 16.0, 1e-9);
}

TEST(LockModel, ThinkTimeDilutesLocksHeld) {
  const double no_think = AverageLocksHeld(32.0, 1.0, 0.0, 100.0, 0.0);
  const double with_think = AverageLocksHeld(32.0, 1.0, 0.0, 100.0, 100.0);
  EXPECT_NEAR(with_think, no_think / 2.0, 1e-9);
}

TEST(LockModel, BlockingRatioNearOneThird) {
  // BR = (2 N + 1) / (6 N) -> 1/3; the paper measured 0.23..0.41.
  EXPECT_NEAR(BlockingRatio(16.0), 0.34375, 1e-9);
  EXPECT_NEAR(BlockingRatio(1000.0), 1.0 / 3.0, 1e-3);
}

SiteLockInputs TwoTypeSite() {
  SiteLockInputs in;
  in.num_granules = 1000.0;
  in.population[Index(TxnType::kLRO)] = 4;
  in.locks_held[Index(TxnType::kLRO)] = 8.0;
  in.lock_requests[Index(TxnType::kLRO)] = 16.0;
  in.block_prob_per_execution[Index(TxnType::kLRO)] = 0.2;
  in.population[Index(TxnType::kLU)] = 4;
  in.locks_held[Index(TxnType::kLU)] = 8.0;
  in.lock_requests[Index(TxnType::kLU)] = 16.0;
  in.block_prob_per_execution[Index(TxnType::kLU)] = 0.3;
  return in;
}

TEST(LockModel, ReadersBlockedOnlyByWriters) {
  const SiteLockInputs in = TwoTypeSite();
  // LRO: only the 4 LU transactions' locks block it: 32 / 1000.
  EXPECT_NEAR(BlockingProbability(in, TxnType::kLRO), 0.032, 1e-12);
  // LU: everyone else's locks block it: (64 - 8) / 1000.
  EXPECT_NEAR(BlockingProbability(in, TxnType::kLU), 0.056, 1e-12);
}

TEST(LockModel, BlockerDistributionSumsToOne) {
  const SiteLockInputs in = TwoTypeSite();
  for (TxnType t : {TxnType::kLRO, TxnType::kLU}) {
    double sum = 0.0;
    for (TxnType s : kAllTxnTypes) sum += BlockerTypeProbability(in, t, s);
    EXPECT_NEAR(sum, 1.0, 1e-12) << Name(t);
  }
  // A reader is never blamed on another reader.
  EXPECT_DOUBLE_EQ(BlockerTypeProbability(in, TxnType::kLRO, TxnType::kLRO),
                   0.0);
}

TEST(LockModel, DeadlockNeedsMutualConflict) {
  SiteLockInputs in = TwoTypeSite();
  // Remove the updates: readers alone can never deadlock.
  in.population[Index(TxnType::kLU)] = 0;
  EXPECT_DOUBLE_EQ(DeadlockVictimProbability(in, TxnType::kLRO), 0.0);
  // With updates present, both types have positive victim probability.
  const SiteLockInputs full = TwoTypeSite();
  EXPECT_GT(DeadlockVictimProbability(full, TxnType::kLRO), 0.0);
  EXPECT_GT(DeadlockVictimProbability(full, TxnType::kLU), 0.0);
}

TEST(LockModel, LockWaitDelayWeighsBlockerTimes) {
  const SiteLockInputs in = TwoTypeSite();
  std::array<double, kNumTxnTypes> rlt{};
  rlt[Index(TxnType::kLRO)] = 100.0;
  rlt[Index(TxnType::kLU)] = 300.0;
  // LRO can only wait on LU.
  EXPECT_NEAR(LockWaitDelay(in, TxnType::kLRO, rlt), 300.0, 1e-12);
  // LU waits on a 32/56 LRO : 24/56 LU mixture (self locks excluded from
  // the LU mass).
  EXPECT_NEAR(LockWaitDelay(in, TxnType::kLU, rlt),
              (32.0 * 100.0 + 24.0 * 300.0) / 56.0, 1e-9);
}

// ---------------------------------------------------------------- solver ---

TEST(Solver, RejectsEmptyInput) {
  CaratModel model(ModelInput{});
  const ModelSolution sol = model.Solve();
  EXPECT_FALSE(sol.ok);
  EXPECT_FALSE(sol.error.empty());
}

TEST(Solver, RejectsNonFiniteTimes) {
  // NaN compares false against 0, so a bare `< 0` check would pass it.
  using Setter = void (*)(ModelInput*, double);
  const Setter setters[] = {
      [](ModelInput* in, double v) { in->comm_delay_ms = v; },
      [](ModelInput* in, double v) { in->restart_backoff_ms = v; },
      [](ModelInput* in, double v) { in->sites[1].block_io_ms = v; },
      [](ModelInput* in, double v) { in->sites[0].think_time_ms = v; },
  };
  for (const Setter set : setters) {
    for (const double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      ModelInput input = workload::MakeMB4(8).ToModelInput();
      set(&input, v);
      std::string error;
      EXPECT_FALSE(input.Validate(&error)) << v;
      EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
      const ModelSolution sol = CaratModel(input).Solve();
      EXPECT_FALSE(sol.ok);
      EXPECT_EQ(sol.error, error);
    }
  }
}

TEST(Solver, Mb4ConvergesWithSaneOutputs) {
  const workload::WorkloadSpec wl = workload::MakeMB4(8);
  CaratModel model(wl.ToModelInput());
  const ModelSolution sol = model.Solve();
  ASSERT_TRUE(sol.ok) << sol.error;
  EXPECT_TRUE(sol.converged);
  ASSERT_EQ(sol.sites.size(), 2u);
  for (const SiteSolution& site : sol.sites) {
    EXPECT_GT(site.cpu_utilization, 0.0);
    EXPECT_LE(site.cpu_utilization, 1.0 + 1e-9);
    EXPECT_GT(site.db_disk_utilization, 0.0);
    EXPECT_LE(site.db_disk_utilization, 1.0 + 1e-9);
    EXPECT_GT(site.txn_per_s, 0.0);
    EXPECT_GT(site.records_per_s, 0.0);
    EXPECT_GT(site.dio_per_s, 0.0);
    for (TxnType t : kAllTxnTypes) {
      const ClassSolution& c = site.Class(t);
      ASSERT_TRUE(c.present) << Name(t);
      EXPECT_GT(c.throughput_per_s, 0.0) << Name(t);
      EXPECT_GE(c.pa, 0.0);
      EXPECT_LT(c.pa, 1.0);
      EXPECT_GE(c.ns, 1.0);
    }
  }
  // Node A has the faster disk, so it should out-produce Node B.
  EXPECT_GT(sol.sites[0].txn_per_s, sol.sites[1].txn_per_s);
}

TEST(Solver, DistributedThroughputSymmetricAcrossTwoEqualNodes) {
  // DRO/DU commit once per coordinator regardless of node speed asymmetry in
  // Table 5 they are near-equal; with symmetric costs they must match.
  workload::WorkloadSpec wl = workload::MakeMB4(8);
  wl.block_io_ms = {30.0, 30.0};
  CaratModel model(wl.ToModelInput());
  const ModelSolution sol = model.Solve();
  ASSERT_TRUE(sol.ok) << sol.error;
  const double a = sol.sites[0].Class(TxnType::kDROC).throughput_per_s;
  const double b = sol.sites[1].Class(TxnType::kDROC).throughput_per_s;
  EXPECT_TRUE(util::ApproxRelAbs(a, b, 0.01, 1e-6)) << a << " vs " << b;
}

TEST(Solver, ReadOnlyOutperformsUpdates) {
  const workload::WorkloadSpec wl = workload::MakeMB4(8);
  CaratModel model(wl.ToModelInput());
  const ModelSolution sol = model.Solve();
  ASSERT_TRUE(sol.ok);
  for (const SiteSolution& site : sol.sites) {
    EXPECT_GT(site.Class(TxnType::kLRO).throughput_per_s,
              site.Class(TxnType::kLU).throughput_per_s);
    EXPECT_GT(site.Class(TxnType::kDROC).throughput_per_s,
              site.Class(TxnType::kDUC).throughput_per_s);
  }
}

TEST(Solver, DeadlockAbortsGrowWithTransactionSize) {
  double prev_pa = -1.0;
  for (int n : {4, 8, 12, 16, 20}) {
    const workload::WorkloadSpec wl = workload::MakeLB8(n);
    CaratModel model(wl.ToModelInput());
    const ModelSolution sol = model.Solve();
    ASSERT_TRUE(sol.ok) << sol.error;
    const double pa = sol.sites[1].Class(TxnType::kLU).pa;
    EXPECT_GT(pa, prev_pa) << "n=" << n;
    prev_pa = pa;
  }
  EXPECT_GT(prev_pa, 0.0);
}

TEST(Solver, NormalizedThroughputEventuallyDeclines) {
  // The paper's headline shape: records/s falls beyond n ~ 8 because of
  // growing data contention and rollback.
  const workload::WorkloadSpec peak = workload::MakeLB8(8);
  const workload::WorkloadSpec big = workload::MakeLB8(20);
  const ModelSolution sol_peak = CaratModel(peak.ToModelInput()).Solve();
  const ModelSolution sol_big = CaratModel(big.ToModelInput()).Solve();
  ASSERT_TRUE(sol_peak.ok);
  ASSERT_TRUE(sol_big.ok);
  EXPECT_GT(sol_peak.sites[1].records_per_s, sol_big.sites[1].records_per_s);
}

TEST(Solver, LocalTypesNeverWaitRemotely) {
  const workload::WorkloadSpec wl = workload::MakeMB8(8);
  const ModelSolution sol = CaratModel(wl.ToModelInput()).Solve();
  ASSERT_TRUE(sol.ok);
  for (const SiteSolution& site : sol.sites) {
    EXPECT_DOUBLE_EQ(site.Class(TxnType::kLRO).r_rw_ms, 0.0);
    EXPECT_DOUBLE_EQ(site.Class(TxnType::kLU).r_rw_ms, 0.0);
    EXPECT_GT(site.Class(TxnType::kDROC).r_rw_ms, 0.0);
    EXPECT_GT(site.Class(TxnType::kDROS).r_rw_ms, 0.0);
  }
}

TEST(Solver, SeparateLogDiskImprovesThroughput) {
  workload::WorkloadSpec shared = workload::MakeLB8(8);
  workload::WorkloadSpec split = shared;
  split.separate_log_disk = true;
  const ModelSolution s1 = CaratModel(shared.ToModelInput()).Solve();
  const ModelSolution s2 = CaratModel(split.ToModelInput()).Solve();
  ASSERT_TRUE(s1.ok);
  ASSERT_TRUE(s2.ok);
  EXPECT_GE(s2.TotalTxnPerSec(), s1.TotalTxnPerSec());
  EXPECT_GT(s2.sites[0].log_disk_utilization, 0.0);
  EXPECT_DOUBLE_EQ(s1.sites[0].log_disk_utilization, 0.0);
}

TEST(Solver, SchweitzerOptionProducesSimilarResults) {
  const workload::WorkloadSpec wl = workload::MakeMB8(8);
  SolverOptions exact_opts;
  SolverOptions approx_opts;
  approx_opts.use_exact_mva = false;
  const ModelSolution exact = CaratModel(wl.ToModelInput()).Solve(exact_opts);
  const ModelSolution approx = CaratModel(wl.ToModelInput()).Solve(approx_opts);
  ASSERT_TRUE(exact.ok);
  ASSERT_TRUE(approx.ok);
  EXPECT_TRUE(util::ApproxRel(approx.TotalTxnPerSec(),
                              exact.TotalTxnPerSec(), 0.15))
      << approx.TotalTxnPerSec() << " vs " << exact.TotalTxnPerSec();
}

TEST(Solver, EthernetModelSuppliesNegligibleAlphaAtTenMbps) {
  const workload::WorkloadSpec wl = workload::MakeMB8(8);
  SolverOptions opts;
  opts.ethernet = qn::EthernetParams{};  // the paper's 10 Mb/s Ethernet
  const ModelSolution sol = CaratModel(wl.ToModelInput()).Solve(opts);
  ASSERT_TRUE(sol.ok) << sol.error;
  EXPECT_TRUE(sol.converged);
  // Transmit time of a 1000-byte message is 0.8 ms; with CARAT's tiny
  // message rate alpha must sit just above it - justifying the paper's
  // decision to neglect it.
  EXPECT_GT(sol.comm_delay_ms, 0.5);
  EXPECT_LT(sol.comm_delay_ms, 2.0);
  const ModelSolution base = CaratModel(wl.ToModelInput()).Solve();
  EXPECT_TRUE(util::ApproxRel(sol.TotalTxnPerSec(),
                              base.TotalTxnPerSec(), 0.02))
      << sol.TotalTxnPerSec() << " vs " << base.TotalTxnPerSec();
}

TEST(Solver, SlowNetworkHurtsDistributedTypesOnly) {
  const workload::WorkloadSpec wl = workload::MakeMB8(8);
  SolverOptions slow;
  slow.ethernet = qn::EthernetParams{};
  slow.ethernet->bandwidth_bits_per_ms = 56.0;  // 56 kb/s link
  const ModelSolution s = CaratModel(wl.ToModelInput()).Solve(slow);
  const ModelSolution fast = CaratModel(wl.ToModelInput()).Solve();
  ASSERT_TRUE(s.ok);
  ASSERT_TRUE(fast.ok);
  EXPECT_GT(s.comm_delay_ms, 100.0);
  // Distributed coordinators suffer (the workload is disk-bound, so even
  // ~300 ms per hop only shaves ~10% off their 20+ second responses);
  // locals barely notice, and the remote-wait delay itself balloons.
  EXPECT_LT(s.sites[0].Class(TxnType::kDUC).throughput_per_s,
            0.95 * fast.sites[0].Class(TxnType::kDUC).throughput_per_s);
  EXPECT_GT(s.sites[0].Class(TxnType::kLRO).throughput_per_s,
            0.9 * fast.sites[0].Class(TxnType::kLRO).throughput_per_s);
  // Each remote request now pays a ~300 ms round trip on top of the slave
  // service time (second-order feedback shifts the totals slightly).
  EXPECT_GT(s.sites[0].Class(TxnType::kDUC).r_rw_ms,
            fast.sites[0].Class(TxnType::kDUC).r_rw_ms + 300.0);
}

// Direct checks of the service-demand assembly (Eqs. 5-10).
TEST(Demands, NoContentionLocalReadOnly) {
  const workload::WorkloadSpec wl = workload::MakeLB8(4);
  const ModelInput input = wl.ToModelInput();
  const SiteParams& site = input.sites[0];
  const ClassParams& c = site.Class(TxnType::kLRO);

  TransitionInputs in;
  in.local_requests = 4;
  in.io_per_request = 4.0;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kLRO, in, &v));

  const ClassDemands d = ComputeDemands(site, TxnType::kLRO, v, /*ns=*/1.0,
                                        /*sigma=*/1.0, /*nlk=*/16.0,
                                        PhaseDelays{});
  // Disk: 16 reads at 28 ms + 1 commit force-write.
  EXPECT_NEAR(d.db_disk_ms, 16 * 28.0 + 28.0, 1e-9);
  EXPECT_DOUBLE_EQ(d.log_disk_ms, 0.0);
  // CPU: INIT + 5 U + 9 TM + 20 DM + 16 LR + 16 DMIO + TC + unlock.
  const double expected_cpu = c.init_cpu_ms + 5 * c.u_cpu_ms +
                              9 * c.tm_cpu_ms + 20 * c.dm_cpu_ms +
                              16 * c.lr_cpu_ms + 16 * c.dmio_cpu_ms +
                              c.tc_cpu_ms + 16 * c.unlock_cpu_per_lock_ms;
  EXPECT_NEAR(d.cpu_ms, expected_cpu, 1e-9);
  // No waits, no retries, no think.
  EXPECT_DOUBLE_EQ(d.lw_ms, 0.0);
  EXPECT_DOUBLE_EQ(d.rw_ms, 0.0);
  EXPECT_DOUBLE_EQ(d.ut_ms, 0.0);
}

TEST(Demands, RetriesScaleDemandsByNs) {
  const workload::WorkloadSpec wl = workload::MakeLB8(4);
  const ModelInput input = wl.ToModelInput();
  const SiteParams& site = input.sites[0];
  TransitionInputs in;
  in.local_requests = 4;
  in.io_per_request = 4.0;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kLU, in, &v));
  const ClassDemands once = ComputeDemands(site, TxnType::kLU, v, 1.0, 1.0,
                                           16.0, PhaseDelays{});
  const ClassDemands twice = ComputeDemands(site, TxnType::kLU, v, 2.0, 1.0,
                                            16.0, PhaseDelays{});
  EXPECT_NEAR(twice.cpu_ms, 2.0 * once.cpu_ms, 1e-9);
  EXPECT_NEAR(twice.db_disk_ms, 2.0 * once.db_disk_ms, 1e-9);
}

TEST(Demands, SeparateLogDiskSplitsCommitIo) {
  workload::WorkloadSpec wl = workload::MakeLB8(4);
  wl.separate_log_disk = true;
  const ModelInput input = wl.ToModelInput();
  const SiteParams& site = input.sites[0];
  TransitionInputs in;
  in.local_requests = 4;
  in.io_per_request = 4.0;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kLU, in, &v));
  const ClassDemands d = ComputeDemands(site, TxnType::kLRO, v, 1.0, 1.0,
                                        16.0, PhaseDelays{});
  EXPECT_NEAR(d.db_disk_ms, 16 * 28.0, 1e-9);   // data reads stay
  EXPECT_NEAR(d.log_disk_ms, 28.0, 1e-9);       // commit force moves
}

TEST(Demands, LockWaitDelayEntersLwDemand) {
  const workload::WorkloadSpec wl = workload::MakeLB8(4);
  const ModelInput input = wl.ToModelInput();
  TransitionInputs in;
  in.local_requests = 4;
  in.io_per_request = 4.0;
  in.pb = 0.1;
  VisitCounts v;
  ASSERT_TRUE(SolveVisitCounts(TxnType::kLU, in, &v));
  PhaseDelays delays;
  delays.r_lw_ms = 100.0;
  const ClassDemands d = ComputeDemands(input.sites[0], TxnType::kLU, v, 1.0,
                                        1.0, 16.0, delays);
  // V_LW = N_lk * Pb = 1.6 expected blocked requests per execution.
  EXPECT_NEAR(d.lw_ms, 1.6 * 100.0, 1e-6);
}

// Parameterized sweep: the full workload grid must converge and satisfy
// utilization bounds.
struct GridCase {
  const char* workload;
  int n;
};

class SolverGridTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolverGridTest, ConvergesAcrossWorkloadGrid) {
  const int which = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  workload::WorkloadSpec wl;
  switch (which) {
    case 0: wl = workload::MakeLB8(n); break;
    case 1: wl = workload::MakeMB4(n); break;
    case 2: wl = workload::MakeMB8(n); break;
    default: wl = workload::MakeUB6(n); break;
  }
  const ModelSolution sol = CaratModel(wl.ToModelInput()).Solve();
  ASSERT_TRUE(sol.ok) << wl.name << " n=" << n << ": " << sol.error;
  EXPECT_TRUE(sol.converged) << wl.name << " n=" << n;
  for (const SiteSolution& site : sol.sites) {
    EXPECT_LE(site.cpu_utilization, 1.0 + 1e-9);
    EXPECT_LE(site.db_disk_utilization, 1.0 + 1e-9);
    EXPECT_GT(site.txn_per_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadGrid, SolverGridTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(4, 8, 12, 16, 20)));

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitIdentical(const ModelSolution& got, const ModelSolution& want) {
  ASSERT_EQ(got.ok, want.ok);
  ASSERT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.accelerated_steps, want.accelerated_steps);
  EXPECT_EQ(got.fallback_steps, want.fallback_steps);
  EXPECT_EQ(got.warm_started, want.warm_started);
  EXPECT_EQ(got.error, want.error);
  EXPECT_TRUE(SameBits(got.comm_delay_ms, want.comm_delay_ms));
  ASSERT_EQ(got.sites.size(), want.sites.size());
  for (std::size_t i = 0; i < got.sites.size(); ++i) {
    const SiteSolution& g = got.sites[i];
    const SiteSolution& w = want.sites[i];
    EXPECT_EQ(g.name, w.name);
    for (double SiteSolution::*f :
         {&SiteSolution::cpu_utilization, &SiteSolution::db_disk_utilization,
          &SiteSolution::log_disk_utilization, &SiteSolution::dio_per_s,
          &SiteSolution::txn_per_s, &SiteSolution::records_per_s}) {
      EXPECT_TRUE(SameBits(g.*f, w.*f)) << "site " << i;
    }
    for (TxnType t : kAllTxnTypes) {
      const ClassSolution& gc = g.Class(t);
      const ClassSolution& wc = w.Class(t);
      ASSERT_EQ(gc.present, wc.present);
      for (double ClassSolution::*f :
           {&ClassSolution::throughput_per_s, &ClassSolution::response_ms,
            &ClassSolution::pa, &ClassSolution::ns, &ClassSolution::pb,
            &ClassSolution::pd, &ClassSolution::plw, &ClassSolution::lh,
            &ClassSolution::nlk, &ClassSolution::sigma,
            &ClassSolution::io_per_request, &ClassSolution::r_lw_ms,
            &ClassSolution::r_rw_ms, &ClassSolution::r_cw_ms,
            &ClassSolution::d_lw_ms, &ClassSolution::d_rw_ms,
            &ClassSolution::d_cw_ms}) {
        EXPECT_TRUE(SameBits(gc.*f, wc.*f)) << "site " << i;
      }
    }
  }
}

TEST(SolverWarmStart, NullSeedIsBitIdenticalToPlainSolve) {
  const CaratModel model(workload::MakeMB4(8).ToModelInput());
  const ModelSolution plain = model.Solve();
  WarmStart warm_out;
  const ModelSolution cold = model.Solve({}, nullptr, &warm_out);
  ExpectBitIdentical(plain, cold);
  EXPECT_FALSE(cold.warm_started);
  ASSERT_EQ(warm_out.sites.size(), model.input().sites.size());
}

TEST(SolverWarmStart, SeededSolveConvergesToSameFixedPointInFewerIterations) {
  const CaratModel base(workload::MakeMB4(8).ToModelInput());
  WarmStart warm;
  const ModelSolution cold_base = base.Solve({}, nullptr, &warm);
  ASSERT_TRUE(cold_base.ok);

  // A nearby sweep point seeded from the neighbor's converged state.
  const CaratModel target(workload::MakeMB4(9).ToModelInput());
  const ModelSolution cold = target.Solve();
  const ModelSolution warmed = target.Solve({}, &warm);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(warmed.ok);
  EXPECT_TRUE(warmed.warm_started);
  EXPECT_TRUE(warmed.converged);
  EXPECT_LT(warmed.iterations, cold.iterations);
  EXPECT_TRUE(util::ApproxRel(warmed.TotalTxnPerSec(),
                              cold.TotalTxnPerSec(), 1e-5))
      << warmed.TotalTxnPerSec() << " vs " << cold.TotalTxnPerSec();
}

TEST(SolverWarmStart, IncompatibleSeedSilentlyStartsCold) {
  WarmStart warm;
  const ModelSolution seed_sol =
      CaratModel(workload::MakeMB4(8).ToModelInput()).Solve({}, nullptr, &warm);
  ASSERT_TRUE(seed_sol.ok);
  // LB8 has a different chain-presence shape; the seed must not apply.
  const CaratModel other(workload::MakeLB8(8).ToModelInput());
  EXPECT_FALSE(warm.CompatibleWith(other.input()));
  const ModelSolution sol = other.Solve({}, &warm);
  ASSERT_TRUE(sol.ok);
  EXPECT_FALSE(sol.warm_started);
  ExpectBitIdentical(sol, other.Solve());
}

TEST(SolverArena, ReuseAcrossShapesStaysBitIdentical) {
  // One arena serving interleaved shapes: rebuilt on shape change, reused
  // otherwise — never changing any result bit.
  SolveArena arena;
  ModelSolution out;
  for (const int n : {4, 8}) {
    for (const char* family : {"mb4", "lb8", "mb4"}) {
      const ModelInput input = std::string(family) == "mb4"
                                   ? workload::MakeMB4(n).ToModelInput()
                                   : workload::MakeLB8(n).ToModelInput();
      const CaratModel model(input);
      model.SolveInto({}, &arena, nullptr, &out);
      ExpectBitIdentical(out, model.Solve());
    }
  }
}

// ------------------------------------------------------- arena sweeps --
// CaratModel::SolveBatchInto is a sweep of SolveInto calls through one
// arena. An unseeded solve drops the arena's retained Schweitzer queue
// lengths, so it must match a fresh-arena solve bit for bit whatever the
// arena solved before; a failed solve drops them too.

// A request-size sweep of one workload family: one shape, different demands.
std::vector<ModelInput> SweepInputs(const std::string& family,
                                    const std::vector<int>& ns) {
  std::vector<ModelInput> inputs;
  for (int n : ns) {
    const workload::WorkloadSpec wl =
        family == "lb8"   ? workload::MakeLB8(n)
        : family == "mb4" ? workload::MakeMB4(n)
        : family == "mb8" ? workload::MakeMB8(n)
                          : workload::MakeUB6(n);
    inputs.push_back(wl.ToModelInput());
  }
  return inputs;
}

// One mb-shaped input per node mix (both nodes alike): inputs that differ
// only in chain populations, so each has its own population lattice.
std::vector<ModelInput> MixInputs(const std::vector<workload::NodeMix>& mixes) {
  std::vector<ModelInput> inputs;
  for (const workload::NodeMix& mix : mixes) {
    workload::WorkloadSpec wl = workload::MakeMB4(8);
    for (workload::NodeMix& node : wl.nodes) node = mix;
    inputs.push_back(wl.ToModelInput());
  }
  return inputs;
}

// SolveBatchInto over `inputs` through `arena` (nullptr: a throwaway),
// seeded from `seeds` if given.
std::vector<ModelSolution> RunBatch(
    const std::vector<ModelInput>& inputs, const SolverOptions& options,
    SolveArena* arena = nullptr,
    const std::vector<const WarmStart*>* seeds = nullptr) {
  std::vector<ModelSolution> outs(inputs.size());
  std::vector<const ModelInput*> in_ptrs;
  std::vector<ModelSolution*> out_ptrs;
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    in_ptrs.push_back(&inputs[w]);
    out_ptrs.push_back(&outs[w]);
  }
  CaratModel::SolveBatchInto(in_ptrs.data(), inputs.size(), options, arena,
                             seeds != nullptr ? seeds->data() : nullptr,
                             out_ptrs.data());
  return outs;
}

// One SolveInto through a fresh arena.
ModelSolution RunScalar(const ModelInput& input, const SolverOptions& options,
                        const WarmStart* seed = nullptr,
                        WarmStart* warm_out = nullptr) {
  ModelSolution out;
  SolveArena arena;
  CaratModel(input).SolveInto(options, &arena, seed, &out, warm_out);
  return out;
}

void ExpectSweepMatchesScalar(const std::vector<ModelInput>& inputs,
                              const std::vector<ModelSolution>& outs,
                              const SolverOptions& options) {
  ASSERT_EQ(outs.size(), inputs.size());
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    SCOPED_TRACE("lane " + std::to_string(w));
    ExpectBitIdentical(outs[w], RunScalar(inputs[w], options));
  }
}

TEST(ModelBatch, BitIdenticalToScalarAcrossWorkloadSweeps) {
  std::vector<std::pair<std::string, std::vector<ModelInput>>> sweeps;
  for (const char* family : {"lb8", "mb4", "mb8", "ub6"})
    sweeps.emplace_back(family, SweepInputs(family, {4, 6, 8, 12, 16, 20}));
  sweeps.emplace_back("lattices", MixInputs({{1, 1, 1, 1},
                                             {2, 1, 1, 1},
                                             {1, 2, 3, 1},
                                             {3, 3, 3, 3}}));
  // Inputs 1 and 3 have 11^6 and 13^6 lattice states, above the 1 << 20
  // exact-state limit, so their sites fall back to Schweitzer between exact
  // solves on the same workspaces.
  sweeps.emplace_back("exact+fallback", MixInputs({{2, 2, 2, 2},
                                                   {10, 10, 10, 10},
                                                   {1, 2, 2, 1},
                                                   {12, 12, 12, 12}}));
  const SolverOptions options;
  for (const auto& [tag, inputs] : sweeps) {
    SCOPED_TRACE(tag);
    ExpectSweepMatchesScalar(inputs, RunBatch(inputs, options), options);
  }
}

TEST(ModelBatch, LanesFreezeAtDifferentIterationCounts) {
  // Request sizes 4 and 20 converge after different iteration counts; each
  // input of the sweep reports exactly its fresh solve's count.
  const std::vector<ModelInput> inputs = SweepInputs("ub6", {4, 8, 20});
  const std::vector<ModelSolution> outs = RunBatch(inputs, {});
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    EXPECT_TRUE(outs[w].converged);
    EXPECT_EQ(outs[w].iterations, RunScalar(inputs[w], {}).iterations);
  }
  EXPECT_NE(outs.front().iterations, outs.back().iterations);
}

TEST(ModelBatch, WarmSeededBatchMatchesWarmSeededScalar) {
  // A shifted sweep seeded from a converged one. Exact MVA keeps no queue
  // lengths across solves (these lattices are under the state limit), so
  // the seeded sweep through one arena matches seeded fresh-arena solves.
  const SolverOptions options;
  const std::vector<ModelInput> first = SweepInputs("mb4", {4, 8, 12, 16});
  const std::vector<ModelInput> second = SweepInputs("mb4", {6, 10, 14, 18});
  std::vector<WarmStart> warms(first.size());
  std::vector<const WarmStart*> seeds;
  for (std::size_t w = 0; w < first.size(); ++w) {
    RunScalar(first[w], options, nullptr, &warms[w]);
    seeds.push_back(&warms[w]);
  }
  const std::vector<ModelSolution> outs =
      RunBatch(second, options, nullptr, &seeds);
  for (std::size_t w = 0; w < second.size(); ++w) {
    SCOPED_TRACE("lane " + std::to_string(w));
    EXPECT_TRUE(outs[w].warm_started);
    ExpectBitIdentical(outs[w], RunScalar(second[w], options, &warms[w]));
  }
}

TEST(ModelBatch, SchweitzerOnlyOptionRunsThroughAReusedArena) {
  // use_exact_mva = false puts every site on SchweitzerMvaInPlace, whose
  // retained queue lengths each unseeded solve must drop.
  SolverOptions options;
  options.use_exact_mva = false;
  const std::vector<ModelInput> inputs = SweepInputs("mb8", {4, 8, 12, 20});
  ExpectSweepMatchesScalar(inputs, RunBatch(inputs, options), options);
}

TEST(ModelBatch, EthernetCouplingStaysBitIdentical) {
  SolverOptions options;
  options.ethernet = qn::EthernetParams{};
  const std::vector<ModelInput> inputs = SweepInputs("mb8", {4, 8, 16});
  ExpectSweepMatchesScalar(inputs, RunBatch(inputs, options), options);
}

TEST(ModelBatch, InvalidLaneRidesAlongWithoutDisturbingNeighbors) {
  std::vector<ModelInput> inputs = SweepInputs("mb4", {4, 8, 12});
  inputs[1].sites[0].classes[0].population = -1;  // fails validation
  const SolverOptions options;
  const std::vector<ModelSolution> outs = RunBatch(inputs, options);
  EXPECT_FALSE(outs[1].ok);
  EXPECT_EQ(outs[1].error, "negative population");
  for (std::size_t w : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("lane " + std::to_string(w));
    ExpectBitIdentical(outs[w], RunScalar(inputs[w], options));
  }
}

TEST(ModelBatch, MixedShapesSolveEveryLaneBitIdentically) {
  // Each input re-keys the arena to its own shape; none is refused.
  std::vector<ModelInput> inputs = SweepInputs("mb4", {4, 8});
  inputs.push_back(SweepInputs("lb8", {8})[0]);  // other chain presence
  inputs.push_back(SweepInputs("mb4", {12})[0]);
  inputs.push_back(SweepInputs("ub6", {8})[0]);  // other site count
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact" : "approx");
    SolverOptions options;
    options.use_exact_mva = exact;
    const std::vector<ModelSolution> outs = RunBatch(inputs, options);
    for (const ModelSolution& out : outs) ASSERT_TRUE(out.ok) << out.error;
    ExpectSweepMatchesScalar(inputs, outs, options);
  }
}

TEST(ModelBatch, OverflowingLaneFailsAloneNamingTheSite) {
  // A finite but huge communication delay overflows the RW demand to inf
  // mid-solve. That solve fails naming the site, and the other seven of the
  // sweep match their fresh-arena solves bit for bit, with exact and with
  // Schweitzer site solves.
  std::vector<ModelInput> inputs;
  for (int w = 0; w < 8; ++w) {
    inputs.push_back(workload::MakeMB8(4).ToModelInput());
    for (SiteParams& site : inputs.back().sites)
      site.think_time_ms = 150.0 * w;
  }
  constexpr std::size_t kBad = 3;
  inputs[kBad].comm_delay_ms = 1e308;
  ASSERT_TRUE(inputs[kBad].Validate());
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact" : "approx");
    SolverOptions options;
    options.use_exact_mva = exact;
    const std::vector<ModelSolution> outs = RunBatch(inputs, options);
    EXPECT_FALSE(outs[kBad].ok);
    EXPECT_NE(outs[kBad].error.find("MVA failed at site " +
                                    inputs[kBad].sites[0].name + ":"),
              std::string::npos)
        << outs[kBad].error;
    EXPECT_TRUE(outs[kBad].sites.empty());
    EXPECT_EQ(RunScalar(inputs[kBad], options).error, outs[kBad].error);
    for (std::size_t w = 0; w < inputs.size(); ++w) {
      if (w == kBad) continue;
      SCOPED_TRACE("lane " + std::to_string(w));
      ExpectBitIdentical(outs[w], RunScalar(inputs[w], options));
    }

    // The failure clears the arena's warm state: a seeded solve right after
    // a failed seeded one (which keeps what the arena held before it)
    // matches a seeded solve through a fresh arena.
    WarmStart seed;
    ASSERT_TRUE(RunScalar(inputs[0], options, nullptr, &seed).converged);
    SolveArena arena;
    ModelSolution out;
    CaratModel(inputs[0]).SolveInto(options, &arena, nullptr, &out);
    CaratModel(inputs[kBad]).SolveInto(options, &arena, &seed, &out);
    ASSERT_FALSE(out.ok);
    CaratModel(inputs[1]).SolveInto(options, &arena, &seed, &out);
    ExpectBitIdentical(out, RunScalar(inputs[1], options, &seed));
  }
}

TEST(ModelBatch, ReusedArenaSolvesColdBlocksBitIdentically) {
  // Sweeps of shapes A, B, A through one arena, cold, each against
  // fresh-arena solves: a shape change rebuilds the arena, a return to A
  // rebuilds it again, and neither moves a bit.
  const std::vector<ModelInput> a = SweepInputs("mb8", {4, 8, 12, 16});
  const std::vector<ModelInput> b = SweepInputs("ub6", {20, 6, 10});
  const std::vector<ModelInput> a2 = SweepInputs("mb8", {20, 6, 10, 14});
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact" : "approx");
    SolverOptions options;
    options.use_exact_mva = exact;
    SolveArena arena;
    for (const std::vector<ModelInput>* sweep : {&a, &b, &a2}) {
      ExpectSweepMatchesScalar(*sweep, RunBatch(*sweep, options, &arena),
                               options);
    }
  }
}

TEST(ModelBatch, ReusedArenaSeededResolveMatchesOneLane) {
  // Through one arena, per input: a cold solve, then a re-solve seeded from
  // it, which resumes from the queue lengths the cold solve left. Against
  // the same two solves through a fresh arena per input: the cold solve
  // drops whatever the previous input left, so both pairs match bit for bit.
  SolverOptions options;
  options.use_exact_mva = false;
  const std::vector<ModelInput> inputs = SweepInputs("ub6", {4, 8, 20});
  SolveArena arena;
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    SCOPED_TRACE("input " + std::to_string(w));
    const CaratModel model(inputs[w]);
    ModelSolution cold, warm;
    WarmStart seed;
    model.SolveInto(options, &arena, nullptr, &cold, &seed);
    model.SolveInto(options, &arena, &seed, &warm);

    SolveArena fresh;
    ModelSolution want_cold, want_warm;
    WarmStart want_seed;
    model.SolveInto(options, &fresh, nullptr, &want_cold, &want_seed);
    model.SolveInto(options, &fresh, &want_seed, &want_warm);
    ExpectBitIdentical(cold, want_cold);
    EXPECT_TRUE(warm.warm_started);
    ExpectBitIdentical(warm, want_warm);
  }
}

// ------------------------------------------------ accelerated fixed point --
// DESIGN.md §16: the fixed point mixes each pass by a safeguarded depth-3
// Anderson step, falling back to the damped step when the residual rises.

workload::WorkloadSpec MakeFamily(int which, int n, int nodes) {
  switch (which) {
    case 0: return workload::MakeLB8(n, nodes);
    case 1: return workload::MakeMB4(n, nodes);
    case 2: return workload::MakeMB8(n, nodes);
    default: return workload::MakeUB6(n, nodes);
  }
}

struct GridSolve {
  std::string tag;
  ModelInput input;
  SolverOptions options;
};

// The 160-case grid: lb8/mb4/mb8/ub6 x n in {4, 8, 12, 16, 20} x the four
// CC backends x exact/Schweitzer MVA, on the paper's two nodes.
std::vector<GridSolve> AccelerationGrid() {
  std::vector<GridSolve> grid;
  for (int which = 0; which < 4; ++which) {
    for (int n : {4, 8, 12, 16, 20}) {
      for (cc::BackendKind kind : cc::kAllBackends) {
        for (bool exact : {true, false}) {
          GridSolve g;
          g.input = MakeFamily(which, n, 2).ToModelInput();
          g.input.cc_backend = kind;
          g.options.use_exact_mva = exact;
          g.tag = std::to_string(which) + "/" + std::to_string(n) + "/" +
                  std::string(cc::Name(kind)) + (exact ? "/exact" : "/approx");
          grid.push_back(std::move(g));
        }
      }
    }
  }
  return grid;
}

double RelDiff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale > 0.0 ? std::fabs(a - b) / scale : 0.0;
}

// Max relative difference over every numeric ModelSolution field.
double MaxRelDistance(const ModelSolution& a, const ModelSolution& b) {
  double d = RelDiff(a.comm_delay_ms, b.comm_delay_ms);
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    const SiteSolution& x = a.sites[i];
    const SiteSolution& y = b.sites[i];
    for (double v : {RelDiff(x.cpu_utilization, y.cpu_utilization),
                     RelDiff(x.db_disk_utilization, y.db_disk_utilization),
                     RelDiff(x.log_disk_utilization, y.log_disk_utilization),
                     RelDiff(x.dio_per_s, y.dio_per_s),
                     RelDiff(x.txn_per_s, y.txn_per_s),
                     RelDiff(x.records_per_s, y.records_per_s)}) {
      d = std::max(d, v);
    }
    for (TxnType t : kAllTxnTypes) {
      const ClassSolution& c = x.Class(t);
      const ClassSolution& e = y.Class(t);
      for (double v :
           {RelDiff(c.throughput_per_s, e.throughput_per_s),
            RelDiff(c.response_ms, e.response_ms), RelDiff(c.pa, e.pa),
            RelDiff(c.ns, e.ns), RelDiff(c.pb, e.pb), RelDiff(c.pd, e.pd),
            RelDiff(c.plw, e.plw), RelDiff(c.lh, e.lh), RelDiff(c.nlk, e.nlk),
            RelDiff(c.sigma, e.sigma),
            RelDiff(c.io_per_request, e.io_per_request),
            RelDiff(c.r_lw_ms, e.r_lw_ms), RelDiff(c.r_rw_ms, e.r_rw_ms),
            RelDiff(c.r_cw_ms, e.r_cw_ms), RelDiff(c.d_lw_ms, e.d_lw_ms),
            RelDiff(c.d_rw_ms, e.d_rw_ms), RelDiff(c.d_cw_ms, e.d_cw_ms)}) {
        d = std::max(d, v);
      }
    }
  }
  return d;
}

TEST(AcceleratedFixedPoint, GridSolvesAreWithin1e8OfTightReference) {
  // The default tolerance stops on the throughputs' relative change; the
  // answer must still sit within 1e-8 of the fixed point itself, taken as
  // a solve of the same input at tolerance 1e-14.
  for (const GridSolve& g : AccelerationGrid()) {
    const ModelSolution sol = CaratModel(g.input).Solve(g.options);
    SolverOptions tight = g.options;
    tight.tolerance = 1e-14;
    tight.max_iterations = 5000;
    const ModelSolution ref = CaratModel(g.input).Solve(tight);
    ASSERT_TRUE(sol.ok && ref.ok) << g.tag;
    ASSERT_TRUE(sol.converged && ref.converged) << g.tag;
    EXPECT_LE(MaxRelDistance(sol, ref), 1e-8) << g.tag;
  }
}

TEST(AcceleratedFixedPoint, MedianColdIterationsOnGridAtMost18) {
  std::vector<int> iterations;
  for (const GridSolve& g : AccelerationGrid()) {
    const ModelSolution sol = CaratModel(g.input).Solve(g.options);
    ASSERT_TRUE(sol.ok && sol.converged) << g.tag;
    EXPECT_EQ(sol.accelerated_steps + sol.fallback_steps + 1, sol.iterations)
        << g.tag;
    iterations.push_back(sol.iterations);
  }
  std::sort(iterations.begin(), iterations.end());
  EXPECT_LE(iterations[iterations.size() / 2], 18);
}

// mb8 at n = 4 on eight nodes: the paper's granule count, and the pinned
// contended variant with 150 granules per site under 2PL. Both share one
// solve shape, so they can ride in one batch block.
ModelInput EightNodeMb8(bool contended) {
  ModelInput input = workload::MakeMB8(4, 8).ToModelInput();
  if (contended) {
    for (SiteParams& site : input.sites) site.num_granules = 150;
  }
  return input;
}

TEST(AcceleratedFixedPoint, PaperCaseTakesOnlyAcceleratedSteps) {
  const ModelSolution sol = CaratModel(EightNodeMb8(false)).Solve();
  ASSERT_TRUE(sol.ok) << sol.error;
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.fallback_steps, 0);
  EXPECT_EQ(sol.accelerated_steps, sol.iterations - 1);
}

TEST(AcceleratedFixedPoint, ContendedCaseUsesUpResetBudgetAndConverges) {
  // Until the first budget of three safeguard resets runs out, the only
  // damped steps are the resets themselves, so more than three damped steps
  // mean the lane used up its budget and went on damping.
  const ModelSolution sol = CaratModel(EightNodeMb8(true)).Solve();
  ASSERT_TRUE(sol.ok) << sol.error;
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.fallback_steps, 3);
  EXPECT_GT(sol.accelerated_steps, 0);
  EXPECT_EQ(sol.accelerated_steps + sol.fallback_steps + 1, sol.iterations);
}

TEST(AcceleratedFixedPoint, MixedBatchIsBitIdenticalPerLane) {
  // Solves on the accelerated path and solves on the damped fallback
  // alternate through one arena; each must match its fresh solve bit for
  // bit, step counts included.
  std::vector<ModelInput> inputs;
  for (int w = 0; w < 8; ++w) inputs.push_back(EightNodeMb8(w % 2 == 1));
  const std::vector<ModelSolution> outs = RunBatch(inputs, {});
  const ModelSolution paper = CaratModel(inputs[0]).Solve();
  const ModelSolution contended = CaratModel(inputs[1]).Solve();
  ASSERT_EQ(paper.fallback_steps, 0);
  ASSERT_GT(contended.fallback_steps, 3);
  for (std::size_t w = 0; w < outs.size(); ++w) {
    SCOPED_TRACE("lane " + std::to_string(w));
    ExpectBitIdentical(outs[w], w % 2 == 1 ? contended : paper);
  }
}

TEST(AcceleratedFixedPoint, ContendedSubsetFailsToConvergeOnlyWherePinned) {
  // Non-convergence guard: mb4/mb8 at n in {4, 8, 20} on 4 and 8 nodes with
  // 150 granules per site, under every CC backend. The pinned cases did
  // not converge under the damped iteration either; no other case may fail.
  // Schweitzer MVA keeps the 48 solves to milliseconds (exact MVA spends
  // about a second on each unconverged eight-node case) and pins the same
  // 14 cases as exact MVA did.
  const std::vector<std::string> pinned = {
      "mb4/4/8/2pl",   "mb4/4/8/queue",  "mb4/8/8/2pl",  "mb4/8/8/queue",
      "mb4/20/4/queue", "mb4/20/8/queue", "mb8/4/4/2pl",  "mb8/4/4/queue",
      "mb8/4/8/queue", "mb8/8/4/2pl",    "mb8/8/8/queue", "mb8/20/4/2pl",
      "mb8/20/8/2pl",  "mb8/20/8/queue"};
  SolverOptions options;
  options.use_exact_mva = false;
  for (int which : {1, 2}) {
    for (int n : {4, 8, 20}) {
      for (int nodes : {4, 8}) {
        for (cc::BackendKind kind : cc::kAllBackends) {
          ModelInput input = MakeFamily(which, n, nodes).ToModelInput();
          input.cc_backend = kind;
          for (SiteParams& site : input.sites) site.num_granules = 150;
          const std::string tag = std::string(which == 1 ? "mb4/" : "mb8/") +
                                  std::to_string(n) + "/" +
                                  std::to_string(nodes) + "/" +
                                  std::string(cc::Name(kind));
          const ModelSolution sol = CaratModel(input).Solve(options);
          ASSERT_TRUE(sol.ok) << tag << ": " << sol.error;
          if (sol.converged) continue;
          EXPECT_NE(std::find(pinned.begin(), pinned.end(), tag), pinned.end())
              << tag << " newly fails to converge";
        }
      }
    }
  }
}

TEST(SolverShapeKey, EncodesChainPresenceAndLayout) {
  const ModelInput mb4_a = workload::MakeMB4(4).ToModelInput();
  const ModelInput mb4_b = workload::MakeMB4(20).ToModelInput();
  EXPECT_EQ(SolveShapeKey(mb4_a), SolveShapeKey(mb4_b));  // same family
  const ModelInput lb8 = workload::MakeLB8(4).ToModelInput();
  EXPECT_NE(SolveShapeKey(mb4_a), SolveShapeKey(lb8));
  ModelInput log_disk = mb4_a;
  log_disk.sites[0].separate_log_disk = !log_disk.sites[0].separate_log_disk;
  EXPECT_NE(SolveShapeKey(mb4_a), SolveShapeKey(log_disk));
}

}  // namespace
}  // namespace carat::model
